// InlineFn: a copyable, movable callable that always stores its target in
// place.
//
// The simulation's per-request callbacks (a thread's completion, a disk
// request's, a flow's delivery, a query's end) are built once per request and
// moved a few times before they run. std::function keeps a target inline only
// up to libstdc++'s 16-byte buffer, so a capture of [this, ref, chunk] (24
// bytes) costs a heap allocation per request and another per copy.
// InlineFn<R(Args...), N> stores any callable of at most N bytes in its own
// buffer, and a static_assert rejects a larger one at compile time: there is
// no heap fallback, so an InlineFn never allocates.
//
// Empty semantics follow std::function: an InlineFn is empty when default
// constructed, when built from nullptr, from an empty std::function or from a
// null function pointer, and after it was moved from. An empty InlineFn tests
// false; calling one is a bug (asserted).
#ifndef PERFISO_SRC_UTIL_INLINE_FN_H_
#define PERFISO_SRC_UTIL_INLINE_FN_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace perfiso {

// The default budget, [this] plus five words. The widest simulation callback,
// IndexServer's read-done stage (this, query ref, chunk, cost and trace
// context), takes 40 bytes.
inline constexpr size_t kInlineFnBytes = 48;

template <typename Sig, size_t N = kInlineFnBytes>
class InlineFn;

namespace inline_fn_internal {

// Callables that can be null: they build an empty InlineFn when they are.
template <typename F>
struct Nullable : std::is_pointer<F> {};
// Recognizes an empty std::function argument; no std::function is stored.
template <typename Sig>
struct Nullable<std::function<Sig>> : std::true_type {};  // NOLINT(perfiso-PERF-002)

}  // namespace inline_fn_internal

template <typename R, typename... Args, size_t N>
class InlineFn<R(Args...), N> {
 public:
  InlineFn() {}  // user-provided, so a const empty InlineFn is well-formed
  // Implicit, like std::function's, so `fn = nullptr` and lambda arguments
  // convert in place.
  InlineFn(std::nullptr_t) {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& fn) {
    static_assert(sizeof(D) <= N, "callable exceeds the InlineFn budget: shrink its capture");
    static_assert(alignof(D) <= alignof(std::max_align_t), "callable is over-aligned");
    static_assert(std::is_copy_constructible_v<D>, "InlineFn targets must be copyable");
    if constexpr (inline_fn_internal::Nullable<D>::value) {
      if (!fn) {
        return;
      }
    }
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    invoke_ = &Invoke<D>;
    manage_ = &Manage<D>;
  }

  InlineFn(const InlineFn& other) { CopyFrom(other); }
  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }

  InlineFn& operator=(const InlineFn& other) {
    if (this != &other) {
      Reset();
      CopyFrom(other);
    }
    return *this;
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  ~InlineFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    assert(invoke_ != nullptr);
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kCopy, kMove, kDestroy };

  template <typename D>
  static R Invoke(void* target, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(*static_cast<D*>(target), std::forward<Args>(args)...);
    } else {
      return std::invoke(*static_cast<D*>(target), std::forward<Args>(args)...);
    }
  }

  // kCopy and kMove construct into `dst` from `src` (kMove then destroys
  // `src`); kDestroy destroys `src`.
  template <typename D>
  static void Manage(Op op, void* dst, void* src) {
    D* from = static_cast<D*>(src);
    switch (op) {
      case Op::kCopy:
        ::new (dst) D(*from);
        break;
      case Op::kMove:
        ::new (dst) D(std::move(*from));
        from->~D();
        break;
      case Op::kDestroy:
        from->~D();
        break;
    }
  }

  void CopyFrom(const InlineFn& other) {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kCopy, buf_, other.buf_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
    }
  }

  void MoveFrom(InlineFn& other) {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMove, buf_, other.buf_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, nullptr, buf_);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  // Mutable so a const InlineFn can run a target with a non-const call
  // operator, as std::function can.
  alignas(std::max_align_t) mutable unsigned char buf_[N];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_INLINE_FN_H_
