// Key=value configuration files and the field tables that read and write them.
//
// PerfIso takes every limit from flat `key = value` config files (§4) and
// applies runtime reconfiguration and crash recovery by re-reading them
// (§4.2). The format has `#` comments and dotted keys (e.g.
// "cpu.buffer_cores").
//
// Each config struct names every key exactly once, in one field table: a
// member `template <class V> void Fields(V& v)` that calls `v.Field(key,
// member)` per key. Keys that apply only to some configurations sit behind
// plain `if`s on members the table has already visited. Two visitors walk a
// table:
//   - ConfigWriter serializes it (ToConfigMap / AppendToConfigMap);
//   - ConfigReader parses it (FromConfigMap). Every value goes through one
//     typed conversion, ParseValue, and the reader records each key it
//     consumed. A key left over is unknown or inapplicable, and Finish()
//     rejects it, so a typo'd or irrelevant knob fails loudly instead of
//     silently running defaults.
#ifndef PERFISO_SRC_UTIL_CONFIG_H_
#define PERFISO_SRC_UTIL_CONFIG_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

// Shortest text that parses back to exactly `value` (std::to_chars): config
// round trips must describe the same experiment, not a 6-digit neighbor.
std::string FormatDouble(double value);

// One entry of an enum's name table. Each config enum E has exactly one
// table, returned by an overload `EnumNames(E)` that argument-dependent
// lookup finds next to the enum:
//   inline const auto& EnumNames(CpuIsolationMode) {
//     static constexpr EnumName<CpuIsolationMode> kNames[] = {
//         {CpuIsolationMode::kNone, "none"}, ...};
//     return kNames;
//   }
template <class E>
struct EnumName {
  E value;
  const char* name;
};

// `value`'s name in its table ("?" if the table lacks it).
template <class E>
const char* NameOf(E value) {
  for (const EnumName<E>& entry : EnumNames(value)) {
    if (entry.value == value) {
      return entry.name;
    }
  }
  return "?";
}

// The enumerator named `text` in E's table.
template <class E>
StatusOr<E> ParseEnum(const std::string& text) {
  std::string expected;
  for (const EnumName<E>& entry : EnumNames(E{})) {
    if (text == entry.name) {
      return entry.value;
    }
    expected += expected.empty() ? "" : "|";
    expected += entry.name;
  }
  return InvalidArgumentError("unknown value \"" + text + "\", expected one of " + expected);
}

// The one text -> value conversion every config reader uses. An integer must
// fit the destination type, a double must be finite, a bool is
// true/false/1/0, and an enum comes from its name table. On error `*out` is
// left unchanged.
Status ParseValue(const std::string& text, bool* out);
Status ParseValue(const std::string& text, double* out);
template <class T>
Status ParseValue(const std::string& text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
  } else if constexpr (std::is_enum_v<T>) {
    auto value = ParseEnum<T>(text);
    PERFISO_RETURN_IF_ERROR(value.status());
    *out = *value;
  } else {
    static_assert(std::is_integral_v<T>, "no config conversion for this type");
    T value{};
    const char* end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, value);
    if (parsed.ec != std::errc() || parsed.ptr != end) {
      return InvalidArgumentError("not an integer in [" +
                                  std::to_string(std::numeric_limits<T>::min()) + ", " +
                                  std::to_string(std::numeric_limits<T>::max()) + "]: " + text);
    }
    *out = value;
  }
  return OkStatus();
}

// The matching value -> text conversion.
template <class T>
std::string FormatValue(const T& value) {
  if constexpr (std::is_convertible_v<const T&, std::string>) {
    return std::string(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return FormatDouble(value);
  } else if constexpr (std::is_enum_v<T>) {
    return NameOf(value);
  } else {
    static_assert(std::is_integral_v<T>, "no config conversion for this type");
    return std::to_string(value);
  }
}

class ConfigMap {
 public:
  // Parses `text`; returns error with line number on malformed input.
  static StatusOr<ConfigMap> Parse(const std::string& text);

  // Serializes back to the text format (sorted by key).
  std::string Serialize() const;

  // Stores FormatValue(value) under `key`.
  template <class T>
  void Set(const std::string& key, const T& value) {
    entries_[key] = FormatValue(value);
  }

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

// Both visitors offer the same calls, so one field table serves both:
//   Field(key, member)          one scalar (string, bool, integer, double, enum);
//   Flag(key, on)               a bool switch written only when on;
//   Micros(key, duration)       a SimDuration stored as whole microseconds;
//   Scoped(prefix, fn)          runs fn() with `prefix` prepended to its keys;
//   Keyed(prefix, items, &T::id, fields)
//                               records keyed by an int id, one key per field:
//                               <prefix><id>.<field> (e.g. io.owner.7.iops);
//   List(key, items, fields)    records in one value: entries split by ',',
//                               positional fields by ':' (e.g. "0:100,5:2000").
// `fields(visitor, item)` visits one Keyed record's named fields;
// `fields(field, item)` calls field(member) once per List position.

// The key prefix both visitors share.
class ConfigScope {
 public:
  template <class Fn>
  void Scoped(const std::string& prefix, Fn fn) {
    const size_t outer = prefix_.size();
    prefix_ += prefix;
    fn();
    prefix_.resize(outer);
  }

 protected:
  std::string prefix_;
};

class ConfigWriter : public ConfigScope {
 public:
  explicit ConfigWriter(ConfigMap* map) : map_(map) {}

  // An empty string is written as no key at all.
  template <class T>
  void Field(const std::string& key, const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      if (value.empty()) {
        return;
      }
    }
    map_->Set(prefix_ + key, value);
  }
  void Flag(const std::string& key, bool on) {
    if (on) {
      Field(key, on);
    }
  }
  void Micros(const std::string& key, SimDuration value) {
    Field(key, value / kMicrosecond);
  }
  template <class T, class Fn>
  void Keyed(const std::string& prefix, std::vector<T>& items, int T::*id, Fn fields) {
    for (T& item : items) {
      Scoped(prefix + std::to_string(item.*id) + ".", [&] { fields(*this, item); });
    }
  }
  // An empty list is written as no key at all.
  template <class T, class Fn>
  void List(const std::string& key, std::vector<T>& items, Fn fields) {
    if (items.empty()) {
      return;
    }
    std::string text;
    for (T& item : items) {
      text += text.empty() ? "" : ",";
      bool first = true;
      auto field = [&](const auto& value) {
        text += first ? "" : ":";
        text += FormatValue(value);
        first = false;
      };
      fields(field, item);
    }
    map_->Set(prefix_ + key, text);
  }

 private:
  ConfigMap* map_;
};

// Absent keys keep the member's current (default) value. After the first
// error every later call is a no-op, and Finish() reports that error.
class ConfigReader : public ConfigScope {
 public:
  explicit ConfigReader(const ConfigMap& map) : map_(map) {}

  template <class T>
  void Field(const std::string& key, T& value) {
    if (const std::string* text = Take(key)) {
      Check(key, ParseValue(*text, &value));
    }
  }
  void Flag(const std::string& key, bool& on) { Field(key, on); }
  void Micros(const std::string& key, SimDuration& value);
  // Records come back sorted by id.
  template <class T, class Fn>
  void Keyed(const std::string& prefix, std::vector<T>& items, int T::*id, Fn fields) {
    const std::set<int> ids = KeyedIds(prefix);
    if (!ids.empty()) {
      items.clear();
    }
    for (int each : ids) {
      T item;
      item.*id = each;
      Scoped(prefix + std::to_string(each) + ".", [&] { fields(*this, item); });
      items.push_back(item);
    }
  }
  // A present key must hold at least one entry, and no entry may be empty.
  template <class T, class Fn>
  void List(const std::string& key, std::vector<T>& items, Fn fields) {
    const std::string* text = Take(key);
    if (text == nullptr) {
      return;
    }
    items.clear();
    for (const std::string& entry : Split(*text, ',')) {
      if (entry.empty()) {
        Check(key, InvalidArgumentError("empty list or list entry"));
        return;
      }
      const std::vector<std::string> parts = Split(entry, ':');
      T item;
      size_t position = 0;
      Status status;
      auto field = [&](auto& value) {
        if (status.ok() && position < parts.size()) {
          status = ParseValue(parts[position], &value);
        }
        ++position;
      };
      fields(field, item);
      if (status.ok() && position != parts.size()) {
        status = InvalidArgumentError("entry \"" + entry + "\" needs " +
                                      std::to_string(position) + " ':'-separated fields");
      }
      Check(key, status);
      if (!status.ok()) {
        return;
      }
      items.push_back(item);
    }
  }

  // The first conversion error, else the first key no field consumed.
  Status Finish() const;

 private:
  // The value at prefix + key, marked consumed; null when absent or after an
  // error.
  const std::string* Take(const std::string& key);
  // Records `status` (if it is the first error) against prefix + key.
  void Check(const std::string& key, const Status& status);
  std::set<int> KeyedIds(const std::string& prefix);
  static std::vector<std::string> Split(const std::string& text, char separator);

  const ConfigMap& map_;
  std::set<std::string> consumed_;
  Status error_;
};

// Parses `map` into a default-constructed T through T::Fields.
template <class T>
StatusOr<T> ReadFields(const ConfigMap& map) {
  T value;
  ConfigReader reader(map);
  value.Fields(reader);
  PERFISO_RETURN_IF_ERROR(reader.Finish());
  return value;
}

// Writes every key T::Fields emits for `value` into `map` (`value` is a copy
// because a field table takes its struct by non-const reference).
template <class T>
void WriteFields(T value, ConfigMap* map) {
  ConfigWriter writer(map);
  value.Fields(writer);
}

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_CONFIG_H_
