// Mapper fixture: an always-inlined helper in a header, standing in for a
// header-only layer whose code lands inside its caller.
#ifndef PERFBENCH_FIXTURE_CPU_SET_H_
#define PERFBENCH_FIXTURE_CPU_SET_H_

__attribute__((always_inline)) inline int FixtureCount(unsigned v) {
  // A global label inside the inlined body gives the test a PC whose inline
  // chain is cpu_set.h, then machine.cc.
  asm volatile(".globl fixture_inlined_pc\nfixture_inlined_pc:");
  return __builtin_popcount(v);
}

#endif  // PERFBENCH_FIXTURE_CPU_SET_H_
