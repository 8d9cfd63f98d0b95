// Counter families are declared once, as X-macro lists: a list macro takes
// an operation X and applies it to every counter name of the family, e.g.
//
//   #define HGS_EXAMPLE_COUNTERS(X) X(gets) X(puts)
//   struct ExampleStats { HGS_EXAMPLE_COUNTERS(HGS_COUNTER_FIELD) };
//
// Struct declarations, merges, folds and resets all expand that one list,
// so a new counter is a one-line change that no hand-written copy can miss.

#ifndef HGS_COMMON_COUNTERS_H_
#define HGS_COMMON_COUNTERS_H_

#include <atomic>
#include <cstdint>

/// Declares one plain per-call counter.
#define HGS_COUNTER_FIELD(name) uint64_t name = 0;

/// Declares one lifetime counter, bumped concurrently.
#define HGS_ATOMIC_COUNTER_FIELD(name) std::atomic<uint64_t> name{0};

#endif  // HGS_COMMON_COUNTERS_H_
