//===- profile/LfuValueProfiler.h - Calder-style LFU value profiler -*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Least-Frequently-Used value profiler of Calder, Feller and Eustace
/// ("Value Profiling", MICRO-30, 1997), which the paper adopts for stride
/// collection (Section 3.1). Two buffers track recurrent values: a small
/// *temp* buffer absorbs the raw stream with LFU replacement, and a *final*
/// buffer receives the highest-frequency survivors at periodic merges.
///
/// The paper's enhancement (Figure 7) of treating nearly-equal strides as
/// equal is supported through a configurable coarsening shift: values are
/// compared by `(a >> Shift) == (b >> Shift)`.
///
/// Every operation reports an abstract *work* count (buffer entries
/// touched) so the simulation can charge realistic profiling-overhead
/// cycles (Figures 20/22).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_LFUVALUEPROFILER_H
#define SPROF_PROFILE_LFUVALUEPROFILER_H

#include <cstdint>
#include <vector>

namespace sprof {

class Counter;
class Histogram;

/// Configuration for the LFU value profiler.
struct LfuConfig {
  /// Entries in the temp buffer (LFU replacement).
  unsigned TempSize = 16;
  /// Entries kept in the final buffer at merges.
  unsigned FinalSize = 8;
  /// Temp buffer is merged into the final buffer after this many updates.
  unsigned MergeInterval = 1024;
  /// Coarsening shift for value equality (0 = exact; the paper's
  /// `is_same_value` uses 4, i.e. values within the same 16-byte bucket
  /// compare equal).
  unsigned CoarsenShift = 0;

  bool operator==(const LfuConfig &) const = default;
};

/// A profiled value and its frequency.
struct ValueCount {
  int64_t Value = 0;
  uint64_t Count = 0;
};

/// LFU-replacement top-value profiler.
class LfuValueProfiler {
public:
  LfuValueProfiler() : LfuValueProfiler(LfuConfig()) {}
  explicit LfuValueProfiler(const LfuConfig &Config);

  /// Records one occurrence of \p Value.
  /// \returns the number of buffer entries examined (work units), merge
  /// work included when a merge triggers.
  unsigned add(int64_t Value);

  /// Snapshot of the current top values: final merged with temp, combined
  /// by (coarsened) equality, sorted by descending count. At most
  /// FinalSize entries.
  std::vector<ValueCount> topValues() const;

  /// Total number of values ever added.
  uint64_t totalAdded() const { return TotalAdded; }

  /// Number of merges performed (exposed for tests/benches).
  uint64_t numMerges() const { return NumMerges; }

  /// Telemetry sinks (owned by an ObsSession's registry): per-add work
  /// histogram and merge counter. Null pointers (the default) redirect to
  /// statically-allocated dummy sinks, so the hot path writes
  /// unconditionally and carries no per-add branch at all.
  void attachObs(Histogram *WorkHistogram, Counter *MergeCounter);

  const LfuConfig &config() const { return Config; }

private:
  bool sameValue(int64_t A, int64_t B) const {
    return (A >> Config.CoarsenShift) == (B >> Config.CoarsenShift);
  }

  unsigned addImpl(int64_t Value);
  unsigned merge();

  LfuConfig Config;
  std::vector<ValueCount> Temp;
  std::vector<ValueCount> Final;
  /// Reused merge buffer for topValues(); grown once to its steady-state
  /// capacity instead of reallocating on every snapshot.
  mutable std::vector<ValueCount> TopScratch;
  unsigned UpdatesSinceMerge = 0;
  uint64_t TotalAdded = 0;
  uint64_t NumMerges = 0;
  /// Never null: real registry metrics when attached, dummy sinks when not.
  Histogram *ObsWork;
  Counter *ObsMerges;
};

} // namespace sprof

#endif // SPROF_PROFILE_LFUVALUEPROFILER_H
