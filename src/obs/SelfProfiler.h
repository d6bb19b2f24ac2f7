//===- obs/SelfProfiler.h - Sampled engine self-attribution -----*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Where does *our own* engine spend its host cycles? EngineSelfProfiler
/// answers that with window sampling: the decoded interpreter pings it once
/// every Window dispatches with the dispatch-op slot about to execute, and
/// the profiler attributes the wall time since the previous ping to that
/// slot. With a window of ~1k the dispatch-loop overhead is one predictable
/// decrement-and-branch per instruction, and the sample *counts* are a
/// deterministic function of the instruction stream (every Window-th
/// dispatch), so tests can assert on them exactly; the nanosecond totals
/// are host-noisy and reported for ranking only.
///
/// Samples accumulate per (workload, phase) context -- the pipeline labels
/// its profile/baseline/timed runs -- and per slot, where a slot is one
/// dispatch op of the decoded engine (a base opcode or the Predicated
/// slot). The engine installs its slot-name table at attach
/// time, which keeps this class free of interpreter dependencies.
///
/// Export: writeFolded emits one `workload;phase;op count` line per nonzero
/// slot -- the folded-stack format flamegraph.pl and speedscope consume --
/// and the run report gains a "self_profile" section with the same data
/// plus nanosecond estimates.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_SELFPROFILER_H
#define SPROF_OBS_SELFPROFILER_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sprof {

/// Window-sampled per-slot attribution, bucketed by (workload, phase).
class EngineSelfProfiler {
public:
  /// \p Window is the sampling period in dispatches (minimum 1).
  explicit EngineSelfProfiler(uint32_t Window);

  uint32_t window() const { return Window; }

  /// Installs the engine's slot-name table and slot count. Idempotent;
  /// existing buckets are resized. \p Names may be nullptr (slots render
  /// as "op<N>"). The table must outlive the profiler.
  void configureSlots(uint32_t NumSlots, const char *const *Names);

  /// Selects (creating on first use) the accumulation bucket for
  /// subsequent samples and re-anchors the attribution clock.
  void setContext(std::string_view Workload, std::string_view Phase);

  /// Records one sample: attributes the wall time since the previous
  /// sample (or beginWindow) in the current context to \p Slot. Called by
  /// the engine once every Window dispatches, never per instruction.
  void sample(uint32_t Slot);

  /// Re-anchors the attribution clock without recording; the engine calls
  /// this at run start so setup time is not charged to the first sample.
  void beginWindow();

  /// One nonzero (workload, phase, slot) cell.
  struct Entry {
    std::string Workload;
    std::string Phase;
    uint32_t Slot = 0;
    uint64_t Samples = 0; ///< deterministic given the instruction stream
    uint64_t Ns = 0;      ///< host wall time attributed (noisy)
  };

  /// Every nonzero cell, sorted by Samples descending (ties: workload,
  /// phase, slot ascending, so the order is total and deterministic).
  std::vector<Entry> entries() const;

  uint64_t totalSamples() const;

  /// The installed name for \p Slot, or "op<N>" when no table is set.
  std::string slotName(uint32_t Slot) const;

  /// Accumulates \p Other's buckets into this profiler (sample counts and
  /// ns add; commutative). Adopts \p Other's slot table when this profiler
  /// has none. Used by the engine to fold job-scoped profilers into the
  /// session profiler.
  void merge(const EngineSelfProfiler &Other);

  /// Folded-stack lines "workload;phase;op count", one per nonzero cell,
  /// in deterministic (workload, phase, slot) order. Values are sample
  /// counts.
  void writeFolded(std::ostream &OS) const;
  bool writeFoldedFile(const std::string &Path) const;

private:
  struct SlotStat {
    uint64_t Samples = 0;
    uint64_t Ns = 0;
  };

  std::vector<SlotStat> &bucketFor(const std::string &Key);

  uint32_t Window;
  uint32_t NumSlots = 0;
  const char *const *SlotNames = nullptr;

  /// Key "workload;phase" -> per-slot stats (size NumSlots).
  std::map<std::string, std::vector<SlotStat>> Buckets;
  std::vector<SlotStat> *Cur = nullptr;
  uint64_t LastNs = 0;
};

} // namespace sprof

#endif // SPROF_OBS_SELFPROFILER_H
