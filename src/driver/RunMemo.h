//===- driver/RunMemo.h - Process-wide memo of timed runs -------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide memo of timed runs: Pipeline::runBaseline and the
/// execution step of Pipeline::runPrefetched. Sampled and full profiles
/// mostly pick the same prefetches (the paper's point), so many prefetched
/// runs of one sweep execute the same module on the same input, and a
/// prefetched module with nothing inserted is the baseline module. The
/// memo executes each distinct run once and hands its RunStats and
/// attribution to every other requester (docs/ENGINE.md "Run memo").
///
/// The key is the run's content: the module's ProgramCache::hashModule,
/// the workload build that fixed the initial memory image (workload,
/// DataSet, seed offset), and the timing, interpreter and memory-system
/// configs by value, plus whether the run records attribution. Feedback
/// and prefetch insertion only ever see the Module (runFeedback takes it
/// const, insertPrefetches by reference), never Program::Memory, so the
/// build request fixes the memory image of a prefetched run too.
///
/// The first requester of a key executes the run; concurrent requesters
/// wait for its result. A run that throws reaches its waiters and is not
/// kept. Entries drop when ProgramCache::global().generation() moves (the
/// cold-start reset), as the engine's result memo does.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_RUNMEMO_H
#define SPROF_DRIVER_RUNMEMO_H

#include "interp/Interpreter.h"
#include "memsys/Cache.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sprof {

/// What one timed run produces.
struct TimedRun {
  RunStats Stats;
  /// Enabled only for runs that record attribution.
  AttributionData Attribution;
};

/// The content key of one timed run: runs with equal keys produce equal
/// results.
struct RunKey {
  /// ProgramCache::hashModule of the executed module.
  std::pair<uint64_t, uint64_t> Module;
  /// The workload whose build supplied the memory image, by address and
  /// name, as the engine's result memo keys it.
  uintptr_t Workload = 0;
  std::string Name;
  DataSet DS = DataSet::Ref;
  uint64_t SeedOffset = 0;
  TimingModel Timing;
  InterpreterConfig Interp;
  MemoryConfig Memory;
  bool Attribution = false;

  bool operator==(const RunKey &) const = default;
};

class RunMemo {
public:
  /// The process-wide instance Pipeline uses; constructed on first use.
  static RunMemo &global();

  /// The result of the run keyed \p K. The first requester calls
  /// \p Execute and sets \p Executed; a requester that finds the key done
  /// or in flight gets (or waits for) that run's result. If \p Execute
  /// throws, the exception reaches every requester waiting on it and the
  /// key stays unrecorded, so the next request executes it again.
  TimedRun run(const RunKey &K, const std::function<TimedRun()> &Execute,
               bool &Executed);

  /// Keys currently held (done or in flight).
  size_t size() const;

private:
  struct Entry;

  /// Completed entries beyond this many are dropped oldest first, so a
  /// long-lived process sweeping many configs stays bounded.
  static constexpr size_t MaxEntries = 1024;

  mutable std::mutex Mu;
  /// ProgramCache::global().generation() the entries belong to.
  uint64_t Generation = 0;
  /// Oldest first.
  std::vector<std::shared_ptr<Entry>> Entries;
};

} // namespace sprof

#endif // SPROF_DRIVER_RUNMEMO_H
