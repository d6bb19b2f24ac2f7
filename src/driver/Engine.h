//===- driver/Engine.h - Parallel experiment engine -------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExperimentEngine runs experiment jobs — pipeline runs over a
/// workload × method × input × seed grid — on a JobGraph thread pool with
/// per-job isolation:
///
///   * every job constructs its own Pipeline (and therefore rebuilds its
///     own Program) and owns its RNG seed via PipelineConfig's
///     WorkloadSeedOffset, so jobs share no mutable state and an N-thread
///     sweep is bit-identical to the serial one;
///   * every job runs against a private ObsSession (when session telemetry
///     is on); after the graph drains, job scopes fold into the session
///     registry/trace in deterministic JobId order, one span per job lands
///     on the worker's trace lane, and the run report gains a "jobs"
///     array.
///
/// One API schedules work: addJob()/run() runs arbitrary closures with
/// dependencies. The suite helpers in Experiments.h build every figure's
/// jobs on it and route them through the engine's result memo
/// (memoFind/memoRecord), so one engine runs each unique job once however
/// many figures ask for it.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_ENGINE_H
#define SPROF_DRIVER_ENGINE_H

#include "driver/JobGraph.h"
#include "driver/Pipeline.h"
#include "obs/SweepReport.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace sprof {

class FlightRecorder;

/// Engine-level knobs.
struct EngineOptions {
  /// Worker threads. 1 executes jobs inline in deterministic topological
  /// order; results never depend on this value.
  unsigned Threads = 1;
  /// Session-level telemetry; jobs get derived scopes (ObsSession's
  /// jobConfig).
  ObsConfig Obs;
  /// When nonzero (and the flight recorder is armed via
  /// ObsConfig::FlightRecorder), a watchdog thread dumps the recorder and
  /// exits the process (FlightRecorder::WatchdogExitCode) when no job
  /// finishes for this many seconds while jobs are in flight — a hung
  /// sweep fails loudly with a post-mortem instead of wedging CI.
  uint64_t WatchdogSec = 0;
};

/// What a memoized engine job computes. Each kind has one result type:
/// RunStats (Baseline), ProfileRunResult (Profile), TimedRunResult
/// (Feedback), and the Figure 18/19 population rows (Population).
enum class JobKind : uint8_t { Baseline, Profile, Feedback, Population };

/// A profile a feedback job reads its edges or strides from: a profile run
/// of the feedback job's own workload and config. It carries no
/// memory-system flag, because profiles do not depend on the memory
/// system.
struct ProfileSource {
  DataSet DS = DataSet::Train;
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;

  auto operator<=>(const ProfileSource &) const = default;
};

/// The content key of one engine job's result: jobs with equal keys
/// compute equal results. The engine adds the workload's name to the key
/// and compares Config by value.
struct JobKey {
  JobKind Kind = JobKind::Baseline;
  const Workload *W = nullptr;
  /// The run's input (Baseline, Profile, Feedback).
  DataSet DS = DataSet::Ref;
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;
  /// Profile jobs: whether the run simulated the memory system.
  bool WithMemorySystem = true;
  /// Feedback jobs: the profiles supplying the edges and the strides.
  ProfileSource Edges, Strides;
  /// Not owned; must outlive the memoFind/memoRecord call.
  const PipelineConfig *Config = nullptr;
};

/// Schedules experiment jobs over a fixed-size thread pool. Reusable: each
/// run() executes the jobs added since the previous run().
class ExperimentEngine {
public:
  explicit ExperimentEngine(EngineOptions Opts = {});
  ~ExperimentEngine();

  unsigned threads() const { return Opts.Threads; }

  /// The session, or nullptr when Opts.Obs.Enabled is false.
  ObsSession *obs() const { return Session.get(); }

  /// The job body. \p JobObs is the job's private telemetry scope
  /// (nullptr when telemetry is off); pass it to Pipeline's
  /// external-session constructor.
  using JobFn = std::function<void(ObsSession *JobObs)>;

  /// Schedules \p Fn after \p Deps. Categories name job kinds in traces
  /// and reports ("run-job", "feedback-job", ...).
  JobId addJob(std::string Name, std::string Category, JobFn Fn,
               std::vector<JobId> Deps = {});

  /// Executes all pending jobs, folds job telemetry into the session, and
  /// resets the graph for the next wave. If any job threw, rethrows the
  /// first failure (in JobId order) after the fold; jobs downstream of a
  /// failure are skipped, all others still run.
  void run();

  /// Outcomes of the most recent run(), indexed by the JobIds it drained.
  const std::vector<JobOutcome> &lastOutcomes() const { return Outcomes; }

  /// Scheduler accounting accumulated over every drain of this engine
  /// (high-water marks maxed, counts summed).
  const SweepSchedulerStats &schedStats() const { return SchedStats; }

  /// Builds the "sprof.sweep_report/1" document over every job this
  /// engine's session recorded. Requires an active session (Obs.Enabled).
  JsonValue sweepReport(size_t StragglerTopN = 5) const;

  /// The flight recorder, or nullptr unless ObsConfig::FlightRecorder
  /// armed it. Independent of Obs.Enabled: the black box records nothing
  /// that feeds back into results, so it can fly on untelemetered sweeps.
  FlightRecorder *flightRecorder() const { return Recorder.get(); }

  /// Writes session artifacts (Chrome trace, sweep report) per the
  /// session config.
  bool writeArtifacts() const;

  /// The result memo (docs/ENGINE.md "Result memo"): the result recorded
  /// under \p K, or nullptr. With \p AnyMemorySystem a Profile key also
  /// matches a run with the other memory-system flag; pass it only when
  /// reading the profile's edges, strides and stride counters, which do
  /// not depend on the memory system, never its cycle or Mem stats.
  /// Counts engine.memo_hits / engine.memo_misses when telemetry is on.
  ///
  /// memoFind and memoRecord run on the caller's thread, outside run();
  /// jobs never touch the memo. Every entry is dropped once
  /// ProgramCache::global().clear() (the cold-start reset) has run.
  std::shared_ptr<const void> memoFind(const JobKey &K,
                                       bool AnyMemorySystem = false);

  /// Records \p Result, of the type K.Kind names, under \p K.
  void memoRecord(const JobKey &K, std::shared_ptr<const void> Result);

private:
  struct ResultMemo;

  EngineOptions Opts;
  std::unique_ptr<ObsSession> Session;
  std::unique_ptr<FlightRecorder> Recorder;
  SweepSchedulerStats SchedStats;
  JobGraph Graph;
  /// One slot per pending job; the job's wrapper fills it at job start.
  /// Preallocated in addJob so worker threads never resize the vector.
  std::vector<std::unique_ptr<ObsSession>> JobObs;
  std::vector<JobOutcome> Outcomes;
  /// Allocated by the first memoRecord, so construction stays free.
  std::unique_ptr<ResultMemo> Memo;
};

} // namespace sprof

#endif // SPROF_DRIVER_ENGINE_H
