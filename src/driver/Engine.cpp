//===- driver/Engine.cpp - Parallel experiment engine ----------------------===//
//
// Part of the StrideProf project (see Engine.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"

#include "interp/ProgramCache.h"
#include "obs/FlightRecorder.h"
#include "obs/SelfProfiler.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

using namespace sprof;

ExperimentEngine::ExperimentEngine(EngineOptions Opts)
    : Opts(std::move(Opts)) {
  if (this->Opts.Threads == 0)
    this->Opts.Threads = 1;
  if (this->Opts.Obs.Enabled)
    Session = std::make_unique<ObsSession>(this->Opts.Obs);
  if (this->Opts.Obs.FlightRecorder) {
    Recorder = std::make_unique<FlightRecorder>(this->Opts.Threads,
                                                /*RingSize=*/64);
    Recorder->installSignalDump(this->Opts.Obs.FlightRecorderDumpPath);
  }
}

/// Results keyed by JobKey, with the workload's name added and the config
/// replaced by its index among the distinct configs seen.
struct ExperimentEngine::ResultMemo {
  struct Key {
    JobKind Kind;
    /// The workload's address, as an integer so the map's ordering is
    /// defined for unrelated objects.
    uintptr_t W;
    std::string Name;
    DataSet DS;
    ProfilingMethod Method;
    bool WithMemorySystem;
    ProfileSource Edges, Strides;
    size_t Config;

    auto operator<=>(const Key &) const = default;
  };

  /// ProgramCache::global().generation() when the memo was created.
  uint64_t Generation = 0;
  /// Distinct configs in first-seen order. A suite call uses one config,
  /// so this stays a handful long.
  std::vector<PipelineConfig> Configs;
  std::map<Key, std::shared_ptr<const void>> Results;

  /// Index of \p C in Configs; Configs.size() when absent.
  size_t configIndex(const PipelineConfig &C) const {
    return static_cast<size_t>(std::find(Configs.begin(), Configs.end(), C) -
                               Configs.begin());
  }

  static Key key(const JobKey &K, size_t Config) {
    return {K.Kind, reinterpret_cast<uintptr_t>(K.W), K.W->info().Name,
            K.DS, K.Method, K.WithMemorySystem, K.Edges, K.Strides, Config};
  }
};

ExperimentEngine::~ExperimentEngine() = default;

std::shared_ptr<const void> ExperimentEngine::memoFind(const JobKey &K,
                                                       bool AnyMemorySystem) {
  if (Memo && Memo->Generation != ProgramCache::global().generation())
    Memo.reset();
  std::shared_ptr<const void> Found;
  if (Memo) {
    const size_t Config = Memo->configIndex(*K.Config);
    if (Config != Memo->Configs.size()) {
      ResultMemo::Key MK = ResultMemo::key(K, Config);
      auto It = Memo->Results.find(MK);
      if (It == Memo->Results.end() && AnyMemorySystem &&
          K.Kind == JobKind::Profile) {
        MK.WithMemorySystem = !MK.WithMemorySystem;
        It = Memo->Results.find(MK);
      }
      if (It != Memo->Results.end())
        Found = It->second;
    }
  }
  if (Session && Session->config().CollectMetrics)
    Session->registry()
        .counter(Found ? "engine.memo_hits" : "engine.memo_misses")
        .inc();
  return Found;
}

void ExperimentEngine::memoRecord(const JobKey &K,
                                  std::shared_ptr<const void> Result) {
  const uint64_t Generation = ProgramCache::global().generation();
  if (!Memo || Memo->Generation != Generation) {
    Memo = std::make_unique<ResultMemo>();
    Memo->Generation = Generation;
  }
  const size_t Config = Memo->configIndex(*K.Config);
  if (Config == Memo->Configs.size())
    Memo->Configs.push_back(*K.Config);
  Memo->Results.insert_or_assign(ResultMemo::key(K, Config),
                                 std::move(Result));
}

JobId ExperimentEngine::addJob(std::string Name, std::string Category,
                               JobFn Fn, std::vector<JobId> Deps) {
  // One slot per job, indexed by JobId. Capture the index, not an element
  // pointer: later addJob calls may reallocate the vector, and by the time
  // jobs run no further push_back can happen, so JobObs[Index] is stable.
  JobObs.push_back(nullptr);
  const size_t Index = JobObs.size() - 1;
  ObsSession *S = Session.get();
  // The flight-recorder wrapper needs the job's name after Name moves
  // into the graph node; two small string copies per addJob, not per run.
  std::string FRName = Recorder ? Name : std::string();
  std::string FRDetail = Recorder ? Category : std::string();
  return Graph.add(
      std::move(Name), std::move(Category),
      [this, S, Index, FRName = std::move(FRName),
       FRDetail = std::move(FRDetail),
       Fn = std::move(Fn)](uint32_t Worker) {
        FlightRecorder *FR = Recorder.get();
        if (FR) {
          // Bind the worker thread to its lane so pipeline phase spans
          // inside the job land in the black box as breadcrumbs.
          FR->bindThread(Worker);
          FR->jobStart(Worker, FRName.c_str(), FRDetail.c_str());
        }
        ObsSession *Scope = nullptr;
        if (S) {
          JobObs[Index] = std::make_unique<ObsSession>(S->jobConfig());
          Scope = JobObs[Index].get();
        }
        try {
          Fn(Scope);
        } catch (...) {
          if (FR) {
            FR->jobFinish(Worker, FRName.c_str(), /*Ok=*/false);
            FlightRecorder::unbindThread();
          }
          throw;
        }
        if (FR) {
          FR->jobFinish(Worker, FRName.c_str(), /*Ok=*/true);
          FlightRecorder::unbindThread();
        }
      },
      std::move(Deps));
}

void ExperimentEngine::run() {
  const uint64_t SessionStartUs = Session ? Session->trace().nowUs() : 0;
  if (Recorder && Opts.WatchdogSec != 0)
    Recorder->startWatchdog(Opts.WatchdogSec,
                            Opts.Obs.FlightRecorderDumpPath);
  Outcomes = Graph.run(Opts.Threads);
  if (Recorder)
    Recorder->stopWatchdog();

  // Accumulate scheduler accounting across drains: high-water marks max,
  // counts sum, so one engine's sweep report covers every wave it ran.
  const JobSchedStats &GS = Graph.schedStats();
  if (GS.QueueDepthHighWater > SchedStats.QueueDepthHighWater)
    SchedStats.QueueDepthHighWater = GS.QueueDepthHighWater;
  SchedStats.WakeupRetries += GS.DequeueRetries;
  uint64_t Started = 0, Failed = 0, Skipped = 0;
  for (const JobOutcome &O : Outcomes) {
    if (!O.Ran)
      ++Skipped;
    else if (!O.Ok)
      ++Failed;
    if (O.Ran)
      ++Started;
  }
  SchedStats.JobsSkipped += Skipped;

  // Fold per-job telemetry in JobId order so the session registry, the
  // trace, and the "jobs" array never depend on completion order. The
  // fold runs here, on one thread after the graph drained, so it needs no
  // synchronization; a failed job's partial metrics fold too.
  if (Session) {
    // Job records get session-wide ids: this drain's JobId 0 lands at
    // jobs().size(), so dependency edges stay valid across drains.
    const size_t Base = Session->jobs().size();
    for (JobId Id = 0; Id != Outcomes.size(); ++Id) {
      const JobOutcome &O = Outcomes[Id];
      const uint64_t StartUs = SessionStartUs + O.StartUs;
      JobRecord R;
      R.Id = Base + Id;
      R.Name = Graph.name(Id);
      R.Category = Graph.category(Id);
      for (JobId Dep : Graph.deps(Id))
        R.Deps.push_back(Base + Dep);
      R.ReadyUs = SessionStartUs + O.ReadyUs;
      R.StartUs = StartUs;
      R.DurationUs = O.DurationUs;
      R.Worker = O.Worker;
      R.Ok = O.Ok;
      if (!O.Ok)
        R.Error = O.Error;
      if (ObsSession *Scope = JobObs[Id].get()) {
        Session->registry().merge(Scope->registry());
        if (EngineSelfProfiler *SessionSP = Session->selfProfiler())
          if (const EngineSelfProfiler *JobSP = Scope->selfProfiler())
            SessionSP->merge(*JobSP);
        R.Metrics = Scope->registry();
        if (O.Ran) {
          Session->trace().appendCompletedSpan(R.Name, R.Category, StartUs,
                                               O.DurationUs, O.Worker,
                                               /*Depth=*/0);
          Session->trace().appendForeign(Scope->trace(), StartUs, O.Worker,
                                         /*DepthBase=*/1);
        }
      }
      // Causal arrows along the dependency edges: producer finish ->
      // consumer start, each on its worker's lane. Only edges whose both
      // ends actually ran make sense on the timeline.
      if (Session->config().CollectTrace && O.Ran) {
        for (JobId Dep : Graph.deps(Id)) {
          const JobOutcome &D = Outcomes[Dep];
          if (!D.Ran)
            continue;
          Session->trace().appendFlowEdge(
              Graph.name(Dep), SessionStartUs + D.StartUs + D.DurationUs,
              D.Worker, StartUs, O.Worker);
        }
      }
      Session->recordJob(std::move(R));
    }

    // Scheduler telemetry, recorded once per drain after the fold so the
    // values are identical whether the drain ran serial or threaded —
    // except the timing histograms and retry counter, which are
    // inherently wall-clock/schedule dependent (tests comparing
    // serial-vs-N-thread snapshots filter the engine.* namespace).
    if (Session->config().CollectMetrics) {
      MetricsRegistry &Reg = Session->registry();
      Reg.counter("engine.jobs.enqueued").inc(Outcomes.size());
      Reg.counter("engine.jobs.started").inc(Started);
      Reg.counter("engine.jobs.finished").inc(Started);
      Reg.counter("engine.jobs.failed").inc(Failed);
      Reg.counter("engine.jobs.skipped").inc(Skipped);
      Reg.counter("engine.sched.wakeup_retries").inc(GS.DequeueRetries);
      Reg.gauge("engine.sched.queue_depth_high_water")
          .set(static_cast<double>(SchedStats.QueueDepthHighWater));
      Histogram &QueueWait = Reg.histogram("engine.job.queue_wait_us");
      Histogram &RunTime = Reg.histogram("engine.job.run_us");
      for (const JobOutcome &O : Outcomes) {
        if (!O.Ran)
          continue;
        QueueWait.record(O.StartUs > O.ReadyUs ? O.StartUs - O.ReadyUs
                                               : 0);
        RunTime.record(O.DurationUs);
      }
    }
  }

  // Reset for the next wave before any rethrow, so a caught failure leaves
  // the engine usable.
  Graph = JobGraph();
  JobObs.clear();

  for (const JobOutcome &O : Outcomes)
    if (O.Exception)
      std::rethrow_exception(O.Exception);
}

JsonValue ExperimentEngine::sweepReport(size_t StragglerTopN) const {
  return buildSweepReport(Session ? Session->jobs()
                                  : std::vector<JobRecord>{},
                          Opts.Threads, SchedStats, /*WallUs=*/0,
                          StragglerTopN);
}

bool ExperimentEngine::writeArtifacts() const {
  bool Ok = Session ? Session->writeArtifacts() : true;
  if (Session && !Opts.Obs.SweepReportOutputPath.empty())
    Ok &= writeJsonFile(Opts.Obs.SweepReportOutputPath, sweepReport());
  return Ok;
}
