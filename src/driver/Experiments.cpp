//===- driver/Experiments.cpp - Shared experiment helpers ------------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/Experiments.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "obs/Report.h"
#include "support/Stats.h"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

using namespace sprof;

namespace {

/// Both loop populations of one workload. One naive-all reference profile
/// classifies both, so one Population job serves Figures 18 and 19.
struct PopulationRows {
  PopulationRow OutLoop, InLoop;
};

/// classifyLoadPopulation body, parameterized over the telemetry scope so
/// engine jobs can run it against their job session.
PopulationRows classifyPopulationImpl(const Workload &W,
                                      const PipelineConfig &Config,
                                      ObsSession *Obs) {
  Pipeline P(W, Config, Obs);
  // Naive-all profiles every load; run on the reference input so the
  // population weights match the performance runs.
  ProfileRunResult PR = P.runProfile(ProfilingMethod::NaiveAll, DataSet::Ref,
                                     /*WithMemorySystem=*/false);

  // In-loop classification per site on the original module.
  Program Prog = W.build({DataSet::Ref, Config.WorkloadSeedOffset});
  std::vector<SiteLocation> Sites = Prog.M.locateLoadSites();
  std::vector<bool> SiteInLoop(Prog.M.NumLoadSites, false);
  for (uint32_t FI = 0; FI != Prog.M.Functions.size(); ++FI) {
    const Function &F = Prog.M.Functions[FI];
    DomTree DT = DomTree::forward(F);
    LoopInfo LI(F, DT);
    for (uint32_t Site = 0; Site != Prog.M.NumLoadSites; ++Site)
      if (Sites[Site].Func == FI)
        SiteInLoop[Site] = LI.isInLoop(Sites[Site].Block);
  }

  PopulationRows Rows;
  for (bool InLoopWanted : {false, true}) {
    PopulationRow &Row = InLoopWanted ? Rows.InLoop : Rows.OutLoop;
    Row.Bench = W.info().Name;
    uint64_t Total = 0;
    uint64_t ByClass[4] = {0, 0, 0, 0}; // None, SSST, PMST, WSST
    for (uint32_t Site = 0; Site != Prog.M.NumLoadSites; ++Site) {
      uint64_t Refs = PR.Stats.SiteCounts[Site];
      Total += Refs;
      if (SiteInLoop[Site] != InLoopWanted)
        continue;
      StrideClass C =
          classifyStrideSummary(PR.Strides.site(Site), Config.Classifier);
      ByClass[static_cast<unsigned>(C)] += Refs;
    }
    Row.NonePct = percent(static_cast<double>(ByClass[0]),
                          static_cast<double>(Total));
    Row.SsstPct = percent(static_cast<double>(ByClass[1]),
                          static_cast<double>(Total));
    Row.PmstPct = percent(static_cast<double>(ByClass[2]),
                          static_cast<double>(Total));
    Row.WsstPct = percent(static_cast<double>(ByClass[3]),
                          static_cast<double>(Total));
  }
  return Rows;
}

/// One suite call's jobs, routed through the engine's result memo
/// (docs/ENGINE.md "Result memo"). A job whose result the memo holds is
/// not scheduled; its result is shared from the memo. Memo reads happen
/// as jobs are requested and writes in run(), both on the caller's
/// thread; a running job only fills its own result slot.
class SuiteJobs {
public:
  /// A requested job: its key, its result (complete once run() returns),
  /// and the engine job dependents must wait on (empty on a memo hit).
  template <class T> struct Job {
    JobKey Key;
    std::shared_ptr<const T> Result;
    std::vector<JobId> Ids;
  };
  using ProfileJob = Job<ProfileRunResult>;

  SuiteJobs(ExperimentEngine &Engine, const PipelineConfig &Config)
      : Engine(Engine), Config(Config),
        // Capture writes a trace file per profile run, a side effect a
        // memo hit would skip.
        UseMemo(Config.TraceCapturePath.empty()) {}

  Job<RunStats> baseline(const Workload &W, DataSet DS) {
    JobKey K = key(JobKind::Baseline, W, DS);
    return get<RunStats>(
        K, /*AnyMemorySystem=*/false,
        "baseline:" + W.info().Name + "/" + dataSetName(DS), "baseline-job",
        [&W, &C = Config, DS](ObsSession *JobObs) {
          return Pipeline(W, C, JobObs).runBaseline(DS);
        });
  }

  /// \p ProfileOnly: the caller reads only the profile (edges, strides,
  /// stride counters), not the run's stats, so a memoized run with either
  /// memory-system flag serves.
  ProfileJob profile(const Workload &W, ProfilingMethod M, DataSet DS,
                     bool WithMemorySystem, bool ProfileOnly = false) {
    JobKey K = key(JobKind::Profile, W, DS);
    K.Method = M;
    K.WithMemorySystem = WithMemorySystem;
    return get<ProfileRunResult>(
        K, ProfileOnly,
        "profile:" + W.info().Name + "/" + profilingMethodName(M) + "/" +
            dataSetName(DS),
        "run-job",
        [&W, &C = Config, M, DS, WithMemorySystem](ObsSession *JobObs) {
          return Pipeline(W, C, JobObs).runProfile(M, DS, WithMemorySystem);
        });
  }

  /// A timed reference run prefetched from \p Edges' edge profile and
  /// \p Strides' stride profile. \p Tag names the engine job.
  Job<TimedRunResult> feedback(const Workload &W, const std::string &Tag,
                               const ProfileJob &Edges,
                               const ProfileJob &Strides) {
    JobKey K = key(JobKind::Feedback, W, DataSet::Ref);
    K.Edges = {Edges.Key.DS, Edges.Key.Method};
    K.Strides = {Strides.Key.DS, Strides.Key.Method};
    std::vector<JobId> Deps = Edges.Ids;
    if (Strides.Ids != Edges.Ids)
      Deps.insert(Deps.end(), Strides.Ids.begin(), Strides.Ids.end());
    return get<TimedRunResult>(
        K, /*AnyMemorySystem=*/false, "feedback:" + Tag, "feedback-job",
        [&W, &C = Config, E = Edges.Result,
         S = Strides.Result](ObsSession *JobObs) {
          return Pipeline(W, C, JobObs).runPrefetched(DataSet::Ref, E->Edges,
                                                      S->Strides);
        },
        std::move(Deps));
  }

  Job<PopulationRows> population(const Workload &W) {
    JobKey K = key(JobKind::Population, W, DataSet::Ref);
    K.Method = ProfilingMethod::NaiveAll;
    K.WithMemorySystem = false;
    return get<PopulationRows>(K, /*AnyMemorySystem=*/false,
                               "classify:" + W.info().Name, "run-job",
                               [&W, &C = Config](ObsSession *JobObs) {
                                 return classifyPopulationImpl(W, C, JobObs);
                               });
  }

  /// Runs the scheduled jobs and records each one that finished Ok, also
  /// when run() rethrows a failure.
  void run() {
    try {
      Engine.run();
    } catch (...) {
      record();
      throw;
    }
    record();
  }

private:
  struct PendingJob {
    JobKey Key;
    JobId Id;
    std::shared_ptr<const void> Result;
  };

  JobKey key(JobKind Kind, const Workload &W, DataSet DS) const {
    JobKey K;
    K.Kind = Kind;
    K.W = &W;
    K.DS = DS;
    K.Config = &Config;
    return K;
  }

  template <class T, class Fn>
  Job<T> get(const JobKey &K, bool AnyMemorySystem, std::string Name,
             const char *Category, Fn Body, std::vector<JobId> Deps = {}) {
    if (UseMemo)
      if (std::shared_ptr<const void> Hit = Engine.memoFind(K, AnyMemorySystem))
        return {K, std::static_pointer_cast<const T>(std::move(Hit)), {}};
    auto Out = std::make_shared<T>();
    JobId Id = Engine.addJob(
        std::move(Name), Category,
        [Out, Body = std::move(Body)](ObsSession *JobObs) {
          *Out = Body(JobObs);
        },
        std::move(Deps));
    if (UseMemo)
      Pending.push_back({K, Id, Out});
    return {K, Out, {Id}};
  }

  void record() {
    const std::vector<JobOutcome> &Outcomes = Engine.lastOutcomes();
    for (const PendingJob &S : Pending)
      if (S.Id < Outcomes.size() && Outcomes[S.Id].Ok)
        Engine.memoRecord(S.Key, S.Result);
  }

  ExperimentEngine &Engine;
  const PipelineConfig &Config;
  const bool UseMemo;
  std::vector<PendingJob> Pending;
};

} // namespace

std::vector<const Workload *> sprof::workloadPointers(
    const std::vector<std::unique_ptr<Workload>> &Suite) {
  std::vector<const Workload *> Ptrs;
  Ptrs.reserve(Suite.size());
  for (const auto &W : Suite)
    Ptrs.push_back(W.get());
  return Ptrs;
}

std::vector<BenchMeasurement>
sprof::measureSuite(ExperimentEngine &Engine,
                    const std::vector<const Workload *> &Workloads,
                    const PipelineConfig &Config,
                    const std::vector<ProfilingMethod> &Methods) {
  SuiteJobs Jobs(Engine, Config);
  struct Row {
    SuiteJobs::Job<RunStats> BaselineRef;
    SuiteJobs::ProfileJob EdgeOnlyTrain;
    /// Per method: the train profile and the prefetched ref run it feeds.
    std::vector<std::pair<SuiteJobs::ProfileJob,
                          SuiteJobs::Job<TimedRunResult>>> Methods;
  };
  std::vector<Row> Rows(Workloads.size());
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload &W = *Workloads[WI];
    Row &R = Rows[WI];
    R.BaselineRef = Jobs.baseline(W, DataSet::Ref);
    R.EdgeOnlyTrain = Jobs.profile(W, ProfilingMethod::EdgeOnly,
                                   DataSet::Train, /*WithMemorySystem=*/true);
    for (ProfilingMethod M : Methods) {
      SuiteJobs::ProfileJob Profile =
          Jobs.profile(W, M, DataSet::Train, /*WithMemorySystem=*/true);
      std::string Tag =
          W.info().Name + "/" + profilingMethodName(M) + "/train";
      R.Methods.emplace_back(Profile,
                             Jobs.feedback(W, Tag, Profile, Profile));
    }
  }

  Jobs.run();

  std::vector<BenchMeasurement> Results(Workloads.size());
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Row &R = Rows[WI];
    BenchMeasurement &BM = Results[WI];
    BM.Name = Workloads[WI]->info().Name;
    BM.BaselineRefCycles = R.BaselineRef.Result->Cycles;
    BM.EdgeOnlyTrainCycles = R.EdgeOnlyTrain.Result->Stats.Cycles;
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      const ProfileRunResult &PR = *R.Methods[MI].first.Result;
      const TimedRunResult &TR = *R.Methods[MI].second.Result;
      MethodMeasurement &MM = BM.Methods[Methods[MI]];
      MM.ProfiledCycles = PR.Stats.Cycles;
      MM.StrideInvocations = PR.StrideInvocations;
      MM.StrideProcessed = PR.StrideProcessed;
      MM.LfuCalls = PR.LfuCalls;
      MM.TrainLoadRefs = PR.Stats.LoadRefs;
      MM.Prefetches = TR.Prefetches;
      MM.PrefetchedRefCycles = TR.Stats.Cycles;
      MM.RefMemory = TR.Stats.Mem;
      if (MM.PrefetchedRefCycles != 0)
        MM.Speedup = static_cast<double>(BM.BaselineRefCycles) /
                     static_cast<double>(MM.PrefetchedRefCycles);
    }
  }
  return Results;
}

std::vector<PopulationRow> sprof::classifySuitePopulation(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    bool InLoopWanted, const PipelineConfig &Config) {
  SuiteJobs Jobs(Engine, Config);
  std::vector<SuiteJobs::Job<PopulationRows>> Rows;
  Rows.reserve(Workloads.size());
  for (const Workload *W : Workloads)
    Rows.push_back(Jobs.population(*W));

  Jobs.run();

  std::vector<PopulationRow> Results;
  Results.reserve(Workloads.size());
  for (const SuiteJobs::Job<PopulationRows> &R : Rows)
    Results.push_back(InLoopWanted ? R.Result->InLoop : R.Result->OutLoop);
  return Results;
}

std::vector<SensitivityMeasurement> sprof::measureSuiteSensitivity(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    const PipelineConfig &Config) {
  SuiteJobs Jobs(Engine, Config);
  struct Row {
    SuiteJobs::Job<RunStats> BaselineRef;
    /// The Figure 23-25 binaries: train, ref, er-st, et-sr.
    std::vector<SuiteJobs::Job<TimedRunResult>> Combos;
  };
  std::vector<Row> Rows(Workloads.size());
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload &W = *Workloads[WI];
    const std::string Name = W.info().Name;
    Row &R = Rows[WI];
    R.BaselineRef = Jobs.baseline(W, DataSet::Ref);
    // Only the profiles feed the combos, so a profile run with the memory
    // system on (Figure 16's) serves.
    SuiteJobs::ProfileJob Train =
        Jobs.profile(W, ProfilingMethod::SampleEdgeCheck, DataSet::Train,
                     /*WithMemorySystem=*/false, /*ProfileOnly=*/true);
    SuiteJobs::ProfileJob Ref =
        Jobs.profile(W, ProfilingMethod::SampleEdgeCheck, DataSet::Ref,
                     /*WithMemorySystem=*/false, /*ProfileOnly=*/true);
    // Every edge × stride profile pairing, each timed on the reference
    // input.
    R.Combos.push_back(Jobs.feedback(W, Name + "/train", Train, Train));
    R.Combos.push_back(Jobs.feedback(W, Name + "/ref", Ref, Ref));
    R.Combos.push_back(
        Jobs.feedback(W, Name + "/edge-ref.stride-train", Ref, Train));
    R.Combos.push_back(
        Jobs.feedback(W, Name + "/edge-train.stride-ref", Train, Ref));
  }

  Jobs.run();

  std::vector<SensitivityMeasurement> Results(Workloads.size());
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Row &R = Rows[WI];
    const uint64_t BaseCycles = R.BaselineRef.Result->Cycles;
    auto Ratio = [&](unsigned Combo) {
      const uint64_t Cycles = R.Combos[Combo].Result->Stats.Cycles;
      return Cycles ? static_cast<double>(BaseCycles) /
                          static_cast<double>(Cycles)
                    : 1.0;
    };
    Results[WI].Name = Workloads[WI]->info().Name;
    Results[WI].Train = Ratio(0);
    Results[WI].Ref = Ratio(1);
    Results[WI].EdgeRefStrideTrain = Ratio(2);
    Results[WI].EdgeTrainStrideRef = Ratio(3);
  }
  return Results;
}

std::vector<BaselineMeasurement> sprof::measureSuiteBaselines(
    ExperimentEngine &Engine, const std::vector<const Workload *> &Workloads,
    const PipelineConfig &Config) {
  SuiteJobs Jobs(Engine, Config);
  std::vector<std::pair<SuiteJobs::Job<RunStats>, SuiteJobs::Job<RunStats>>>
      Runs;
  Runs.reserve(Workloads.size());
  for (const Workload *W : Workloads)
    Runs.emplace_back(Jobs.baseline(*W, DataSet::Train),
                      Jobs.baseline(*W, DataSet::Ref));

  Jobs.run();

  std::vector<BaselineMeasurement> Results(Workloads.size());
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    Results[WI].Info = Workloads[WI]->info();
    Results[WI].Train = *Runs[WI].first.Result;
    Results[WI].Ref = *Runs[WI].second.Result;
  }
  return Results;
}

JsonValue sprof::methodMeasurementToJson(const MethodMeasurement &M) {
  JsonValue J = JsonValue::object();
  J.set("speedup", M.Speedup);
  J.set("profiled_cycles", M.ProfiledCycles);
  J.set("stride_invocations", M.StrideInvocations);
  J.set("stride_processed", M.StrideProcessed);
  J.set("lfu_calls", M.LfuCalls);
  J.set("train_load_refs", M.TrainLoadRefs);
  J.set("prefetched_ref_cycles", M.PrefetchedRefCycles);
  JsonValue P = JsonValue::object();
  P.set("ssst", M.Prefetches.SsstPrefetches)
      .set("pmst", M.Prefetches.PmstPrefetches)
      .set("wsst", M.Prefetches.WsstPrefetches)
      .set("out_loop", M.Prefetches.OutLoopPrefetches)
      .set("dependent", M.Prefetches.DependentPrefetches)
      .set("instructions_added", M.Prefetches.InstructionsAdded);
  J.set("prefetches", std::move(P));
  // Cache/prefetch accounting of the prefetched ref run, so regression
  // gates can track prefetch usefulness without re-running the bench.
  J.set("ref_memory", memoryStatsToJson(M.RefMemory));
  return J;
}

JsonValue sprof::benchMeasurementToJson(const BenchMeasurement &BM) {
  JsonValue J = JsonValue::object();
  J.set("name", BM.Name);
  J.set("baseline_ref_cycles", BM.BaselineRefCycles);
  J.set("edge_only_train_cycles", BM.EdgeOnlyTrainCycles);
  JsonValue Methods = JsonValue::object();
  for (const auto &[M, MM] : BM.Methods)
    Methods.set(profilingMethodName(M), methodMeasurementToJson(MM));
  J.set("methods", std::move(Methods));
  return J;
}

JsonValue sprof::baselineMeasurementToJson(const BaselineMeasurement &BM) {
  JsonValue J = JsonValue::object();
  J.set("name", BM.Info.Name);
  J.set("lang", BM.Info.Lang);
  J.set("train", runStatsToJson(BM.Train));
  J.set("ref", runStatsToJson(BM.Ref));
  return J;
}

JsonValue sprof::populationRowToJson(const PopulationRow &R) {
  JsonValue J = JsonValue::object();
  J.set("name", R.Bench);
  J.set("ssst_pct", R.SsstPct);
  J.set("pmst_pct", R.PmstPct);
  J.set("wsst_pct", R.WsstPct);
  J.set("none_pct", R.NonePct);
  return J;
}

JsonValue sprof::sensitivityMeasurementToJson(
    const SensitivityMeasurement &M) {
  JsonValue J = JsonValue::object();
  J.set("name", M.Name);
  J.set("train", M.Train);
  J.set("ref", M.Ref);
  J.set("edge_ref_stride_train", M.EdgeRefStrideTrain);
  J.set("edge_train_stride_ref", M.EdgeTrainStrideRef);
  return J;
}

namespace {

/// Writes {"schema", "figure", \p Key: \p Body} to \p Path.
bool writeReport(const std::string &Path, const std::string &Figure,
                 const char *Key, JsonValue Body) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "sprof.bench_report/1");
  Root.set("figure", Figure);
  Root.set(Key, std::move(Body));
  if (!writeJsonFile(Path, Root)) {
    std::cerr << "error: could not write bench report to " << Path << "\n";
    return false;
  }
  std::cerr << "bench report written to " << Path << "\n";
  return true;
}

} // namespace

bool sprof::writeBenchRows(const std::string &Path,
                           const std::string &Figure, JsonValue Rows) {
  return writeReport(Path, Figure, "rows", std::move(Rows));
}

bool sprof::writeBenchReport(
    const std::string &Path, const std::string &Figure,
    const std::vector<BenchMeasurement> &Measurements) {
  JsonValue Benchmarks = JsonValue::array();
  for (const BenchMeasurement &BM : Measurements)
    Benchmarks.push(benchMeasurementToJson(BM));
  return writeReport(Path, Figure, "benchmarks", std::move(Benchmarks));
}

int sprof::emitBenchReport(const std::optional<std::string> &Path,
                           const std::string &Figure, JsonValue Rows) {
  return Path && !writeBenchRows(*Path, Figure, std::move(Rows)) ? 1 : 0;
}

bool sprof::parseBenchCount(std::string_view Text, uint64_t Min, uint64_t Max,
                            uint64_t &Out) {
  uint64_t N = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, N);
  if (Ec != std::errc() || Ptr != End || N < Min || N > Max)
    return false;
  Out = N;
  return true;
}

bool sprof::parseBenchCli(
    int Argc, char **Argv, BenchCli &Cli,
    const std::function<bool(std::string_view)> &Extra) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.starts_with("--threads=")) {
      uint64_t N = 0;
      if (!parseBenchCount(Arg.substr(10), 1, 1024, N))
        return false;
      Cli.Threads = static_cast<unsigned>(N);
    } else if (Arg.starts_with("--json=") && Arg.size() > 7) {
      Cli.ReportPath = std::string(Arg.substr(7));
    } else if (Arg == "--no-json") {
      Cli.ReportPath = std::nullopt;
    } else if (!Extra || !Extra(Arg)) {
      return false;
    }
  }
  return true;
}
