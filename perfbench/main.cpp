//===- perfbench/main.cpp - Measuring half of the repository benchmark ----===//
//
// Part of the StrideProf project (see src/driver/Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs benchmark workloads against the StrideProf libraries and writes
/// the raw samples to <work>/result-<workload>.json. perfbench/run.py
/// builds this program, turns the samples into medians and per-layer
/// metrics, checks the figure documents against their recorded digests,
/// and prints the result.
///
/// Workloads:
///   repro      every library call the Figure 15-25 bench mains make, in
///              figure order and with the same arguments, on one
///              ExperimentEngine; each pass writes the eleven
///              sprof.bench_report/1 documents to <work>/<workload>/pass<N>.
///   replay-4t  replayTraceFile (Threads=4) of a generated 10M-load
///              stream-mixed trace, checked against StrideProfiler::consume
///              run directly on the generator.
///   replay-1t  the same trace and check with Threads=1.
///
/// With --trace 1 the timed loop is replaced by the traced run: spans are
/// recorded around the benchmark's own calls into each module (never
/// inside src/) and written out at the end.
///
/// --setup-sample FILE writes one repro set-up measurement to FILE; the
/// repro workload starts this program that way for its set-up samples.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "driver/Experiments.h"
#include "driver/ParallelReplay.h"
#include "driver/TraceReplay.h"
#include "interp/ProgramCache.h"
#include "obs/Report.h"
#include "stream/SyntheticTrace.h"
#include "support/Stats.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>

using namespace sprof;
namespace fs = std::filesystem;

namespace {

//===-- Clocks ------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

const Clock::time_point ProcessStart = Clock::now();

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ProcessStart)
          .count());
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// User plus system CPU seconds of the whole process (all threads).
double cpuSeconds() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(RU.ru_utime) + Sec(RU.ru_stime);
}

double peakRssMiB() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

JsonValue toJson(const std::vector<double> &V) {
  JsonValue A = JsonValue::array();
  for (double X : V)
    A.push(X);
  return A;
}

/// Worker threads of the repro engine, the replay-4t replay and the
/// traced run's parallel stages.
constexpr unsigned Threads = 4;

EngineOptions engineOptions() {
  EngineOptions E;
  E.Threads = Threads;
  return E;
}

//===-- Spans -------------------------------------------------------------===//

/// One timed call. Parent is the innermost span open on the same thread
/// when this one began (0 for none). PairOf links a paired call (the same
/// Interpreter::run with the memory system or the profiler detached) to
/// the span of the full call it is subtracted from.
struct Span {
  uint64_t Id = 0, Parent = 0, PairOf = 0;
  const char *Name = "";
  uint64_t StartNs = 0, EndNs = 0;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
public:
  uint64_t nextId() { return ++LastId; }
  void add(const Span &S) {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back(S);
  }
  JsonValue toJson() const {
    JsonValue A = JsonValue::array();
    for (const Span &S : Spans) {
      JsonValue J = JsonValue::object();
      J.set("id", S.Id)
          .set("parent", S.Parent)
          .set("pair_of", S.PairOf)
          .set("name", S.Name)
          .set("start_ns", S.StartNs)
          .set("end_ns", S.EndNs);
      A.push(std::move(J));
    }
    return A;
  }

private:
  std::atomic<uint64_t> LastId{0};
  std::mutex Mu;
  std::vector<Span> Spans;
};

thread_local std::vector<uint64_t> OpenSpans;

/// Records one span for its lifetime; a no-op when Log is null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint64_t PairOf = 0) : Log(Log) {
    if (!Log)
      return;
    S.Id = Log->nextId();
    S.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
    S.PairOf = PairOf;
    S.Name = Name;
    OpenSpans.push_back(S.Id);
    S.StartNs = nowNs();
  }
  ~ScopedSpan() {
    if (!Log)
      return;
    S.EndNs = nowNs();
    OpenSpans.pop_back();
    Log->add(S);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return S.Id; }

private:
  SpanLog *Log;
  Span S;
};

//===-- The repro job set -------------------------------------------------===//

enum class JobKind { Baseline, Profile, Feedback, LoadMix, Population };

/// One engine job of the figure calls, described by what it computes. Two
/// jobs with the same key() compute the same result.
struct JobSpec {
  JobKind Kind = JobKind::Baseline;
  size_t W = 0;
  DataSet DS = DataSet::Ref;
  ProfilingMethod Method = ProfilingMethod::EdgeOnly;
  bool Mem = true;                            ///< Profile: memsys attached
  DataSet EdgeDS = DataSet::Train;            ///< Feedback: profile inputs
  DataSet StrideDS = DataSet::Train;

  /// The profile a Profile job produces, or the one a Feedback job reads
  /// its edges (\p Edges) or strides from. Profiles do not depend on the
  /// memory system, so the memsys flag is not part of this key.
  std::string profileKey(bool Edges) const {
    DataSet D = Kind == JobKind::Feedback ? (Edges ? EdgeDS : StrideDS) : DS;
    return std::to_string(W) + "|" + dataSetName(D) + "|" +
           profilingMethodName(Method);
  }

  /// (workload, input, method, config); the seed is the same for every
  /// job of a pass.
  std::string key(const std::vector<const Workload *> &Ws) const {
    static const char *const Kinds[] = {"baseline", "profile", "feedback",
                                        "loadmix", "population"};
    std::string K = Ws[W]->info().Name + "|" + dataSetName(DS) + "|" +
                    Kinds[static_cast<int>(Kind)] + "|";
    if (Kind == JobKind::Profile || Kind == JobKind::Population ||
        Kind == JobKind::Feedback)
      K += profilingMethodName(Method);
    if (Kind == JobKind::Profile)
      K += Mem ? "|memsys" : "|no-memsys";
    if (Kind == JobKind::Feedback)
      K += std::string("|edge.") + dataSetName(EdgeDS) + "|stride." +
           dataSetName(StrideDS);
    return K;
  }
};

JobSpec baselineJob(size_t W, DataSet DS) {
  JobSpec J;
  J.Kind = JobKind::Baseline;
  J.W = W;
  J.DS = DS;
  return J;
}

JobSpec profileJob(size_t W, DataSet DS, ProfilingMethod M, bool Mem) {
  JobSpec J;
  J.Kind = JobKind::Profile;
  J.W = W;
  J.DS = DS;
  J.Method = M;
  J.Mem = Mem;
  return J;
}

JobSpec feedbackJob(size_t W, ProfilingMethod M, DataSet EdgeDS,
                    DataSet StrideDS) {
  JobSpec J;
  J.Kind = JobKind::Feedback;
  J.W = W;
  J.DS = DataSet::Ref;
  J.Method = M;
  J.EdgeDS = EdgeDS;
  J.StrideDS = StrideDS;
  return J;
}

// The jobs each suite call adds at this commit, in the order
// Experiments.cpp (and the Figure 17 main) add them. They key the unique
// job set the traced run replays; the job counts and times come from the
// engine's outcomes, so a change to what the engine runs still shows.

std::vector<JobSpec> baselinesJobs(size_t NW) {
  std::vector<JobSpec> Jobs;
  for (size_t W = 0; W != NW; ++W) {
    Jobs.push_back(baselineJob(W, DataSet::Train));
    Jobs.push_back(baselineJob(W, DataSet::Ref));
  }
  return Jobs;
}

std::vector<JobSpec> measureSuiteJobs(size_t NW) {
  std::vector<JobSpec> Jobs;
  for (size_t W = 0; W != NW; ++W) {
    Jobs.push_back(baselineJob(W, DataSet::Ref));
    Jobs.push_back(
        profileJob(W, DataSet::Train, ProfilingMethod::EdgeOnly, true));
    for (ProfilingMethod M : paperStrideMethods()) {
      Jobs.push_back(profileJob(W, DataSet::Train, M, true));
      Jobs.push_back(feedbackJob(W, M, DataSet::Train, DataSet::Train));
    }
  }
  return Jobs;
}

std::vector<JobSpec> loadMixJobs(size_t NW) {
  std::vector<JobSpec> Jobs;
  for (size_t W = 0; W != NW; ++W) {
    JobSpec J;
    J.Kind = JobKind::LoadMix;
    J.W = W;
    Jobs.push_back(J);
  }
  return Jobs;
}

std::vector<JobSpec> populationJobs(size_t NW) {
  std::vector<JobSpec> Jobs;
  for (size_t W = 0; W != NW; ++W) {
    JobSpec J;
    J.Kind = JobKind::Population;
    J.W = W;
    J.Method = ProfilingMethod::NaiveAll;
    Jobs.push_back(J);
  }
  return Jobs;
}

std::vector<JobSpec> sensitivityJobs(size_t NW) {
  const ProfilingMethod SEC = ProfilingMethod::SampleEdgeCheck;
  const DataSet T = DataSet::Train, R = DataSet::Ref;
  std::vector<JobSpec> Jobs;
  for (size_t W = 0; W != NW; ++W) {
    Jobs.push_back(baselineJob(W, R));
    Jobs.push_back(profileJob(W, T, SEC, false));
    Jobs.push_back(profileJob(W, R, SEC, false));
    Jobs.push_back(feedbackJob(W, SEC, T, T));
    Jobs.push_back(feedbackJob(W, SEC, R, R));
    Jobs.push_back(feedbackJob(W, SEC, R, T));
    Jobs.push_back(feedbackJob(W, SEC, T, R));
  }
  return Jobs;
}

//===-- Figures -----------------------------------------------------------===//

/// What the eleven figure documents are rendered from.
struct FigureData {
  std::vector<BaselineMeasurement> Fig15;
  std::vector<BenchMeasurement> Fig16, Fig20, Fig21, Fig22;
  std::vector<double> Fig17; ///< in-loop share of ref loads, per workload
  std::vector<PopulationRow> Fig18, Fig19;
  std::vector<SensitivityMeasurement> Fig23, Fig24, Fig25;
};

/// One suite call of a figure pass: the jobs the call is known to add and
/// the outcomes of the jobs the engine ran for it.
struct SuiteCall {
  const char *Figure = "";
  std::vector<JobSpec> Jobs;
  std::vector<JobOutcome> Outcomes;
  double WallS = 0;
};

/// The Figure 17 main's job body, with the pass's seed offset. When
/// traced, also returns the run's instruction count in \p Instructions.
double loadMixShare(const Workload &W, uint64_t Offset, SpanLog *Log,
                    uint64_t *Instructions = nullptr) {
  Program Prog = [&] {
    ScopedSpan S(Log, "workloads.build");
    return W.build({DataSet::Ref, Offset});
  }();
  if (Log) {
    ScopedSpan S(Log, "interp.decode");
    ProgramCache::global().get(Prog.M);
  }
  Interpreter I(Prog.M, std::move(Prog.Memory));
  RunStats S = [&] {
    ScopedSpan Run(Log, "interp.run");
    return I.run();
  }();
  if (Instructions)
    *Instructions = S.Instructions;
  std::vector<SiteLocation> Sites = Prog.M.locateLoadSites();
  uint64_t InLoop = 0, OutLoop = 0;
  for (uint32_t FI = 0; FI != Prog.M.Functions.size(); ++FI) {
    const Function &F = Prog.M.Functions[FI];
    DomTree DT = DomTree::forward(F);
    LoopInfo LI(F, DT);
    for (uint32_t Site = 0; Site != Prog.M.NumLoadSites; ++Site) {
      if (Sites[Site].Func != FI)
        continue;
      if (LI.isInLoop(Sites[Site].Block))
        InLoop += S.SiteCounts[Site];
      else
        OutLoop += S.SiteCounts[Site];
    }
  }
  return percent(static_cast<double>(InLoop),
                 static_cast<double>(InLoop + OutLoop));
}

/// Makes the calls the Figure 15-25 mains make, in figure order, on one
/// engine. When \p Calls is set, every suite call's job list and engine
/// outcomes are appended to it.
FigureData runFigures(ExperimentEngine &Engine,
                      const std::vector<const Workload *> &Ws,
                      const PipelineConfig &Config,
                      std::vector<SuiteCall> *Calls) {
  const size_t NW = Ws.size();
  Clock::time_point T0;
  auto Begin = [&] { T0 = Clock::now(); };
  auto End = [&](const char *Figure, std::vector<JobSpec> Jobs) {
    if (Calls)
      Calls->push_back(
          {Figure, std::move(Jobs), Engine.lastOutcomes(), secondsSince(T0)});
  };

  FigureData D;
  Begin();
  D.Fig15 = measureSuiteBaselines(Engine, Ws, Config);
  End("15", baselinesJobs(NW));

  Begin();
  D.Fig16 = measureSuite(Engine, Ws, Config, paperStrideMethods());
  End("16", measureSuiteJobs(NW));

  Begin();
  D.Fig17.assign(NW, 0.0);
  for (size_t WI = 0; WI != NW; ++WI) {
    const Workload *W = Ws[WI];
    double *Share = &D.Fig17[WI];
    uint64_t Offset = Config.WorkloadSeedOffset;
    Engine.addJob("loadmix:" + W->info().Name, "run-job",
                  [W, Share, Offset](ObsSession *) {
                    *Share = loadMixShare(*W, Offset, nullptr);
                  });
  }
  Engine.run();
  End("17", loadMixJobs(NW));

  Begin();
  D.Fig18 = classifySuitePopulation(Engine, Ws, /*InLoopWanted=*/false,
                                    Config);
  End("18", populationJobs(NW));
  Begin();
  D.Fig19 = classifySuitePopulation(Engine, Ws, /*InLoopWanted=*/true,
                                    Config);
  End("19", populationJobs(NW));

  const std::pair<const char *, std::vector<BenchMeasurement> *> Repeats[] = {
      {"20", &D.Fig20}, {"21", &D.Fig21}, {"22", &D.Fig22}};
  for (const auto &[Figure, Out] : Repeats) {
    Begin();
    *Out = measureSuite(Engine, Ws, Config, paperStrideMethods());
    End(Figure, measureSuiteJobs(NW));
  }

  const std::pair<const char *, std::vector<SensitivityMeasurement> *>
      Sens[] = {{"23", &D.Fig23}, {"24", &D.Fig24}, {"25", &D.Fig25}};
  for (const auto &[Figure, Out] : Sens) {
    Begin();
    *Out = measureSuiteSensitivity(Engine, Ws, Config);
    End(Figure, sensitivityJobs(NW));
  }
  return D;
}

/// Writes the eleven documents exactly as the figure mains do. Adds the
/// bytes written to \p Bytes; false when any write failed.
bool writeFigures(const fs::path &Dir, const FigureData &D, uint64_t &Bytes) {
  fs::create_directories(Dir);
  bool Ok = true;
  auto Path = [&](const char *File) { return (Dir / File).string(); };
  auto Rows = [&](const char *File, const char *Figure, JsonValue R) {
    Ok = writeBenchRows(Path(File), Figure, std::move(R)) && Ok;
  };
  auto Suite = [&](const char *File, const char *Figure,
                   const std::vector<BenchMeasurement> &M) {
    Ok = writeBenchReport(Path(File), Figure, M) && Ok;
  };

  JsonValue R15 = JsonValue::array();
  for (const BaselineMeasurement &BM : D.Fig15)
    R15.push(baselineMeasurementToJson(BM));
  Rows("bench_fig15_workloads.json", "figure-15-workloads", std::move(R15));
  Suite("bench_fig16_speedup.json", "figure-16-speedup", D.Fig16);

  JsonValue R17 = JsonValue::array();
  for (size_t WI = 0; WI != D.Fig17.size(); ++WI) {
    JsonValue R = JsonValue::object();
    R.set("name", D.Fig15[WI].Info.Name);
    R.set("in_loop_pct", D.Fig17[WI]);
    R.set("out_loop_pct", 100.0 - D.Fig17[WI]);
    R17.push(std::move(R));
  }
  Rows("bench_fig17_loadmix.json", "figure-17-loadmix", std::move(R17));

  auto Population = [](const std::vector<PopulationRow> &Rs) {
    JsonValue A = JsonValue::array();
    for (const PopulationRow &R : Rs)
      A.push(populationRowToJson(R));
    return A;
  };
  Rows("bench_fig18_outloop_classes.json", "figure-18-outloop-classes",
       Population(D.Fig18));
  Rows("bench_fig19_inloop_classes.json", "figure-19-inloop-classes",
       Population(D.Fig19));

  Suite("bench_fig20_overhead.json", "figure-20-overhead", D.Fig20);
  Suite("bench_fig21_strideprof_rate.json", "figure-21-strideprof-rate",
        D.Fig21);
  Suite("bench_fig22_lfu_rate.json", "figure-22-lfu-rate", D.Fig22);

  auto Sensitivity = [](const std::vector<SensitivityMeasurement> &Ms) {
    JsonValue A = JsonValue::array();
    for (const SensitivityMeasurement &M : Ms)
      A.push(sensitivityMeasurementToJson(M));
    return A;
  };
  Rows("bench_fig23_train_vs_ref.json", "figure-23-train-vs-ref",
       Sensitivity(D.Fig23));
  Rows("bench_fig24_edge_sensitivity.json", "figure-24-edge-sensitivity",
       Sensitivity(D.Fig24));
  Rows("bench_fig25_stride_sensitivity.json", "figure-25-stride-sensitivity",
       Sensitivity(D.Fig25));

  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Bytes += E.file_size();
  return Ok;
}

//===-- Serial replay of the unique job set -------------------------------===//

/// Exact counts of the replayed job set; they must repeat across runs.
struct Counts {
  uint64_t Builds = 0, Instructions = 0, MemAccesses = 0, L1Misses = 0;
  uint64_t Invocations = 0, Processed = 0, LfuCalls = 0, Inserted = 0;

  Counts &operator+=(const Counts &O) {
    Builds += O.Builds;
    Instructions += O.Instructions;
    MemAccesses += O.MemAccesses;
    L1Misses += O.L1Misses;
    Invocations += O.Invocations;
    Processed += O.Processed;
    LfuCalls += O.LfuCalls;
    Inserted += O.Inserted;
    return *this;
  }
  JsonValue toJson() const {
    JsonValue J = JsonValue::object();
    J.set("builds", Builds)
        .set("instructions", Instructions)
        .set("memsys_accesses", MemAccesses)
        .set("l1_misses", L1Misses)
        .set("invocations", Invocations)
        .set("processed", Processed)
        .set("lfu_calls", LfuCalls)
        .set("inserted", Inserted);
    return J;
  }
};

struct JobResult {
  RunStats Stats; ///< the job's (last) timed interpreter run
  EdgeProfile Edges;
  StrideProfile Strides;
  uint64_t Invocations = 0, Processed = 0, LfuCalls = 0;
  PrefetchInsertionStats Prefetches;
  double InLoopShare = 0;
  PopulationRow Out, In;
  Counts C;
};

/// Replays the unique jobs as the calls Pipeline makes:
/// Workload::build -> instrumentModule -> Interpreter::run ->
/// StrideProfile::fromProfiler -> runFeedback -> insertPrefetches ->
/// Interpreter::run. With Paired set, every run with the memory system or
/// a profiler attached is repeated with it detached, for their self time.
/// Detaching the memory system also moves a profile run's strideProf
/// calls from per-event to batched delivery, so memsys self time of
/// memsys-on profile runs includes that difference.
class JobReplay {
public:
  JobReplay(const std::vector<const Workload *> &Ws,
            const PipelineConfig &Config, std::vector<JobSpec> Unique)
      : Ws(Ws), Config(Config), Jobs(std::move(Unique)),
        Results(Jobs.size()) {
    for (size_t I = 0; I != Jobs.size(); ++I) {
      ByKey[Jobs[I].key(Ws)] = I;
      if (Jobs[I].Kind == JobKind::Profile)
        ByProfile.emplace(Jobs[I].profileKey(false), I);
    }
  }

  /// Index of the job a Feedback job reads its edges or strides from.
  size_t source(const JobSpec &J, bool Edges) const {
    return ByProfile.at(J.profileKey(Edges));
  }

  /// Runs every job in order on this thread.
  void runSerial(SpanLog *Log, bool Paired) {
    for (size_t I = 0; I != Jobs.size(); ++I)
      runJob(I, Log, Paired);
  }

  /// Runs the jobs on \p Engine, each Feedback job after its sources.
  void runOnEngine(ExperimentEngine &Engine, SpanLog *Log) {
    std::vector<JobId> Ids(Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I) {
      std::vector<JobId> Deps;
      if (Jobs[I].Kind == JobKind::Feedback)
        Deps = {Ids[source(Jobs[I], true)], Ids[source(Jobs[I], false)]};
      Ids[I] = Engine.addJob(
          Jobs[I].key(Ws), "replay-job",
          [this, I, Log](ObsSession *) { runJob(I, Log, false); }, Deps);
    }
    Engine.run();
  }

  Counts totals() const {
    Counts C;
    for (const JobResult &R : Results)
      C += R.C;
    return C;
  }

  /// Assembles the figure data from the job results, as the suite calls
  /// do from their engine jobs.
  FigureData figures() const;

private:
  const JobResult &result(const JobSpec &J) const {
    return Results[ByKey.at(J.key(Ws))];
  }

  Program build(const Workload &W, DataSet DS, SpanLog *Log, Counts &C) {
    ScopedSpan S(Log, "workloads.build");
    ++C.Builds;
    return W.build({DS, Config.WorkloadSeedOffset});
  }

  /// Interpreter::run of \p Prog as Pipeline sets it up, plus the paired
  /// runs. Returns the stats and the counters of the full run.
  RunStats run(Program Prog, bool Mem, const StrideProfilerConfig *PC,
               StrideProfiler *Profiler, SpanLog *Log, bool Paired,
               std::vector<uint64_t> *CountersOut, Counts &C) {
    {
      // Decode (or find) the program once up front, so the full run and
      // its paired runs all start from the cached decoded form.
      ScopedSpan S(Log, "interp.decode");
      ProgramCache::global().get(Prog.M);
    }
    std::optional<Program> NoMem, NoProf;
    if (Paired && Mem)
      NoMem = Prog;
    if (Paired && Profiler)
      NoProf = Prog;

    Interpreter I(Prog.M, std::move(Prog.Memory), Config.Timing,
                  Config.Interp);
    MemoryHierarchy MH(Config.Memory);
    if (Mem)
      I.attachMemory(&MH);
    if (Profiler)
      I.attachProfiler(Profiler);
    uint64_t RunId = 0;
    RunStats Stats;
    {
      ScopedSpan S(Log, "interp.run");
      RunId = S.id();
      Stats = I.run();
    }
    if (CountersOut)
      *CountersOut = I.counters();
    C.Instructions += Stats.Instructions;
    if (Mem) {
      C.MemAccesses += Stats.Mem.DemandAccesses;
      if (!Stats.Mem.Levels.empty())
        C.L1Misses += Stats.Mem.Levels[0].Misses;
    }

    if (NoMem) {
      Interpreter P(NoMem->M, std::move(NoMem->Memory), Config.Timing,
                    Config.Interp);
      std::optional<StrideProfiler> Fresh;
      if (Profiler) {
        Fresh.emplace(NoMem->M.NumLoadSites, *PC);
        P.attachProfiler(&*Fresh);
      }
      ScopedSpan S(Log, "interp.run.no-memsys", RunId);
      P.run();
    }
    if (NoProf) {
      Interpreter P(NoProf->M, std::move(NoProf->Memory), Config.Timing,
                    Config.Interp);
      MemoryHierarchy PMH(Config.Memory);
      if (Mem)
        P.attachMemory(&PMH);
      ScopedSpan S(Log, "interp.run.no-profiler", RunId);
      P.run();
    }
    return Stats;
  }

  void runJob(size_t Index, SpanLog *Log, bool Paired);

  const std::vector<const Workload *> &Ws;
  const PipelineConfig &Config;
  std::vector<JobSpec> Jobs;
  std::vector<JobResult> Results;
  std::map<std::string, size_t> ByKey, ByProfile;
};

void JobReplay::runJob(size_t Index, SpanLog *Log, bool Paired) {
  const JobSpec &J = Jobs[Index];
  const Workload &W = *Ws[J.W];
  JobResult &R = Results[Index];
  ScopedSpan JobSpan(Log, "job");

  switch (J.Kind) {
  case JobKind::Baseline:
    R.Stats = run(build(W, J.DS, Log, R.C), /*Mem=*/true, nullptr, nullptr,
                  Log, Paired, nullptr, R.C);
    return;

  case JobKind::LoadMix: {
    // The run has neither the memory system nor a profiler attached, so
    // it has no paired runs.
    uint64_t Instructions = 0;
    ++R.C.Builds;
    R.InLoopShare =
        loadMixShare(W, Config.WorkloadSeedOffset, Log, &Instructions);
    R.C.Instructions += Instructions;
    return;
  }

  case JobKind::Profile:
  case JobKind::Population: {
    const bool Mem = J.Kind == JobKind::Profile && J.Mem;
    Program Prog = build(W, J.DS, Log, R.C);
    InstrumentationResult Instr = [&] {
      ScopedSpan S(Log, "instrument");
      return instrumentModule(Prog.M, J.Method, Config.Instrument);
    }();
    StrideProfilerConfig PC = Config.Profiler;
    PC.Sampling.Enabled = methodUsesSampling(J.Method);
    StrideProfiler Profiler(Prog.M.NumLoadSites, PC);
    std::vector<uint64_t> Counters;
    const size_t NumFuncs = Prog.M.Functions.size();
    R.Stats = run(std::move(Prog), Mem, &PC, &Profiler, Log, Paired,
                  &Counters, R.C);
    R.Edges = EdgeProfile(NumFuncs);
    for (uint32_t FI = 0; FI != NumFuncs; ++FI) {
      for (const auto &[E, CtrId] : Instr.EdgeCounters[FI])
        R.Edges.setFrequency(FI, E, Counters[CtrId]);
      if (Instr.EntryCounters[FI] != NoId)
        R.Edges.setEntryCount(FI, Counters[Instr.EntryCounters[FI]]);
    }
    {
      ScopedSpan S(Log, "profile.harvest");
      R.Strides = StrideProfile::fromProfiler(Profiler);
    }
    R.Invocations = Profiler.totalInvocations();
    R.Processed = Profiler.totalProcessed();
    R.LfuCalls = Profiler.totalLfuCalls();
    R.C.Invocations += R.Invocations;
    R.C.Processed += R.Processed;
    R.C.LfuCalls += R.LfuCalls;
    if (J.Kind == JobKind::Profile)
      return;

    // classifySuitePopulation's per-site pass, for both loop populations.
    Program Orig = build(W, DataSet::Ref, Log, R.C);
    ScopedSpan S(Log, "feedback.classify");
    std::vector<SiteLocation> Sites = Orig.M.locateLoadSites();
    std::vector<bool> SiteInLoop(Orig.M.NumLoadSites, false);
    for (uint32_t FI = 0; FI != Orig.M.Functions.size(); ++FI) {
      const Function &F = Orig.M.Functions[FI];
      DomTree DT = DomTree::forward(F);
      LoopInfo LI(F, DT);
      for (uint32_t Site = 0; Site != Orig.M.NumLoadSites; ++Site)
        if (Sites[Site].Func == FI)
          SiteInLoop[Site] = LI.isInLoop(Sites[Site].Block);
    }
    for (bool InLoopWanted : {false, true}) {
      PopulationRow &Row = InLoopWanted ? R.In : R.Out;
      Row.Bench = W.info().Name;
      uint64_t Total = 0;
      uint64_t ByClass[4] = {0, 0, 0, 0};
      for (uint32_t Site = 0; Site != Orig.M.NumLoadSites; ++Site) {
        uint64_t Refs = R.Stats.SiteCounts[Site];
        Total += Refs;
        if (SiteInLoop[Site] != InLoopWanted)
          continue;
        StrideClass C =
            classifyStrideSummary(R.Strides.site(Site), Config.Classifier);
        ByClass[static_cast<unsigned>(C)] += Refs;
      }
      const double T = static_cast<double>(Total);
      Row.NonePct = percent(static_cast<double>(ByClass[0]), T);
      Row.SsstPct = percent(static_cast<double>(ByClass[1]), T);
      Row.PmstPct = percent(static_cast<double>(ByClass[2]), T);
      Row.WsstPct = percent(static_cast<double>(ByClass[3]), T);
    }
    return;
  }

  case JobKind::Feedback: {
    const JobResult &EdgeSrc = Results[source(J, true)];
    const JobResult &StrideSrc = Results[source(J, false)];
    Program Prog = build(W, J.DS, Log, R.C);
    FeedbackResult FB = [&] {
      ScopedSpan S(Log, "feedback.classify");
      return runFeedback(Prog.M, EdgeSrc.Edges, StrideSrc.Strides,
                         Config.Classifier);
    }();
    {
      ScopedSpan S(Log, "prefetch.insert");
      R.Prefetches = insertPrefetches(Prog.M, FB);
    }
    const PrefetchInsertionStats &P = R.Prefetches;
    R.C.Inserted += P.SsstPrefetches + P.PmstPrefetches + P.WsstPrefetches +
                    P.DependentPrefetches;
    R.Stats = run(std::move(Prog), /*Mem=*/true, nullptr, nullptr, Log,
                  Paired, nullptr, R.C);
    return;
  }
  }
}

FigureData JobReplay::figures() const {
  const size_t NW = Ws.size();
  const ProfilingMethod SEC = ProfilingMethod::SampleEdgeCheck;
  const DataSet T = DataSet::Train, Rf = DataSet::Ref;
  FigureData D;
  for (size_t W = 0; W != NW; ++W) {
    BaselineMeasurement BM;
    BM.Info = Ws[W]->info();
    BM.Train = result(baselineJob(W, T)).Stats;
    BM.Ref = result(baselineJob(W, Rf)).Stats;
    D.Fig15.push_back(BM);

    BenchMeasurement B;
    B.Name = BM.Info.Name;
    B.BaselineRefCycles = BM.Ref.Cycles;
    B.EdgeOnlyTrainCycles =
        result(profileJob(W, T, ProfilingMethod::EdgeOnly, true)).Stats.Cycles;
    for (ProfilingMethod M : paperStrideMethods()) {
      const JobResult &P = result(profileJob(W, T, M, true));
      const JobResult &F = result(feedbackJob(W, M, T, T));
      MethodMeasurement &MM = B.Methods[M];
      MM.ProfiledCycles = P.Stats.Cycles;
      MM.StrideInvocations = P.Invocations;
      MM.StrideProcessed = P.Processed;
      MM.LfuCalls = P.LfuCalls;
      MM.TrainLoadRefs = P.Stats.LoadRefs;
      MM.Prefetches = F.Prefetches;
      MM.PrefetchedRefCycles = F.Stats.Cycles;
      MM.RefMemory = F.Stats.Mem;
      if (MM.PrefetchedRefCycles != 0)
        MM.Speedup = static_cast<double>(B.BaselineRefCycles) /
                     static_cast<double>(MM.PrefetchedRefCycles);
    }
    D.Fig16.push_back(B);

    JobSpec LM;
    LM.Kind = JobKind::LoadMix;
    LM.W = W;
    D.Fig17.push_back(result(LM).InLoopShare);
    const JobResult &Pop = result(populationJobs(NW)[W]);
    D.Fig18.push_back(Pop.Out);
    D.Fig19.push_back(Pop.In);

    SensitivityMeasurement S;
    S.Name = BM.Info.Name;
    auto Ratio = [&](DataSet E, DataSet St) {
      uint64_t Cycles = result(feedbackJob(W, SEC, E, St)).Stats.Cycles;
      return Cycles ? static_cast<double>(BM.Ref.Cycles) /
                          static_cast<double>(Cycles)
                    : 1.0;
    };
    S.Train = Ratio(T, T);
    S.Ref = Ratio(Rf, Rf);
    S.EdgeRefStrideTrain = Ratio(Rf, T);
    S.EdgeTrainStrideRef = Ratio(T, Rf);
    D.Fig23.push_back(S);
  }
  D.Fig20 = D.Fig21 = D.Fig22 = D.Fig16;
  D.Fig24 = D.Fig25 = D.Fig23;
  return D;
}

//===-- Replay workloads --------------------------------------------------===//

constexpr uint64_t ReplayLoads = 10'000'000;

struct TraceFileInfo {
  bool Ok = false;
  std::string Error;
  uint64_t Events = 0, Bytes = 0;
};

/// Generates the seeded stream-mixed trace and writes it as an indexed
/// sprof.trace/2 file.
TraceFileInfo writeTrace(const std::string &Path, uint64_t Seed) {
  TraceFileInfo Info;
  SyntheticTraceConfig SC;
  SC.Events = ReplayLoads;
  SC.Seed = Seed;
  std::unique_ptr<AccessSource> Src = makeSyntheticTrace("stream-mixed", SC);
  std::unique_ptr<TraceWriter> W =
      Src ? TraceWriter::open(Path, Src->numSites(), {}, /*Text=*/false,
                              &Info.Error)
          : nullptr;
  if (!W) {
    if (Info.Error.empty())
      Info.Error = "cannot generate the stream-mixed trace";
    return Info;
  }
  drainStream(*Src, *W, 4096);
  W->finish();
  Info.Ok = W->ok();
  if (!Info.Ok)
    Info.Error = W->error();
  Info.Events = W->eventsWritten();
  Info.Bytes = W->bytesWritten();
  return Info;
}

StrideProfilerConfig replayProfilerConfig(const PipelineConfig &Config) {
  StrideProfilerConfig PC = Config.Profiler;
  PC.Sampling.Enabled = methodUsesSampling(ProfilingMethod::EdgeCheck);
  return PC;
}

/// A profile reduced to what replay must reproduce bit for bit.
struct ProfileDigest {
  std::string Strides;
  uint64_t Invocations = 0, Processed = 0, LfuCalls = 0;
  bool operator==(const ProfileDigest &O) const {
    return Strides == O.Strides && Invocations == O.Invocations &&
           Processed == O.Processed && LfuCalls == O.LfuCalls;
  }
};

ProfileDigest digestOf(const StrideProfiler &P) {
  return {strideProfileToJson(StrideProfile::fromProfiler(P)).str(),
          P.totalInvocations(), P.totalProcessed(), P.totalLfuCalls()};
}

/// The oracle: StrideProfiler::consume straight on the generator -- no
/// file, decode or sharding in between.
ProfileDigest oracleProfile(uint64_t Seed, const PipelineConfig &Config) {
  SyntheticTraceConfig SC;
  SC.Events = ReplayLoads;
  SC.Seed = Seed;
  std::unique_ptr<AccessSource> Src = makeSyntheticTrace("stream-mixed", SC);
  StrideProfiler P(Src->numSites(), replayProfilerConfig(Config));
  P.consume(*Src, Config.Interp.StrideBatchWindow);
  return digestOf(P);
}

ProfileDigest digestOf(const ProfileRunResult &P) {
  return {strideProfileToJson(P.Strides).str(), P.StrideInvocations,
          P.StrideProcessed, P.LfuCalls};
}

//===-- Options -----------------------------------------------------------===//

struct Options {
  std::vector<std::string> Workloads;
  uint64_t Seed = 0;   ///< replay: SyntheticTraceConfig::Seed
  uint64_t Offset = 0; ///< repro: PipelineConfig::WorkloadSeedOffset
  double Seconds = 10;
  bool Trace = false;
  fs::path Work;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], V = Argv[I + 1];
    if (Flag == "--workload") {
      O.Workloads.clear();
      for (size_t P = 0; P <= V.size();) {
        size_t C = std::min(V.find(',', P), V.size());
        O.Workloads.push_back(V.substr(P, C - P));
        P = C + 1;
      }
    } else if (Flag == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--offset")
      O.Offset = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = V == "1";
    else if (Flag == "--work")
      O.Work = V;
    else
      return false;
  }
  for (const std::string &W : O.Workloads)
    if (W != "repro" && W != "replay-4t" && W != "replay-1t")
      return false;
  return !O.Workloads.empty() && !O.Work.empty() && O.Seconds > 0;
}

//===-- Timed runs --------------------------------------------------------===//

/// Set-up is repeated this many times and reported as a median.
constexpr int ReproSetups = 5;
constexpr int ReplaySetups = 3;

/// Suite and engine construction take well under a microsecond, so a
/// process measuring them repeats them for at least this long.
constexpr double ReproSetupBlockS = 0.005;

/// Fresh processes whose mean is one repro set-up sample. A construction
/// this small runs at one of two speeds about a third apart, fixed per
/// process (with or without address randomisation, on any core); a median
/// over single processes flips between the two.
constexpr int ReproSetupProcesses = 7;

/// Passes run while the next one, taking as long as the last, still ends
/// within the measuring window; there is always at least one.
bool anotherPassFits(Clock::time_point Start, double LastPass,
                     double Seconds) {
  return secondsSince(Start) + LastPass <= Seconds;
}

/// The mean time of constructing the suite and the engine, as every
/// figure main does before its first suite call, over a block of at least
/// ReproSetupBlockS. Negative when the suite is empty.
double timedReproSetup() {
  uint64_t N = 0;
  bool Empty = false;
  Clock::time_point T0 = Clock::now();
  do {
    auto Suite = makeSpecIntSuite();
    ExperimentEngine Engine(engineOptions());
    Empty = Empty || Suite.empty();
    ++N;
  } while (secondsSince(T0) < ReproSetupBlockS);
  const double S = secondsSince(T0);
  return Empty ? -1 : S / static_cast<double>(N);
}

/// timedReproSetup in a fresh process (this program with --setup-sample
/// FILE). Negative when the sample could not be taken.
double sampleReproSetup(const char *Self, const fs::path &File) {
  std::string Path = File.string();
  char *const Argv[] = {const_cast<char *>(Self),
                        const_cast<char *>("--setup-sample"), Path.data(),
                        nullptr};
  pid_t Pid = 0;
  if (posix_spawn(&Pid, Self, nullptr, nullptr, Argv, environ) != 0)
    return -1;
  int Status = 0;
  if (waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1;
  double S = -1;
  std::ifstream(File) >> S;
  return S;
}

JsonValue timedRepro(const Options &O, const fs::path &Dir,
                     const char *Self) {
  JsonValue Out = JsonValue::object();
  fs::create_directories(Dir);
  std::vector<double> Setup;
  for (int I = 0; I != ReproSetups; ++I) {
    double Sum = 0;
    for (int P = 0; P != ReproSetupProcesses; ++P) {
      double S = sampleReproSetup(Self, Dir / "setup-sample.txt");
      if (S < 0) {
        Out.set("setup_error", "cannot take a set-up sample with " +
                                   std::string(Self) + " --setup-sample");
        return Out;
      }
      Sum += S;
    }
    Setup.push_back(Sum / ReproSetupProcesses);
  }
  auto Suite = makeSpecIntSuite();
  ExperimentEngine Engine(engineOptions());
  std::vector<const Workload *> Ws = workloadPointers(Suite);
  PipelineConfig Config;
  Config.WorkloadSeedOffset = O.Offset;

  std::vector<double> Wall, Cpu;
  bool WritesOk = true;
  Clock::time_point Start = Clock::now();
  do {
    // Every pass starts from a cold decode cache, as a fresh run of the
    // figure mains does.
    ProgramCache::global().clear();
    Clock::time_point T0 = Clock::now();
    double C0 = cpuSeconds();
    FigureData D = runFigures(Engine, Ws, Config, nullptr);
    uint64_t Bytes = 0;
    WritesOk = writeFigures(Dir / ("pass" + std::to_string(Wall.size())), D,
                            Bytes) &&
               WritesOk;
    Cpu.push_back(cpuSeconds() - C0);
    Wall.push_back(secondsSince(T0));
  } while (anotherPassFits(Start, Wall.back(), O.Seconds));

  Out.set("setup_s", toJson(Setup))
      .set("wall_s", toJson(Wall))
      .set("cpu_s", toJson(Cpu))
      .set("writes_ok", WritesOk)
      .set("figure_dirs", static_cast<uint64_t>(Wall.size()));
  return Out;
}

JsonValue timedReplay(const Options &O, const fs::path &Dir,
                      unsigned ReplayThreads) {
  JsonValue Out = JsonValue::object();
  fs::create_directories(Dir);
  const std::string Path = (Dir / "stream-mixed.sprof.trace").string();
  std::vector<double> Setup;
  TraceFileInfo Info;
  for (int I = 0; I != ReplaySetups; ++I) {
    Clock::time_point T0 = Clock::now();
    Info = writeTrace(Path, O.Seed);
    Setup.push_back(secondsSince(T0));
    if (!Info.Ok) {
      std::cerr << "error: " << Path << ": " << Info.Error << "\n";
      Out.set("setup_error", Info.Error);
      return Out;
    }
  }
  PipelineConfig Config;
  const ProfileDigest Oracle = oracleProfile(O.Seed, Config);

  TraceReplayOptions Opts;
  Opts.Config = Config;
  Opts.Method = ProfilingMethod::EdgeCheck;
  Opts.EvaluateWorkload = false;
  Opts.SimulateMemory = false;
  Opts.Threads = ReplayThreads;

  std::vector<double> Wall, Cpu, Events;
  uint64_t Failed = 0;
  Clock::time_point Start = Clock::now();
  do {
    Clock::time_point T0 = Clock::now();
    double C0 = cpuSeconds();
    TraceReplayResult R = replayTraceFile(Path, Opts);
    Cpu.push_back(cpuSeconds() - C0);
    Wall.push_back(secondsSince(T0));
    Events.push_back(static_cast<double>(R.Events));
    if (!R.Ok || R.Events != Info.Events ||
        !(digestOf(R.Profile) == Oracle)) {
      ++Failed;
      std::cerr << "error: replay pass " << Wall.size() << " (threads="
                << ReplayThreads << ") "
                << (R.Ok ? "differs from the oracle profile" : R.Error)
                << "\n";
    }
  } while (anotherPassFits(Start, Wall.back(), O.Seconds));
  fs::remove(Path);

  Out.set("setup_s", toJson(Setup))
      .set("wall_s", toJson(Wall))
      .set("cpu_s", toJson(Cpu))
      .set("events", toJson(Events))
      .set("failed", Failed);
  return Out;
}

//===-- Traced run --------------------------------------------------------===//

/// How this program was built, recorded with every result.
JsonValue buildInfo() {
  JsonValue J = JsonValue::object();
  J.set("compiler", PERFBENCH_CXX_ID)
      .set("flags", PERFBENCH_CXX_FLAGS)
      .set("build_type", PERFBENCH_BUILD_TYPE);
  return J;
}

JsonValue tracedRepro(const Options &O, const fs::path &Dir, SpanLog &Log) {
  JsonValue Out = JsonValue::object();
  auto Suite = makeSpecIntSuite();
  std::vector<const Workload *> Ws = workloadPointers(Suite);
  PipelineConfig Config;
  Config.WorkloadSeedOffset = O.Offset;

  // 1. The timed workload's pass, untraced, keeping every suite call's
  //    engine outcomes; the report writing is timed on its own.
  ExperimentEngine Engine(engineOptions());
  std::vector<SuiteCall> Calls;
  ProgramCache::global().clear();
  Clock::time_point T0 = Clock::now();
  FigureData D = runFigures(Engine, Ws, Config, &Calls);
  const double FiguresS = secondsSince(T0);
  uint64_t Bytes = 0;
  T0 = Clock::now();
  bool WritesOk = writeFigures(Dir / "engine", D, Bytes);
  const double WriteS = secondsSince(T0);

  // The engine's outcomes give the job figures; the figure calls' own job
  // lists give each job's key, for the unique set the replay below runs.
  JsonValue CallsJ = JsonValue::array();
  std::vector<JobSpec> Unique;
  std::set<std::string> Seen;
  for (const SuiteCall &C : Calls) {
    JsonValue Keys = JsonValue::array();
    for (const JobSpec &J : C.Jobs) {
      std::string Key = J.key(Ws);
      if (Seen.insert(Key).second)
        Unique.push_back(J);
      Keys.push(std::move(Key));
    }
    JsonValue Outcomes = JsonValue::array();
    for (const JobOutcome &JO : C.Outcomes) {
      JsonValue J = JsonValue::object();
      J.set("ok", JO.Ok)
          .set("ready_us", JO.ReadyUs)
          .set("start_us", JO.StartUs)
          .set("duration_us", JO.DurationUs)
          .set("worker", JO.Worker);
      Outcomes.push(std::move(J));
    }
    JsonValue CJ = JsonValue::object();
    CJ.set("figure", C.Figure)
        .set("wall_s", C.WallS)
        .set("keys", std::move(Keys))
        .set("outcomes", std::move(Outcomes));
    CallsJ.push(std::move(CJ));
  }

  // 2. The unique jobs, serially, traced, with paired runs; their results
  //    must render the same figure documents.
  JobReplay Serial(Ws, Config, Unique);
  ProgramCache::global().clear();
  T0 = Clock::now();
  {
    ScopedSpan S(&Log, "replay.serial");
    Serial.runSerial(&Log, /*Paired=*/true);
  }
  const double SerialS = secondsSince(T0);
  uint64_t ReplayBytes = 0;
  WritesOk = writeFigures(Dir / "replay", Serial.figures(), ReplayBytes) &&
             WritesOk;

  // 3. The same jobs twice more on the engine's threads, traced and
  //    untraced, without pairs: the counts must repeat exactly, and the
  //    wall difference is the tracing overhead.
  JobReplay Traced(Ws, Config, Unique), Untraced(Ws, Config, Unique);
  SpanLog ParallelLog;
  ProgramCache::global().clear();
  T0 = Clock::now();
  Traced.runOnEngine(Engine, &ParallelLog);
  const double TracedS = secondsSince(T0);
  ProgramCache::global().clear();
  T0 = Clock::now();
  Untraced.runOnEngine(Engine, nullptr);
  const double UntracedS = secondsSince(T0);

  JsonValue CountsJ = JsonValue::array();
  for (const JobReplay *R : {&Serial, &Traced, &Untraced})
    CountsJ.push(R->totals().toJson());
  Out.set("calls", std::move(CallsJ))
      .set("figures_wall_s", FiguresS)
      .set("report_write_s", WriteS)
      .set("report_bytes", Bytes)
      .set("writes_ok", WritesOk)
      .set("unique_jobs", static_cast<uint64_t>(Unique.size()))
      .set("serial_replay_s", SerialS)
      .set("traced_wall_s", TracedS)
      .set("untraced_wall_s", UntracedS)
      .set("counts", std::move(CountsJ));
  return Out;
}

JsonValue tracedReplay(const Options &O, const fs::path &Dir, SpanLog &Log) {
  JsonValue Out = JsonValue::object();
  fs::create_directories(Dir);
  const std::string Path = (Dir / "stream-mixed.sprof.trace").string();
  PipelineConfig Config;
  const StrideProfilerConfig PC = replayProfilerConfig(Config);

  TraceFileInfo Info;
  {
    ScopedSpan S(&Log, "stream.write");
    Info = writeTrace(Path, O.Seed);
  }
  if (!Info.Ok) {
    Out.set("error", Info.Error);
    return Out;
  }
  const ProfileDigest Oracle = oracleProfile(O.Seed, Config);
  bool Ok = true;

  // The Threads=1 path of replayTraceFile, call by call.
  std::vector<AccessEvent> Events;
  uint32_t Sites = 0;
  {
    ScopedSpan S(&Log, "stream.decode");
    auto Reader = TraceReader::openFile(Path);
    std::vector<AccessEvent> Buf(4096);
    while (size_t N = Reader->pull(Buf.data(), Buf.size()))
      Events.insert(Events.end(), Buf.begin(), Buf.begin() + N);
    Ok = Ok && Reader->ok();
    Sites = Reader->numSites();
  }
  const uint64_t Decoded = Events.size();
  ProfileDigest Serial;
  {
    VectorSource Src(Events, Sites);
    ScopedSpan S(&Log, "profile.consume");
    StrideProfiler P(Sites, PC);
    P.consume(Src, Config.Interp.StrideBatchWindow);
    Serial = digestOf(P);
  }

  // The Threads>1 path: chunk-parallel decode, then the sharded profile.
  std::vector<AccessEvent> ParEvents;
  {
    ScopedSpan S(&Log, "replay.decode_parallel");
    auto Reader = TraceReader::openFileIndexed(Path);
    std::string Err;
    TraceError Code = TraceError::None;
    Ok = Ok && Reader->ok() && Reader->index().Present &&
         decodeTraceParallel(Path, *Reader, Threads, ParEvents, Err, Code);
  }
  const uint64_t ParDecoded = ParEvents.size();
  ProfileDigest Sharded;
  {
    VectorSource Src(std::move(ParEvents), Sites);
    ScopedSpan S(&Log, "replay.shard_profile");
    ShardedProfileResult SP = profileEventsSharded(Src, PC, Threads);
    Ok = Ok && SP.Ok;
    Sharded = {strideProfileToJson(SP.Strides).str(), SP.Invocations,
               SP.Processed, SP.LfuCalls};
  }
  fs::remove(Path);

  const bool SerialOk = Serial == Oracle, ShardedOk = Sharded == Oracle;
  if (!SerialOk || !ShardedOk)
    std::cerr << "error: traced replay profile differs from the oracle\n";
  Out.set("ok", Ok)
      .set("serial_matches_oracle", SerialOk)
      .set("sharded_matches_oracle", ShardedOk)
      .set("invocations", Serial.Invocations)
      .set("processed", Serial.Processed)
      .set("lfu_calls", Serial.LfuCalls)
      .set("trace_events", Info.Events)
      .set("trace_bytes", Info.Bytes)
      .set("decoded_events", Decoded)
      .set("parallel_decoded_events", ParDecoded);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 3 && std::strcmp(Argv[1], "--setup-sample") == 0) {
    const double S = timedReproSetup();
    std::ofstream Out(Argv[2]);
    Out << std::setprecision(17) << S << "\n";
    return S > 0 && Out.flush() ? 0 : 1;
  }

  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::cerr << "usage: perfbench_main --workload repro|replay-4t|replay-1t"
                 "[,...] --seed N --offset N --seconds S --trace 0|1 "
                 "--work DIR\n";
    return 2;
  }

  if (O.Trace) {
    // One traced run covers every layer: the repro job set and the
    // replay stages, whichever workload asked for it.
    SpanLog Log;
    JsonValue Doc = JsonValue::object();
    Doc.set("repro", tracedRepro(O, O.Work / "trace-repro", Log));
    Doc.set("replay", tracedReplay(O, O.Work / "trace-replay", Log));
    Doc.set("peak_rss_mib", peakRssMiB());
    Doc.set("build", buildInfo());
    Doc.set("spans", Log.toJson());
    return writeJsonFile((O.Work / "trace.json").string(), Doc) ? 0 : 1;
  }

  for (const std::string &W : O.Workloads) {
    const unsigned ReplayThreads = W == "replay-4t" ? Threads : 1;
    JsonValue Doc = W == "repro" ? timedRepro(O, O.Work / W, Argv[0])
                                 : timedReplay(O, O.Work / W, ReplayThreads);
    Doc.set("peak_rss_mib", peakRssMiB());
    Doc.set("build", buildInfo());
    if (!writeJsonFile((O.Work / ("result-" + W + ".json")).string(), Doc))
      return 1;
  }
  return 0;
}
