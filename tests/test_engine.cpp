//===- tests/test_engine.cpp - JobGraph and ExperimentEngine tests ----------===//
//
// Part of the StrideProf project test suite.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JobGraph scheduling semantics (ordering, failure propagation, dependent
/// skipping), engine reuse after failure, per-job telemetry aggregation,
/// and the engine's core guarantee: an N-thread sweep is bit-identical to
/// the serial one for every profiling method.
///
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "driver/Experiments.h"
#include "driver/RunMemo.h"
#include "instrument/Instrumentation.h"
#include "interp/ProgramCache.h"
#include "obs/FlightRecorder.h"
#include "profile/ProfileStore.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace sprof;
using namespace sprof::test;

namespace {

// The chase workload from TestHelpers wrapped as a Workload; small enough
// that a full method sweep stays fast.
class ChaseWorkload : public Workload {
public:
  WorkloadInfo info() const override {
    return {"test.chase", "c", "pointer chase"};
  }
  Program build(const BuildRequest &Req) const override {
    Program P;
    uint32_t DataSite = 0, NextSite = 0;
    P.M = makeChaseModule(DataSite, NextSite);
    uint64_t Seed = Req.seed(0x51dee);
    uint64_t Count = (Req.DS == DataSet::Train ? 192 : 256) + (Seed & 31);
    fillChaseList(P.Memory, Count, 64);
    return P;
  }
};

EngineOptions withThreads(unsigned N) {
  EngineOptions Opts;
  Opts.Threads = N;
  return Opts;
}

/// The sprof.profile/1 bytes of a train-input profile run of \p W.
std::string profileText(const Workload &W, const ProfileRunResult &R) {
  ProfileStore Store({W.info().Name, profilingMethodName(R.Method),
                      dataSetName(DataSet::Train)},
                     R.Edges, R.Strides);
  return Store.toString();
}

/// One profiling method's row of a method grid.
struct MethodCell {
  ProfileRunResult Profile;
  bool HasFeedback = false;
  TimedRunResult Timed;
  /// Baseline cycles / prefetched cycles.
  double Speedup = 0.0;
};

struct MethodGrid {
  uint64_t BaselineCycles = 0;
  /// Parallel to allProfilingMethods().
  std::vector<MethodCell> Cells;
};

/// Every profiling method on \p W, scheduled through addJob on a
/// \p Threads-wide engine: one baseline timed run, one train profile job
/// per method (memory system off), and per method a dependent feedback
/// job that classifies the profile, inserts prefetches and times the
/// result. Everything runs on the train input.
MethodGrid runMethodGrid(const Workload &W, unsigned Threads) {
  const std::vector<ProfilingMethod> Methods = allProfilingMethods();
  MethodGrid G;
  // Pre-sized before any job runs: each job writes its own slot.
  G.Cells.resize(Methods.size());
  ExperimentEngine Engine(withThreads(Threads));
  Engine.addJob("baseline", "baseline-job", [&W, &G](ObsSession *JobObs) {
    Pipeline P(W, {}, JobObs);
    G.BaselineCycles = P.runBaseline(DataSet::Train).Cycles;
  });
  for (size_t I = 0; I != Methods.size(); ++I) {
    MethodCell *Cell = &G.Cells[I];
    const ProfilingMethod Method = Methods[I];
    const std::string Tag = profilingMethodName(Method);
    JobId RunId = Engine.addJob(
        "profile:" + Tag, "run-job", [&W, Cell, Method](ObsSession *JobObs) {
          Pipeline P(W, {}, JobObs);
          Cell->Profile = P.runProfile(Method, DataSet::Train,
                                       /*WithMemorySystem=*/false);
        });
    Engine.addJob(
        "feedback:" + Tag, "feedback-job",
        [&W, Cell](ObsSession *JobObs) {
          Pipeline P(W, {}, JobObs);
          Cell->Timed = P.runPrefetched(DataSet::Train, Cell->Profile.Edges,
                                        Cell->Profile.Strides);
          Cell->HasFeedback = true;
        },
        {RunId});
  }
  Engine.run();
  for (MethodCell &Cell : G.Cells)
    if (Cell.HasFeedback && Cell.Timed.Stats.Cycles != 0)
      Cell.Speedup = static_cast<double>(G.BaselineCycles) /
                     static_cast<double>(Cell.Timed.Stats.Cycles);
  return G;
}

TEST(JobGraph, SerialRunsInInsertionOrder) {
  JobGraph G;
  std::vector<int> Order;
  for (int I = 0; I != 5; ++I)
    G.add("job" + std::to_string(I), "test",
          [&Order, I](uint32_t) { Order.push_back(I); });
  std::vector<JobOutcome> Outcomes = G.run(1);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(Outcomes.size(), 5u);
  for (const JobOutcome &O : Outcomes) {
    EXPECT_TRUE(O.Ran);
    EXPECT_TRUE(O.Ok);
  }
}

TEST(JobGraph, DependenciesCompleteBeforeDependents) {
  // A diamond per chain, run wide: every dependent asserts its
  // dependency's side effect is already visible.
  JobGraph G;
  constexpr int Chains = 8;
  std::atomic<int> DepDone[Chains];
  std::atomic<bool> OrderViolated{false};
  for (int I = 0; I != Chains; ++I)
    DepDone[I] = 0;
  for (int I = 0; I != Chains; ++I) {
    JobId A = G.add("a" + std::to_string(I), "test",
                    [&DepDone, I](uint32_t) { DepDone[I] = 1; });
    JobId B = G.add(
        "b" + std::to_string(I), "test",
        [&DepDone, &OrderViolated, I](uint32_t) {
          if (DepDone[I] != 1)
            OrderViolated = true;
          DepDone[I] = 2;
        },
        {A});
    G.add(
        "c" + std::to_string(I), "test",
        [&DepDone, &OrderViolated, I](uint32_t) {
          if (DepDone[I] != 2)
            OrderViolated = true;
        },
        {B});
  }
  std::vector<JobOutcome> Outcomes = G.run(4);
  EXPECT_FALSE(OrderViolated);
  for (const JobOutcome &O : Outcomes)
    EXPECT_TRUE(O.Ok);
}

TEST(JobGraph, FailurePropagatesAndSkipsDependents) {
  JobGraph G;
  bool IndependentRan = false, DependentRan = false, TransitiveRan = false;
  JobId Bad = G.add("bad", "test", [](uint32_t) {
    throw std::runtime_error("boom");
  });
  JobId Dep = G.add(
      "dep", "test", [&DependentRan](uint32_t) { DependentRan = true; },
      {Bad});
  G.add(
      "transitive", "test",
      [&TransitiveRan](uint32_t) { TransitiveRan = true; }, {Dep});
  G.add("independent", "test",
        [&IndependentRan](uint32_t) { IndependentRan = true; });

  std::vector<JobOutcome> Outcomes = G.run(1);
  ASSERT_EQ(Outcomes.size(), 4u);

  EXPECT_TRUE(Outcomes[0].Ran);
  EXPECT_FALSE(Outcomes[0].Ok);
  EXPECT_EQ(Outcomes[0].Error, "boom");
  EXPECT_TRUE(static_cast<bool>(Outcomes[0].Exception));

  // Direct and transitive dependents are skipped with a pointer at the
  // root cause; unrelated jobs still run.
  EXPECT_FALSE(DependentRan);
  EXPECT_FALSE(TransitiveRan);
  EXPECT_FALSE(Outcomes[1].Ran);
  EXPECT_NE(Outcomes[1].Error.find("skipped"), std::string::npos);
  EXPECT_NE(Outcomes[1].Error.find("bad"), std::string::npos);
  EXPECT_FALSE(Outcomes[2].Ran);
  EXPECT_TRUE(IndependentRan);
  EXPECT_TRUE(Outcomes[3].Ok);
}

TEST(ExperimentEngine, RethrowsFirstFailureAndStaysReusable) {
  ExperimentEngine Engine(withThreads(2));
  Engine.addJob("fails", "test", [](ObsSession *) {
    throw std::runtime_error("engine boom");
  });
  EXPECT_THROW(Engine.run(), std::runtime_error);
  ASSERT_EQ(Engine.lastOutcomes().size(), 1u);
  EXPECT_EQ(Engine.lastOutcomes()[0].Error, "engine boom");

  // The failed wave is drained; the engine accepts and runs new jobs.
  bool Ran = false;
  Engine.addJob("ok", "test", [&Ran](ObsSession *) { Ran = true; });
  Engine.run();
  EXPECT_TRUE(Ran);
  ASSERT_EQ(Engine.lastOutcomes().size(), 1u);
  EXPECT_TRUE(Engine.lastOutcomes()[0].Ok);
}

TEST(ExperimentEngine, FoldsJobTelemetryIntoSession) {
  EngineOptions Opts;
  Opts.Threads = 4;
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  ASSERT_NE(Engine.obs(), nullptr);

  for (int I = 0; I != 6; ++I)
    Engine.addJob("tick" + std::to_string(I), "test-job",
                  [](ObsSession *JobObs) {
                    ASSERT_NE(JobObs, nullptr);
                    JobObs->counter("test.ticks")->inc(10);
                  });
  Engine.run();

  // Counters from all six private job scopes merged into the session
  // registry.
  EXPECT_EQ(Engine.obs()->registry().counter("test.ticks").value(), 60u);

  // One JobRecord per job, in JobId order regardless of completion order,
  // each carrying its own metric scope.
  const std::vector<JobRecord> &Jobs = Engine.obs()->jobs();
  ASSERT_EQ(Jobs.size(), 6u);
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(Jobs[I].Name, "tick" + std::to_string(I));
    EXPECT_EQ(Jobs[I].Category, "test-job");
    EXPECT_TRUE(Jobs[I].Ok);
    EXPECT_EQ(Jobs[I].Metrics.counters().at("test.ticks").value(), 10u);
  }

  // Each job stamped one span onto the session trace.
  EXPECT_TRUE(Engine.obs()->trace().hasSpan("tick0"));
  EXPECT_TRUE(Engine.obs()->trace().hasSpan("tick5"));
}

// The engine folds job scopes into the session registry on one thread,
// in JobId order, after the graph drains: whatever worker ran whatever
// job, the session's counters, gauges (last write in JobId order) and
// histogram buckets are the same at every thread count.
TEST(ExperimentEngine, JobTelemetryFoldIdenticalAcrossThreadCounts) {
  auto RunEngine = [](unsigned Threads) {
    EngineOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    for (int J = 0; J != 16; ++J)
      Engine.addJob("job" + std::to_string(J), "test-job",
                    [J](ObsSession *JobObs) {
                      JobObs->counter("fold.events")->inc(J + 1);
                      JobObs->histogram("fold.sizes")->record(J * 3 % 32);
                      JobObs->gauge("fold.last")->set(J);
                    });
    Engine.run();

    std::vector<std::pair<std::string, uint64_t>> Counters;
    std::vector<std::pair<std::string, double>> Gauges;
    Engine.obs()->registry().snapshotScalars(Counters, Gauges);
    // The engine's own scheduler telemetry (engine.*) is intentionally
    // outside the determinism contract: wakeup retries, queue high-water,
    // and wait-time histograms depend on worker interleaving. Job-scope
    // metrics must still fold bit-identically.
    auto IsEngine = [](const auto &KV) {
      return KV.first.rfind("engine.", 0) == 0;
    };
    Counters.erase(
        std::remove_if(Counters.begin(), Counters.end(), IsEngine),
        Counters.end());
    Gauges.erase(std::remove_if(Gauges.begin(), Gauges.end(), IsEngine),
                 Gauges.end());
    const Histogram &H =
        Engine.obs()->registry().histograms().at("fold.sizes");
    return std::make_tuple(Counters, Gauges, H.count(), H.sum(),
                           H.bucketCounts());
  };

  auto Serial = RunEngine(1);
  // 1 + 2 + ... + 16 events; the gauge holds the last job's value.
  const std::vector<std::pair<std::string, uint64_t>> WantCounters = {
      {"fold.events", 136}};
  const std::vector<std::pair<std::string, double>> WantGauges = {
      {"fold.last", 15.0}};
  EXPECT_EQ(std::get<0>(Serial), WantCounters);
  EXPECT_EQ(std::get<1>(Serial), WantGauges);
  EXPECT_EQ(std::get<2>(Serial), 16u);
  for (unsigned Threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(Threads);
    EXPECT_EQ(RunEngine(Threads), Serial);
  }
}

// A graph with a structurally forced critical path: a three-job chain of
// the longest jobs (ids 0..2) plus six quick independents. The chain's
// weight dwarfs every other path, so the report's critical path cannot
// depend on worker placement.
void addSweepShape(ExperimentEngine &Engine) {
  JobId Prev = 0;
  for (int Stage = 0; Stage != 3; ++Stage) {
    std::vector<JobId> Deps;
    if (Stage != 0)
      Deps.push_back(Prev);
    Prev = Engine.addJob(
        "stage" + std::to_string(Stage), "chain-job",
        [](ObsSession *) {
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        },
        std::move(Deps));
  }
  for (int I = 0; I != 6; ++I)
    Engine.addJob("quick" + std::to_string(I), "leaf-job",
                  [](ObsSession *) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  });
}

// The deterministic projection of a sweep report: structure and outcomes,
// no timestamps and no worker placement.
std::string sweepReportShape(const JsonValue &Report) {
  std::ostringstream OS;
  const JsonValue *Jobs = Report.get("jobs");
  for (const JsonValue &J : Jobs->items()) {
    OS << J.get("id")->asUInt() << ":" << J.get("name")->asString() << ":"
       << J.get("category")->asString() << ":deps[";
    for (const JsonValue &D : J.get("deps")->items())
      OS << D.asUInt() << ",";
    OS << "]:" << (J.get("ok")->asBool() ? "ok" : "fail") << "\n";
  }
  OS << "critical:";
  for (const JsonValue &Id : Report.get("critical_path")->get("jobs")->items())
    OS << Id.asUInt() << ",";
  const JsonValue *Sched = Report.get("scheduler");
  OS << "\nsched:" << Sched->get("jobs_enqueued")->asUInt() << "/"
     << Sched->get("jobs_started")->asUInt() << "/"
     << Sched->get("jobs_finished")->asUInt() << "/"
     << Sched->get("jobs_failed")->asUInt() << "/"
     << Sched->get("jobs_skipped")->asUInt();
  return OS.str();
}

// The sweep report's deterministic projection — jobs, dependency edges,
// outcomes, the critical path, and the scheduler's job accounting — is
// identical whatever the thread count; only timestamps and placement may
// move.
TEST(ExperimentEngine, SweepReportShapeIdenticalSerialVsParallel) {
  auto Run = [](unsigned Threads) {
    EngineOptions Opts;
    Opts.Threads = Threads;
    Opts.Obs.Enabled = true;
    ExperimentEngine Engine(Opts);
    addSweepShape(Engine);
    Engine.run();
    return Engine.sweepReport();
  };
  JsonValue Serial = Run(1);
  std::string Shape = sweepReportShape(Serial);
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(Threads);
    EXPECT_EQ(sweepReportShape(Run(Threads)), Shape);
  }
  // And the forced shape is actually forced: the chain is the path.
  const JsonValue *Chain = Serial.get("critical_path")->get("jobs");
  ASSERT_EQ(Chain->size(), 3u);
  EXPECT_EQ(Chain->at(0).asUInt(), 0u);
  EXPECT_EQ(Chain->at(1).asUInt(), 1u);
  EXPECT_EQ(Chain->at(2).asUInt(), 2u);
}

TEST(ExperimentEngine, SweepReportInvariantsAndSchedulerTelemetry) {
  EngineOptions Opts;
  Opts.Threads = 2;
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  addSweepShape(Engine);
  Engine.run();

  JsonValue Report = Engine.sweepReport();
  EXPECT_EQ(Report.get("schema")->asString(), SweepReportSchemaV1);
  const JsonValue *Jobs = Report.get("jobs");
  ASSERT_NE(Jobs, nullptr);
  ASSERT_EQ(Jobs->size(), 9u);
  for (const JsonValue &J : Jobs->items()) {
    uint64_t Id = J.get("id")->asUInt();
    EXPECT_EQ(J.get("finish_us")->asUInt(),
              J.get("start_us")->asUInt() + J.get("run_us")->asUInt());
    EXPECT_GE(J.get("start_us")->asUInt(), J.get("ready_us")->asUInt());
    EXPECT_EQ(J.get("queue_wait_us")->asUInt(),
              J.get("start_us")->asUInt() - J.get("ready_us")->asUInt());
    for (const JsonValue &D : J.get("deps")->items())
      EXPECT_LT(D.asUInt(), Id);
  }

  // sum(critical chain durations) == duration_us <= wall_us.
  const JsonValue *Crit = Report.get("critical_path");
  uint64_t ChainSum = 0;
  for (const JsonValue &Id : Crit->get("jobs")->items())
    ChainSum += Jobs->at(Id.asUInt()).get("run_us")->asUInt();
  EXPECT_EQ(Crit->get("duration_us")->asUInt(), ChainSum);
  EXPECT_LE(Crit->get("duration_us")->asUInt(),
            Crit->get("wall_us")->asUInt());

  const JsonValue *Sched = Report.get("scheduler");
  ASSERT_NE(Sched, nullptr);
  EXPECT_EQ(Sched->get("jobs_enqueued")->asUInt(), 9u);
  EXPECT_EQ(Sched->get("workers")->size(), 2u);

  // The same accounting flows into the session registry as engine.*
  // metrics.
  const MetricsRegistry &Reg = Engine.obs()->registry();
  EXPECT_EQ(Reg.counters().at("engine.jobs.enqueued").value(), 9u);
  EXPECT_EQ(Reg.counters().at("engine.jobs.finished").value(), 9u);
  EXPECT_EQ(Reg.counters().at("engine.jobs.failed").value(), 0u);
  EXPECT_EQ(Reg.histograms().at("engine.job.run_us").count(), 9u);
}

// The flight recorder's ring is bounded and its dump names the job that
// was in flight — the crash/hang post-mortem contract, minus the signal
// (scripts/check_flight_recorder.sh covers the real SIGSEGV/watchdog
// paths out of process).
TEST(FlightRecorder, DumpNamesInFlightJobAndKeepsNewestEvents) {
  FlightRecorder R(2, 8);
  R.bindThread(0);
  for (int I = 0; I != 40; ++I) {
    std::string Name = "job" + std::to_string(I);
    R.jobStart(0, Name.c_str(), "leaf-job");
    R.jobFinish(0, Name.c_str(), true);
  }
  R.jobStart(0, "wedged", "chain-job");
  FlightRecorder::unbindThread();

  std::string Path = testing::TempDir() + "flightrec_inflight.json";
  ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Doc));
  EXPECT_EQ(Doc.get("schema")->asString(), FlightRecSchemaV1);
  EXPECT_EQ(Doc.get("reason")->asString(), "request");
  const JsonValue *Workers = Doc.get("workers");
  ASSERT_NE(Workers, nullptr);
  ASSERT_EQ(Workers->size(), 2u);

  const JsonValue &Lane = Workers->at(0);
  EXPECT_TRUE(Lane.get("in_flight")->asBool());
  EXPECT_EQ(Lane.get("current_job")->asString(), "wedged");
  const JsonValue *Events = Lane.get("events");
  ASSERT_NE(Events, nullptr);
  // Bounded: the ring holds at most 8 slots, and the newest event is the
  // wedged job's start; the earliest jobs were lapped away.
  EXPECT_LE(Events->size(), 8u);
  ASSERT_GT(Events->size(), 0u);
  EXPECT_EQ(Events->at(Events->size() - 1).get("name")->asString(),
            "wedged");
  for (const JsonValue &E : Events->items())
    EXPECT_NE(E.get("name")->asString(), "job0");
  // The idle lane dumped too, empty.
  EXPECT_FALSE(Workers->at(1).get("in_flight")->asBool());
}

// Writers on distinct lanes with concurrent dumps: the seqlock protocol
// must keep this race-free (TSan runs this in CI) and every completed
// dump parseable.
TEST(FlightRecorder, ConcurrentLanesAndDumpsStayConsistent) {
  constexpr unsigned Lanes = 4;
  FlightRecorder R(Lanes, 16);
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Writers;
  for (unsigned W = 0; W != Lanes; ++W)
    Writers.emplace_back([&R, W, &Stop] {
      R.bindThread(W);
      // Every writer records at least one ring's worth of events before it
      // honours Stop: under load the dump loop can finish before a writer
      // is first scheduled, and the quiesced lanes below must not be empty.
      for (int I = 0;
           I != 4000 && (I < 16 || !Stop.load(std::memory_order_relaxed));
           ++I) {
        std::string Name = "w" + std::to_string(W) + ":" +
                           std::to_string(I);
        R.jobStart(W, Name.c_str(), "race-job");
        FlightRecorder::notePhase("execute");
        R.jobFinish(W, Name.c_str(), true);
      }
      FlightRecorder::unbindThread();
    });

  // Dump repeatedly while the writers are spinning; a reader must never
  // block a writer or tear an event.
  std::string Path = testing::TempDir() + "flightrec_race.json";
  for (int D = 0; D != 20; ++D)
    ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  Stop = true;
  for (std::thread &T : Writers)
    T.join();

  ASSERT_TRUE(R.dumpFile(Path.c_str(), "request"));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonValue Doc;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Doc));
  const JsonValue *Workers = Doc.get("workers");
  ASSERT_EQ(Workers->size(), Lanes);
  for (const JsonValue &Lane : Workers->items()) {
    EXPECT_FALSE(Lane.get("in_flight")->asBool());
    // Quiesced: every retained slot is stable, so the full ring dumps.
    EXPECT_GT(Lane.get("events")->size(), 0u);
  }
}

// The acceptance criterion: for every profiling method, profiles,
// classification verdicts, and timed runs from a 4-thread engine are byte-
// identical to the 1-thread engine's.
TEST(ExperimentEngine, ParallelSweepMatchesSerialForAllMethods) {
  ChaseWorkload W;
  const std::vector<ProfilingMethod> Methods = allProfilingMethods();
  MethodGrid GS = runMethodGrid(W, 1);
  MethodGrid GP = runMethodGrid(W, 4);

  ASSERT_EQ(GS.Cells.size(), Methods.size());
  ASSERT_EQ(GP.Cells.size(), GS.Cells.size());
  EXPECT_NE(GS.BaselineCycles, 0u);
  EXPECT_EQ(GP.BaselineCycles, GS.BaselineCycles);

  for (size_t I = 0; I != GS.Cells.size(); ++I) {
    const MethodCell &S = GS.Cells[I];
    const MethodCell &P = GP.Cells[I];
    ASSERT_EQ(S.Profile.Method, Methods[I]);
    ASSERT_EQ(P.Profile.Method, S.Profile.Method);
    SCOPED_TRACE(profilingMethodName(Methods[I]));

    // Profiles serialize to the same bytes.
    EXPECT_EQ(profileText(W, P.Profile), profileText(W, S.Profile));
    EXPECT_EQ(P.Profile.Stats.Instructions, S.Profile.Stats.Instructions);
    EXPECT_EQ(P.Profile.StrideInvocations, S.Profile.StrideInvocations);

    // Identical classification verdicts and timed runs.
    ASSERT_TRUE(S.HasFeedback);
    ASSERT_TRUE(P.HasFeedback);
    EXPECT_EQ(P.Timed.Feedback.SiteClass, S.Timed.Feedback.SiteClass);
    EXPECT_EQ(P.Timed.Feedback.Decisions.size(),
              S.Timed.Feedback.Decisions.size());
    EXPECT_EQ(P.Timed.Stats.Cycles, S.Timed.Stats.Cycles);
    EXPECT_EQ(P.Speedup, S.Speedup);
    EXPECT_GT(S.Speedup, 0.0);
  }
}

TEST(ExperimentEngine, SeedOffsetZeroReproducesStandalonePipeline) {
  ChaseWorkload W;
  // One profile job per seed offset, run side by side.
  ProfileRunResult ByOffset[2];
  ExperimentEngine Engine(withThreads(2));
  for (uint64_t Offset : {0u, 1u})
    Engine.addJob("profile:seed" + std::to_string(Offset), "run-job",
                  [&W, &ByOffset, Offset](ObsSession *JobObs) {
                    PipelineConfig C;
                    C.WorkloadSeedOffset = Offset;
                    Pipeline P(W, C, JobObs);
                    ByOffset[Offset] =
                        P.runProfile(ProfilingMethod::EdgeCheck,
                                     DataSet::Train,
                                     /*WithMemorySystem=*/false);
                  });
  Engine.run();
  const ProfileRunResult &Canonical = ByOffset[0];
  const ProfileRunResult &Replica = ByOffset[1];

  // Offset 0 is the canonical build: bit-identical to a plain Pipeline.
  Pipeline P(W);
  ProfileRunResult Direct =
      P.runProfile(ProfilingMethod::EdgeCheck, DataSet::Train,
                   /*WithMemorySystem=*/false);
  ProfileStore DirectStore({W.info().Name, "edge-check", "train"},
                           Direct.Edges, Direct.Strides);
  EXPECT_EQ(profileText(W, Canonical), DirectStore.toString());

  // A non-zero offset owns a different RNG stream, so its profile is a
  // genuine replica, not a copy.
  EXPECT_NE(profileText(W, Replica), profileText(W, Canonical));
}

// -- Result memo ------------------------------------------------------------

/// The chase workload under another name, whose reference-input builds
/// throw while FailuresLeft is positive.
class FlakyWorkload : public ChaseWorkload {
public:
  WorkloadInfo info() const override {
    return {"test.flaky", "c", "pointer chase that fails to build"};
  }
  Program build(const BuildRequest &Req) const override {
    if (Req.DS == DataSet::Ref && FailuresLeft.fetch_sub(1) > 0)
      throw std::runtime_error("flaky build");
    return ChaseWorkload::build(Req);
  }

  mutable std::atomic<int> FailuresLeft{0};
};

/// Every field of a suite call's results, as JSON (doubles print exactly).
template <class T, class ToJson>
std::string resultsJson(const std::vector<T> &Results, ToJson Fn) {
  JsonValue A = JsonValue::array();
  for (const T &R : Results)
    A.push(Fn(R));
  return A.str();
}

std::string suiteJson(const std::vector<BenchMeasurement> &R) {
  return resultsJson(R, benchMeasurementToJson);
}
std::string sensitivityJson(const std::vector<SensitivityMeasurement> &R) {
  return resultsJson(R, sensitivityMeasurementToJson);
}
std::string populationJson(const std::vector<PopulationRow> &R) {
  return resultsJson(R, populationRowToJson);
}
std::string baselinesJson(const std::vector<BaselineMeasurement> &R) {
  std::string S = resultsJson(R, baselineMeasurementToJson);
  for (const BaselineMeasurement &B : R)
    for (const RunStats *Stats : {&B.Train, &B.Ref})
      for (uint64_t Count : Stats->SiteCounts)
        S += " " + std::to_string(Count);
  return S;
}

// Each suite call runs the jobs whose results the engine's memo does not
// hold yet; repeats schedule nothing. Every result equals a fresh
// engine's, at one thread and at four.
TEST(ExperimentEngine, MemoRunsEachUniqueSuiteJobOnce) {
  ChaseWorkload W;
  const std::vector<const Workload *> Ws = {&W};
  std::vector<std::string> Serial;
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads);
    ExperimentEngine Engine(withThreads(Threads));
    auto Jobs = [&Engine] { return Engine.lastOutcomes().size(); };

    const std::string Baselines =
        baselinesJson(measureSuiteBaselines(Engine, Ws));
    EXPECT_EQ(Jobs(), 2u);
    // 14 jobs; the baseline ref run comes from the memo.
    const std::string Suite = suiteJson(measureSuite(Engine, Ws));
    EXPECT_EQ(Jobs(), 13u);
    const std::string OutLoop =
        populationJson(classifySuitePopulation(Engine, Ws, false));
    EXPECT_EQ(Jobs(), 1u);
    // Both loop populations come from one job.
    const std::string InLoop =
        populationJson(classifySuitePopulation(Engine, Ws, true));
    EXPECT_EQ(Jobs(), 0u);
    // 7 jobs; the baseline, the memsys-on sample-edge-check train profile
    // and its train/train feedback run come from measureSuite's.
    const std::string Sensitivity =
        sensitivityJson(measureSuiteSensitivity(Engine, Ws));
    EXPECT_EQ(Jobs(), 4u);

    EXPECT_EQ(suiteJson(measureSuite(Engine, Ws)), Suite);
    EXPECT_TRUE(Engine.lastOutcomes().empty());
    EXPECT_EQ(sensitivityJson(measureSuiteSensitivity(Engine, Ws)),
              Sensitivity);
    EXPECT_TRUE(Engine.lastOutcomes().empty());
    EXPECT_EQ(populationJson(classifySuitePopulation(Engine, Ws, false)),
              OutLoop);
    EXPECT_TRUE(Engine.lastOutcomes().empty());
    EXPECT_EQ(baselinesJson(measureSuiteBaselines(Engine, Ws)), Baselines);
    EXPECT_TRUE(Engine.lastOutcomes().empty());

    {
      ExperimentEngine E(withThreads(Threads));
      EXPECT_EQ(baselinesJson(measureSuiteBaselines(E, Ws)), Baselines);
    }
    {
      ExperimentEngine E(withThreads(Threads));
      EXPECT_EQ(suiteJson(measureSuite(E, Ws)), Suite);
    }
    {
      ExperimentEngine E(withThreads(Threads));
      EXPECT_EQ(populationJson(classifySuitePopulation(E, Ws, false)),
                OutLoop);
    }
    {
      ExperimentEngine E(withThreads(Threads));
      EXPECT_EQ(populationJson(classifySuitePopulation(E, Ws, true)), InLoop);
    }
    {
      ExperimentEngine E(withThreads(Threads));
      EXPECT_EQ(sensitivityJson(measureSuiteSensitivity(E, Ws)),
                Sensitivity);
    }

    const std::vector<std::string> All = {Baselines, Suite, OutLoop, InLoop,
                                          Sensitivity};
    if (Threads == 1)
      Serial = All;
    else
      EXPECT_EQ(All, Serial);
  }
}

// ProgramCache::clear() is the cold-start reset: no result survives it.
TEST(ExperimentEngine, MemoDroppedByProgramCacheClear) {
  ChaseWorkload W;
  ExperimentEngine Engine(withThreads(2));
  const std::string First = suiteJson(measureSuite(Engine, {&W}));
  const size_t Jobs = Engine.lastOutcomes().size();
  ASSERT_EQ(Jobs, 14u);
  measureSuite(Engine, {&W});
  EXPECT_TRUE(Engine.lastOutcomes().empty());

  ProgramCache::global().clear();
  EXPECT_EQ(suiteJson(measureSuite(Engine, {&W})), First);
  EXPECT_EQ(Engine.lastOutcomes().size(), Jobs);
}

// The key compares the whole PipelineConfig by value, nested fields
// included.
TEST(ExperimentEngine, MemoMissesOnAnyNestedConfigField) {
  PipelineConfig Latency;
  Latency.Memory.MemoryLatency += 40;
  PipelineConfig HitLatency;
  HitLatency.Memory.Levels[1].HitLatency += 1;
  PipelineConfig Threshold;
  Threshold.Classifier.SsstThreshold = 0.75;
  EXPECT_FALSE(Latency == PipelineConfig());
  EXPECT_FALSE(HitLatency == PipelineConfig());
  EXPECT_FALSE(Threshold == PipelineConfig());

  ChaseWorkload W;
  ExperimentEngine Engine(withThreads(2));
  measureSuite(Engine, {&W});
  for (const PipelineConfig *C : {&Latency, &HitLatency, &Threshold}) {
    measureSuite(Engine, {&W}, *C);
    EXPECT_EQ(Engine.lastOutcomes().size(), 14u);
  }
  measureSuite(Engine, {&W}, HitLatency);
  EXPECT_TRUE(Engine.lastOutcomes().empty());
}

// A job that throws is not memoized: the next call reruns exactly it.
// The memo's telemetry counts one hit or miss per requested job.
TEST(ExperimentEngine, MemoSkipsFailedJobs) {
  FlakyWorkload W;
  W.FailuresLeft = 1;
  EngineOptions Opts = withThreads(1);
  Opts.Obs.Enabled = true;
  ExperimentEngine Engine(Opts);
  // The baseline ref run is the first job to build the reference input.
  EXPECT_THROW(measureSuite(Engine, {&W}), std::runtime_error);
  ASSERT_EQ(Engine.lastOutcomes().size(), 14u);
  EXPECT_FALSE(Engine.lastOutcomes()[0].Ok);

  const std::string Second = suiteJson(measureSuite(Engine, {&W}));
  ASSERT_EQ(Engine.lastOutcomes().size(), 1u);
  EXPECT_TRUE(Engine.lastOutcomes()[0].Ok);
  EXPECT_EQ(Engine.obs()->jobs().back().Name, "baseline:test.flaky/ref");

  ExperimentEngine Fresh(withThreads(1));
  EXPECT_EQ(suiteJson(measureSuite(Fresh, {&W})), Second);

  const MetricsRegistry &Reg = Engine.obs()->registry();
  EXPECT_EQ(Reg.counters().at("engine.memo_misses").value(), 15u);
  EXPECT_EQ(Reg.counters().at("engine.memo_hits").value(), 13u);
}

// Trace capture writes a file per profile run, so capturing calls bypass
// the memo entirely.
TEST(ExperimentEngine, MemoBypassedWhileCapturingTraces) {
  ChaseWorkload W;
  PipelineConfig Config;
  Config.TraceCapturePath = ::testing::TempDir() + "memo_bypass.sprof.trace";
  ExperimentEngine Engine(withThreads(1));
  for (int Call = 0; Call != 2; ++Call) {
    classifySuitePopulation(Engine, {&W}, false, Config);
    EXPECT_EQ(Engine.lastOutcomes().size(), 1u);
  }
  std::remove(Config.TraceCapturePath.c_str());
}

// -- Run memo ---------------------------------------------------------------

/// A counter's value in \p Reg, 0 when it was never touched.
uint64_t counterValue(const MetricsRegistry &Reg, const std::string &Name) {
  auto It = Reg.counters().find(Name);
  return It == Reg.counters().end() ? 0 : It->second.value();
}

ObsConfig metricsOnly() {
  ObsConfig C;
  C.Enabled = true;
  return C;
}

/// A RunKey no real run has, distinguished by \p Tag.
RunKey fakeKey(uint64_t Tag) {
  RunKey K;
  K.Module = {Tag, ~Tag};
  K.Name = "test.fake";
  return K;
}

TimedRun runWithCycles(uint64_t Cycles) {
  TimedRun R;
  R.Stats.Completed = true;
  R.Stats.Cycles = Cycles;
  return R;
}

// A prefetched run whose feedback inserts nothing executes the baseline
// module on the baseline input: it is the baseline run, executed once.
TEST(RunMemo, PrefetchedRunInsertingNothingSharesTheBaselineRun) {
  ChaseWorkload W;
  ProgramCache::global().clear();
  PipelineConfig Config;
  Config.Obs = metricsOnly();
  Pipeline P(W, Config);
  const RunStats Base = P.runBaseline(DataSet::Train);

  Program Prog = W.build(DataSet::Train);
  const TimedRunResult Pf =
      P.runPrefetched(DataSet::Train, EdgeProfile(Prog.M.Functions.size()),
                      StrideProfile(Prog.M.NumLoadSites));
  const PrefetchInsertionStats &I = Pf.Prefetches;
  EXPECT_EQ(I.SsstPrefetches + I.PmstPrefetches + I.WsstPrefetches +
                I.DependentPrefetches,
            0u);
  EXPECT_TRUE(Base.Completed);
  EXPECT_EQ(Pf.Stats, Base);
  EXPECT_FALSE(Pf.Attribution.Enabled);

  const MetricsRegistry &Reg = P.obs()->registry();
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_misses"), 1u);
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_hits"), 1u);
  // Both calls count, but the interpreter ran once.
  EXPECT_EQ(counterValue(Reg, "pipeline.baseline_runs"), 1u);
  EXPECT_EQ(counterValue(Reg, "pipeline.timed_runs"), 1u);
  EXPECT_EQ(counterValue(Reg, "interp.runs"), 1u);
  EXPECT_EQ(counterValue(Reg, "interp.instructions"), Base.Instructions);
}

// Concurrent requesters of one key wait on the first one's run instead of
// executing it again, and all get its result.
TEST(RunMemo, ConcurrentRequestersShareOneExecution) {
  RunMemo Memo;
  const RunKey K = fakeKey(1);
  std::atomic<int> Executions{0}, Executed{0};
  std::vector<uint64_t> Cycles(4, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Cycles.size(); ++T)
    Threads.emplace_back([&, T] {
      bool Ran = false;
      Cycles[T] = Memo.run(
                          K,
                          [&] {
                            ++Executions;
                            // Long enough for the others to find the key
                            // in flight.
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(50));
                            return runWithCycles(1234);
                          },
                          Ran)
                      .Stats.Cycles;
      Executed += Ran ? 1 : 0;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Executions.load(), 1);
  EXPECT_EQ(Executed.load(), 1);
  EXPECT_EQ(Cycles, std::vector<uint64_t>(4, 1234));
  EXPECT_EQ(Memo.size(), 1u);
}

// The same through four engine workers running real baseline runs: one
// execution, equal results, and the memo's counters fold to one miss and
// three hits.
TEST(RunMemo, FourEngineWorkersRequestingOneRunExecuteItOnce) {
  ChaseWorkload W;
  ProgramCache::global().clear();
  EngineOptions Opts = withThreads(4);
  Opts.Obs = metricsOnly();
  ExperimentEngine Engine(Opts);
  std::vector<RunStats> Stats(4);
  for (size_t J = 0; J != Stats.size(); ++J)
    Engine.addJob("baseline" + std::to_string(J), "baseline-job",
                  [&W, &Stats, J](ObsSession *JobObs) {
                    Stats[J] =
                        Pipeline(W, {}, JobObs).runBaseline(DataSet::Ref);
                  });
  Engine.run();
  for (const RunStats &S : Stats)
    EXPECT_EQ(S, Stats[0]);
  EXPECT_TRUE(Stats[0].Completed);
  const MetricsRegistry &Reg = Engine.obs()->registry();
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_misses"), 1u);
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_hits"), 3u);
}

// A run that throws reaches every requester waiting on it and is not
// kept: the next request executes it again.
TEST(RunMemo, ThrowingRunReachesWaitersAndIsNotKept) {
  RunMemo Memo;
  const RunKey K = fakeKey(2);
  std::atomic<int> Executions{0}, Thrown{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      bool Ran = false;
      try {
        Memo.run(
            K,
            [&]() -> TimedRun {
              ++Executions;
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              throw std::runtime_error("run failed");
            },
            Ran);
      } catch (const std::runtime_error &E) {
        EXPECT_STREQ(E.what(), "run failed");
        ++Thrown;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Thrown.load(), 4);
  // A requester arriving after the failure executes (and fails) anew.
  EXPECT_GE(Executions.load(), 1);
  EXPECT_LE(Executions.load(), 4);
  EXPECT_EQ(Memo.size(), 0u);

  bool Ran = false;
  EXPECT_EQ(Memo.run(K, [] { return runWithCycles(7); }, Ran).Stats.Cycles,
            7u);
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Memo.run(K, [] { return runWithCycles(8); }, Ran).Stats.Cycles,
            7u);
  EXPECT_FALSE(Ran);
}

// ProgramCache::clear() is the cold-start reset: no run survives it.
TEST(RunMemo, DroppedByProgramCacheClear) {
  RunMemo Memo;
  const RunKey K = fakeKey(3);
  bool Ran = false;
  Memo.run(K, [] { return runWithCycles(1); }, Ran);
  EXPECT_TRUE(Ran);
  Memo.run(K, [] { return runWithCycles(2); }, Ran);
  EXPECT_FALSE(Ran);

  ProgramCache::global().clear();
  EXPECT_EQ(Memo.run(K, [] { return runWithCycles(3); }, Ran).Stats.Cycles,
            3u);
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Memo.size(), 1u);
}

// Completed entries beyond the bound drop oldest first.
TEST(RunMemo, StaysBounded) {
  RunMemo Memo;
  bool Ran = false;
  for (uint64_t Tag = 0; Tag != 1100; ++Tag)
    Memo.run(fakeKey(Tag), [] { return runWithCycles(1); }, Ran);
  EXPECT_EQ(Memo.size(), 1024u);
  Memo.run(fakeKey(1099), [] { return runWithCycles(1); }, Ran);
  EXPECT_FALSE(Ran);
  Memo.run(fakeKey(0), [] { return runWithCycles(1); }, Ran);
  EXPECT_TRUE(Ran);
}

// The key compares the timing, interpreter and memory configs by value:
// a different nested memory-system field, or the other execution engine,
// is a miss, so differential engine tests still execute both engines.
TEST(RunMemo, MissesOnNestedMemoryFieldAndEngine) {
  ChaseWorkload W;
  ProgramCache::global().clear();
  PipelineConfig HitLatency;
  HitLatency.Memory.Levels[1].HitLatency += 1;
  PipelineConfig Reference;
  Reference.Interp.Exec = InterpreterConfig::Engine::Reference;
  PipelineConfig Attributed;
  Attributed.Memory.EnableAttribution = true;

  PipelineConfig Default;

  ObsSession Session(metricsOnly());
  std::vector<RunStats> Stats;
  for (const PipelineConfig *C :
       {&HitLatency, &Reference, &Attributed, &Default})
    Stats.push_back(Pipeline(W, *C, &Session).runBaseline(DataSet::Train));
  const MetricsRegistry &Reg = Session.registry();
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_misses"), 4u);
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_hits"), 0u);
  EXPECT_EQ(counterValue(Reg, "interp.runs"), 4u);
  // Both engines ran, and agree.
  EXPECT_EQ(Stats[1], Stats[3]);

  Pipeline(W, Reference, &Session).runBaseline(DataSet::Train);
  EXPECT_EQ(counterValue(Reg, "engine.run_memo_hits"), 1u);
}

// On a suite whose prefetched runs share modules, the memo's counters are
// deterministic (misses are the distinct runs), and every folded job
// counter is the same at one thread and at four, whichever job executed
// a shared run.
TEST(RunMemo, FoldedCountersIdenticalAcrossThreadCounts) {
  ChaseWorkload W;
  auto Fold = [&W](unsigned Threads) {
    ProgramCache::global().clear();
    EngineOptions Opts = withThreads(Threads);
    Opts.Obs = metricsOnly();
    ExperimentEngine Engine(Opts);
    const std::string Suite = suiteJson(measureSuite(Engine, {&W}));
    std::vector<std::pair<std::string, uint64_t>> Counters;
    std::vector<std::pair<std::string, double>> Gauges;
    Engine.obs()->registry().snapshotScalars(Counters, Gauges);
    // Scheduler wakeups depend on worker interleaving.
    Counters.erase(std::remove_if(Counters.begin(), Counters.end(),
                                  [](const auto &KV) {
                                    return KV.first.rfind("engine.sched.",
                                                          0) == 0;
                                  }),
                   Counters.end());
    return std::make_pair(Suite, Counters);
  };
  const auto Serial = Fold(1);
  auto Value = [&Serial](const std::string &Name) {
    for (const auto &[K, V] : Serial.second)
      if (K == Name)
        return V;
    return uint64_t{0};
  };
  EXPECT_GT(Value("engine.run_memo_hits"), 0u);
  EXPECT_GT(Value("engine.run_memo_misses"), 0u);
  EXPECT_EQ(Value("engine.run_memo_hits") + Value("engine.run_memo_misses"),
            Value("pipeline.baseline_runs") + Value("pipeline.timed_runs"));
  EXPECT_EQ(Fold(4), Serial);
}

} // namespace
