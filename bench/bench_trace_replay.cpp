//===- bench/bench_trace_replay.cpp - Trace capture/replay throughput ------===//
//
// Part of the StrideProf project (see sprof_repro.cpp for the
// project reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream frontend's headline numbers: for each suite workload, capture
/// a live edge-check profile run into a sprof.trace file, then replay it
/// through the stream-driven profile phase and report
///
///   * capture size (events, bytes, bytes/event of the delta encoding),
///   * replay throughput (events/sec, wall clock, best of three), and
///   * fidelity -- the replayed stride profile must be bit-identical to
///     the live run's, or the bench exits 1.
///
/// The aggregate events/sec feeds the bench trajectory
/// (scripts/bench_trajectory.py, "replay_events_per_sec").
///
/// A second section measures parallel replay scaling: a large synthetic
/// trace (default 10M events, `--scale-events=N` overrides) replayed with
/// one thread and with `--threads=N` (default 8) workers through the /2
/// shard index + site-sharded profile path. The threaded replay's stride
/// profile, invocation/processed/LFU counts, simulated cycles and event
/// count must all equal the serial replay's, or the bench exits 1; the
/// serial/parallel wall-clock ratio feeds the trajectory as
/// "replay_parallel_speedup".
///
//===----------------------------------------------------------------------===//

#include "driver/Experiments.h"
#include "driver/TraceReplay.h"
#include "obs/Report.h"
#include "stream/SyntheticTrace.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <iostream>
#include <utility>

using namespace sprof;

namespace {

std::string tmpDir() {
  const char *T = std::getenv("TMPDIR");
  std::string Dir = T && *T ? T : "/tmp";
  if (Dir.back() != '/')
    Dir += '/';
  return Dir;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  // `--scale-events=N` sizes the synthetic scaling trace. CI passes a
  // reduced value; the default is the acceptance bar's 10M-event shape.
  BenchCli Cli;
  Cli.Threads = 8;
  Cli.ReportPath = "bench_trace_replay.json";
  uint64_t ScaleLoads = 10'000'000;
  auto ScaleArg = [&](std::string_view Arg) {
    return Arg.starts_with("--scale-events=") &&
           parseBenchCount(Arg.substr(15), 1, UINT64_MAX, ScaleLoads);
  };
  if (!parseBenchCli(Argc, Argv, Cli, ScaleArg)) {
    std::cerr << "usage: bench_trace_replay [--threads=N] "
                 "[--scale-events=N] [--json=PATH | --no-json]\n";
    return 2;
  }

  const ProfilingMethod Method = ProfilingMethod::EdgeCheck;
  constexpr int Reps = 3;

  Table T("Trace capture + replay (edge-check, train input)");
  T.row({"benchmark", "events", "bytes", "B/event", "replay s", "Mev/s",
         "fidelity"});

  JsonValue Rows = JsonValue::array();
  uint64_t TotalEvents = 0;
  double TotalSeconds = 0.0;
  bool AllIdentical = true;

  for (const std::unique_ptr<Workload> &W : makeSpecIntSuite()) {
    const std::string Name = W->info().Name;
    const std::string Path =
        tmpDir() + "bench_trace_replay_" + Name + ".sprof.trace";

    PipelineConfig Config;
    Config.TraceCapturePath = Path;
    Pipeline P(*W, Config);
    const ProfileRunResult Live =
        P.runProfile(Method, DataSet::Train, /*WithMemorySystem=*/false);
    if (!Live.Capture.Enabled) {
      std::cerr << "error: " << Name << ": trace capture failed (" << Path
                << ")\n";
      return 1;
    }

    TraceReplayOptions Opts;
    Opts.EvaluateWorkload = false;
    Opts.SimulateMemory = false;
    double Best = 0.0;
    bool Identical = true;
    for (int R = 0; R != Reps; ++R) {
      const auto Start = std::chrono::steady_clock::now();
      const TraceReplayResult Replay = replayTraceFile(Path, Opts);
      const double Elapsed = secondsSince(Start);
      if (!Replay.Ok) {
        std::cerr << "error: " << Name << ": replay failed: " << Replay.Error
                  << "\n";
        return 1;
      }
      if (R == 0)
        Identical =
            strideProfileToJson(Replay.Profile.Strides).str() ==
                strideProfileToJson(Live.Strides).str() &&
            edgeProfileToJson(Replay.Profile.Edges).str() ==
                edgeProfileToJson(Live.Edges).str();
      if (Best == 0.0 || Elapsed < Best)
        Best = Elapsed;
    }
    std::remove(Path.c_str());
    AllIdentical = AllIdentical && Identical;

    const double EventsPerSec =
        Best > 0.0 ? static_cast<double>(Live.Capture.Events) / Best : 0.0;
    const double BytesPerEvent =
        Live.Capture.Events
            ? static_cast<double>(Live.Capture.Bytes) /
                  static_cast<double>(Live.Capture.Events)
            : 0.0;
    TotalEvents += Live.Capture.Events;
    TotalSeconds += Best;

    T.row({Name, std::to_string(Live.Capture.Events),
           std::to_string(Live.Capture.Bytes),
           Table::fmt(BytesPerEvent, 2), Table::fmt(Best, 4),
           Table::fmt(EventsPerSec / 1e6, 2),
           Identical ? "bit-identical" : "DIVERGED"});

    JsonValue Row = JsonValue::object();
    Row.set("name", Name)
        .set("method", profilingMethodName(Method))
        .set("events", Live.Capture.Events)
        .set("bytes", Live.Capture.Bytes)
        .set("bytes_per_event", BytesPerEvent)
        .set("replay_seconds", Best)
        .set("events_per_sec", EventsPerSec)
        .set("bit_identical", Identical);
    Rows.push(std::move(Row));
  }

  const double AggregateEventsPerSec =
      TotalSeconds > 0.0 ? static_cast<double>(TotalEvents) / TotalSeconds
                         : 0.0;
  T.row({"total", std::to_string(TotalEvents), "-", "-",
         Table::fmt(TotalSeconds, 4),
         Table::fmt(AggregateEventsPerSec / 1e6, 2),
         AllIdentical ? "bit-identical" : "DIVERGED"});
  T.print(std::cout);

  if (!AllIdentical) {
    std::cerr << "error: replayed profiles diverged from the live runs\n";
    return 1;
  }

  // Parallel replay scaling: one big synthetic trace (mixed load/prefetch
  // kinds, so the Load filter is exercised), replayed serially and with
  // the thread pool over the /2 shard index.
  const unsigned Threads = Cli.Threads;
  const std::string ScalePath =
      tmpDir() + "bench_trace_replay_scale.sprof.trace";
  uint64_t ScaleTraceEvents = 0;
  uint64_t ScaleTraceBytes = 0;
  {
    SyntheticTraceConfig SC;
    SC.Events = ScaleLoads;
    SC.Seed = 1;
    auto Src = makeSyntheticTrace("stream-mixed", SC);
    if (!Src) {
      std::cerr << "error: cannot build the stream-mixed scaling trace\n";
      return 1;
    }
    std::string Err;
    auto W = TraceWriter::open(ScalePath, Src->numSites(), {}, /*Text=*/false,
                               &Err);
    if (!W) {
      std::cerr << "error: " << ScalePath << ": " << Err << "\n";
      return 1;
    }
    drainStream(*Src, *W, 4096);
    W->finish();
    if (!W->ok()) {
      std::cerr << "error: " << ScalePath << ": " << W->error() << "\n";
      return 1;
    }
    ScaleTraceEvents = W->eventsWritten();
    ScaleTraceBytes = W->bytesWritten();
  }

  TraceReplayOptions ScaleOpts;
  ScaleOpts.EvaluateWorkload = false;
  ScaleOpts.SimulateMemory = false;
  ScaleOpts.Method = Method;
  // What serial and threaded replays must agree on, field by field.
  struct Fidelity {
    std::string Strides;
    uint64_t Invocations = 0, Processed = 0, LfuCalls = 0, Cycles = 0,
             Events = 0;
  };
  double SerialBest = 0.0, ParallelBest = 0.0;
  Fidelity SerialOut, ParallelOut;
  for (const unsigned N : {1u, Threads}) {
    ScaleOpts.Threads = N;
    double Best = 0.0;
    for (int R = 0; R != Reps; ++R) {
      const auto Start = std::chrono::steady_clock::now();
      const TraceReplayResult Replay = replayTraceFile(ScalePath, ScaleOpts);
      const double Elapsed = secondsSince(Start);
      if (!Replay.Ok) {
        std::cerr << "error: scaling replay (threads=" << N
                  << ") failed: " << Replay.Error << "\n";
        return 1;
      }
      if (R == 0) {
        Fidelity &Out = N == 1 ? SerialOut : ParallelOut;
        Out.Strides = strideProfileToJson(Replay.Profile.Strides).str();
        Out.Invocations = Replay.Profile.StrideInvocations;
        Out.Processed = Replay.Profile.StrideProcessed;
        Out.LfuCalls = Replay.Profile.LfuCalls;
        Out.Cycles = Replay.Profile.Stats.RuntimeCycles;
        Out.Events = Replay.Events;
      }
      if (Best == 0.0 || Elapsed < Best)
        Best = Elapsed;
    }
    (N == 1 ? SerialBest : ParallelBest) = Best;
    if (N == Threads)
      break; // Threads == 1: one measurement serves both roles
  }
  if (Threads == 1) {
    ParallelBest = SerialBest;
    ParallelOut = SerialOut;
  }
  std::remove(ScalePath.c_str());

  const std::pair<const char *, bool> Checks[] = {
      {"stride profile", ParallelOut.Strides == SerialOut.Strides},
      {"StrideInvocations", ParallelOut.Invocations == SerialOut.Invocations},
      {"StrideProcessed", ParallelOut.Processed == SerialOut.Processed},
      {"LfuCalls", ParallelOut.LfuCalls == SerialOut.LfuCalls},
      {"Stats.RuntimeCycles", ParallelOut.Cycles == SerialOut.Cycles},
      {"Events", ParallelOut.Events == SerialOut.Events},
  };
  bool ScaleIdentical = true;
  for (const auto &[Field, Same] : Checks)
    if (!Same) {
      std::cerr << "error: parallel replay's " << Field
                << " differs from serial on the scaling trace\n";
      ScaleIdentical = false;
    }
  const double Speedup =
      ParallelBest > 0.0 ? SerialBest / ParallelBest : 0.0;

  Table S("Parallel replay scaling (stream-mixed, " +
          std::to_string(ScaleTraceEvents) + " events)");
  S.row({"threads", "serial s", "parallel s", "speedup", "fidelity"});
  S.row({std::to_string(Threads), Table::fmt(SerialBest, 4),
         Table::fmt(ParallelBest, 4), Table::fmt(Speedup, 2),
         ScaleIdentical ? "bit-identical" : "DIVERGED"});
  S.print(std::cout);

  if (!ScaleIdentical)
    return 1;

  JsonValue Doc = JsonValue::object();
  Doc.set("replay_events_per_sec", AggregateEventsPerSec)
      .set("total_events", TotalEvents)
      .set("total_replay_seconds", TotalSeconds)
      .set("replay_parallel_speedup", Speedup)
      .set("scale_events", ScaleTraceEvents)
      .set("scale_bytes", ScaleTraceBytes)
      .set("scale_threads", static_cast<uint64_t>(Threads))
      .set("scale_serial_seconds", SerialBest)
      .set("scale_parallel_seconds", ParallelBest)
      .set("scale_bit_identical", ScaleIdentical)
      .set("benchmarks", std::move(Rows));
  return emitBenchReport(Cli.ReportPath, "trace-replay", std::move(Doc));
}
