//===- driver/TraceReplay.cpp - Trace-replay frontend ---------------------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/TraceReplay.h"

#include "driver/ParallelReplay.h"
#include "workloads/Workload.h"

#include <cassert>

namespace sprof {

TraceEdgeSection edgeSectionFromProfile(const EdgeProfile &EP) {
  TraceEdgeSection S;
  S.Present = true;
  S.NumFunctions = static_cast<uint32_t>(EP.numFunctions());
  for (uint32_t F = 0; F != S.NumFunctions; ++F) {
    // Zero counts are recorded too: a replayed EdgeProfile must compare
    // equal to the harvested one entry for entry, not just value for
    // value, so the classifier sees the identical structure.
    S.Entries.push_back({F, EP.entryCount(F)});
    for (const auto &[E, Count] : EP.functionEdges(F))
      S.Edges.push_back({F, E.From, static_cast<uint32_t>(E.Slot), Count});
  }
  return S;
}

EdgeProfile edgeProfileFromSection(const TraceEdgeSection &S) {
  EdgeProfile EP(S.NumFunctions);
  for (const TraceEntryRecord &R : S.Entries)
    EP.setEntryCount(R.Func, R.Count);
  for (const TraceEdgeRecord &R : S.Edges)
    EP.setFrequency(R.Func, Edge{R.From, R.Slot}, R.Count);
  return EP;
}

namespace {

/// The prefetched stream pass: every Load event at a site with a
/// synthesized stride additionally issues a prefetch StrideValue *
/// Distance bytes ahead, mimicking the in-loop prefetch the compiler
/// would have inserted (Figure 3).
StreamReplayStats replayWithSyntheticPrefetch(
    MemoryHierarchy &MH, AccessSource &Src, const StreamReplayConfig &Config,
    const std::vector<int64_t> &SiteStride, unsigned Distance) {
  StreamReplayStats S;
  std::vector<AccessEvent> Buf(Config.BatchSize ? Config.BatchSize : 1);
  uint64_t Now = 0;
  while (size_t N = Src.pull(Buf.data(), Buf.size())) {
    for (size_t I = 0; I < N; ++I) {
      const AccessEvent &E = Buf[I];
      Now += Config.IssueCost;
      if (E.Kind == AccessKind::Prefetch) {
        MH.prefetch(E.Address, Now, E.SiteId);
        ++S.Prefetches;
      } else {
        const uint64_t Latency = MH.demandAccess(E.Address, Now, E.SiteId);
        const uint64_t Stall =
            Latency > Config.HiddenLatency ? Latency - Config.HiddenLatency
                                           : 0;
        Now += Stall;
        S.StallCycles += Stall;
        ++S.Loads;
        const int64_t Stride =
            E.SiteId < SiteStride.size() ? SiteStride[E.SiteId] : 0;
        if (Stride != 0) {
          Now += Config.IssueCost;
          MH.prefetch(E.Address +
                          static_cast<uint64_t>(Stride) * Distance,
                      Now, E.SiteId);
          ++S.Prefetches;
        }
      }
      ++S.Events;
    }
  }
  S.Cycles = Now;
  return S;
}

/// A replay's identity: everything known before pass 1 runs.
TraceReplayResult beginReplay(const TraceReplayOptions &Opts,
                              const std::string &SourceName,
                              const TraceProvenance *Prov,
                              uint32_t NumSites) {
  TraceReplayResult R;
  R.Source = SourceName;
  if (Prov)
    R.Prov = *Prov;
  R.NumSites = NumSites;
  R.Method = Opts.Method.value_or(ProfilingMethod::EdgeCheck);
  R.Ok = true;
  return R;
}

/// Workload resolution: a trace that names a workload we can rebuild gets
/// the full live-pipeline evaluation (builds are deterministic, so this
/// reproduces the capturing run's modules bit for bit).
std::unique_ptr<Workload> replayWorkload(const TraceReplayOptions &Opts,
                                         const TraceReplayResult &R) {
  if (!Opts.EvaluateWorkload || R.Prov.Workload.empty())
    return nullptr;
  return makeWorkloadByName(R.Prov.Workload);
}

StrideProfilerConfig replayProfilerConfig(const TraceReplayOptions &Opts,
                                          ProfilingMethod Method) {
  StrideProfilerConfig PC = Opts.Config.Profiler;
  PC.Sampling.Enabled = methodUsesSampling(Method);
  return PC;
}

/// Moves a sharded profile phase into R.Profile; false (with R's error
/// set) when a shard failed.
bool takeShardedProfile(TraceReplayResult &R, ShardedProfileResult SP) {
  R.Profile = SP.takeProfileRun(R.Method);
  if (!SP.Ok) {
    R.Ok = false;
    R.Error = SP.Error;
    R.ErrorCode = SP.ErrorCode;
  }
  return SP.Ok;
}

/// Pass 1 -- the profile phase, pulled from \p Src. False (with R's error
/// set) when a profile shard failed.
bool profileFromSource(TraceReplayResult &R, AccessSource &Src,
                       const TraceReplayOptions &Opts, const Workload *W) {
  if (W) {
    Pipeline PL(*W, Opts.Config);
    R.Profile = PL.profileFromStream(Src, R.Method, Opts.Threads);
    return true;
  }
  const StrideProfilerConfig PC = replayProfilerConfig(Opts, R.Method);
  if (Opts.Threads > 1)
    // Site-sharded parallel profile (driver/ParallelReplay.h);
    // bit-identical to the serial branch below.
    return takeShardedProfile(R, profileEventsSharded(Src, PC, Opts.Threads,
                                                      Opts.ProfileShards));
  StrideProfiler P(Src.numSites(), PC);
  R.Profile.Method = R.Method;
  R.Profile.Stats.RuntimeCycles =
      P.consume(Src, Opts.Config.Interp.StrideBatchWindow);
  R.Profile.Stats.Cycles = R.Profile.Stats.RuntimeCycles;
  R.Profile.Stats.Completed = true;
  R.Profile.Strides = StrideProfile::fromProfiler(P);
  R.Profile.StrideInvocations = P.totalInvocations();
  R.Profile.StrideProcessed = P.totalProcessed();
  R.Profile.LfuCalls = P.totalLfuCalls();
  return true;
}

/// Everything after the profile phase: stream-only classification, the
/// workload evaluation (when \p W is set), and the memory passes, which
/// rewind \p Src (SimulateMemory; skipped when it cannot rewind).
void evaluateReplay(TraceReplayResult &R, AccessSource &Src,
                    const TraceReplayOptions &Opts, const Workload *W) {
  // Stream-only classification: every site, no frequency/trip filtering.
  R.SiteClass.resize(R.Profile.Strides.numSites(), StrideClass::None);
  for (uint32_t S = 0; S != R.Profile.Strides.numSites(); ++S)
    R.SiteClass[S] =
        classifyStrideSummary(R.Profile.Strides.site(S),
                              Opts.Config.Classifier);

  // Pass 2 -- full prefetch evaluation against the rebuilt workload,
  // exactly what the live pipeline does with a freshly collected profile.
  if (W) {
    Pipeline PL(*W, Opts.Config);
    const DataSet DS =
        R.Prov.DataSet == "ref" ? DataSet::Ref : DataSet::Train;
    R.Baseline = PL.runBaseline(DS);
    R.Timed = PL.runPrefetched(DS, R.Profile.Edges, R.Profile.Strides);
    if (R.Timed.Stats.Cycles != 0)
      R.Speedup = static_cast<double>(R.Baseline.Cycles) /
                  static_cast<double>(R.Timed.Stats.Cycles);
    R.HasWorkload = true;
  }

  // Passes 3/4 -- cache model driven straight from the stream: demand
  // replay, then demand + synthesized prefetches for classified sites.
  if (Opts.SimulateMemory && Src.reset()) {
    StreamReplayConfig SC;
    SC.HiddenLatency = Opts.Config.Timing.FlatLoadLatency;
    SC.BatchSize = Opts.Config.Interp.StrideBatchWindow;
    MemoryHierarchy Base(Opts.Config.Memory);
    R.MemBaseline = replayAccessStream(Base, Src, SC);
    R.MemBaselineStats = Base.stats();
    if (Src.reset()) {
      std::vector<int64_t> SiteStride(R.SiteClass.size(), 0);
      for (uint32_t S = 0; S != R.SiteClass.size(); ++S) {
        const StrideClass C = R.SiteClass[S];
        const bool Prefetchable =
            C == StrideClass::SSST || C == StrideClass::PMST ||
            (C == StrideClass::WSST &&
             Opts.Config.Classifier.EnableWsstPrefetch);
        if (Prefetchable)
          SiteStride[S] = R.Profile.Strides.site(S).top1Stride();
      }
      MemoryHierarchy Pf(Opts.Config.Memory);
      if (Opts.Config.Memory.EnableAttribution)
        Pf.enableAttribution(Src.numSites());
      R.MemPrefetched = replayWithSyntheticPrefetch(
          Pf, Src, SC, SiteStride, Opts.StreamPrefetchDistance);
      Pf.finalizeAttribution();
      R.MemPrefetchedStats = Pf.stats();
      R.HasMemSim = true;
    }
  }
}

/// A replay that failed reading its trace.
TraceReplayResult readFailure(const std::string &Path,
                              const TraceReader &Reader) {
  TraceReplayResult R;
  R.Source = Path;
  R.Error = Reader.error();
  R.ErrorCode = Reader.errorCode();
  return R;
}

} // namespace

TraceReplayResult replayStream(AccessSource &Src,
                               const TraceReplayOptions &Opts,
                               const std::string &SourceName,
                               const TraceEdgeSection *Edges,
                               const TraceProvenance *Prov) {
  TraceReplayResult R = beginReplay(Opts, SourceName, Prov, Src.numSites());
  const std::unique_ptr<Workload> W = replayWorkload(Opts, R);
  if (!profileFromSource(R, Src, Opts, W.get()))
    return R;
  if (Edges && Edges->Present)
    R.Profile.Edges = edgeProfileFromSection(*Edges);
  // Loads the profiler saw; file replay counts decoded events instead
  // (which also includes prefetch-kind events).
  R.Events = R.Profile.StrideInvocations;
  evaluateReplay(R, Src, Opts, W.get());
  return R;
}

TraceReplayResult replayTraceFile(const std::string &Path,
                                  const TraceReplayOptions &Opts) {
  // Threaded replay opens through the seekable tail, so a /2 trace's shard
  // index is at hand; /1 and text traces come back positioned for a
  // sequential decode either way.
  const std::unique_ptr<TraceReader> Reader =
      Opts.Threads > 1 ? TraceReader::openFileIndexed(Path)
                       : TraceReader::openFile(Path);
  if (!Reader->ok())
    return readFailure(Path, *Reader);

  TraceReplayOptions O = Opts;
  if (!O.Method && !Reader->provenance().Method.empty()) {
    ProfilingMethod M;
    if (profilingMethodFromName(Reader->provenance().Method, M))
      O.Method = M;
  }
  TraceReplayResult R =
      beginReplay(O, Path, &Reader->provenance(), Reader->numSites());
  const std::unique_ptr<Workload> W = replayWorkload(O, R);

  if (Reader->index().Present) {
    // Fused decode + bucket over the shard index (driver/ParallelReplay.h);
    // the reader itself serves only the memory passes below.
    const TraceShardIndex &Idx = Reader->index();
    if (!takeShardedProfile(
            R, profileTraceSharded(Path, Idx,
                                   replayProfilerConfig(O, R.Method),
                                   O.Threads, O.ProfileShards)))
      return R;
    R.Events = Idx.TotalEvents;
  } else {
    // Pass 1 straight off the reader: no event is buffered, and a decode
    // error stops the replay before any later pass runs.
    if (!profileFromSource(R, *Reader, O, W.get()))
      return R;
    if (!Reader->ok())
      return readFailure(Path, *Reader);
    R.Events = Reader->eventCount();
  }
  // The edge section is valid once the footer is parsed; the memory
  // passes' reset() drops it again.
  if (Reader->edgeSection().Present)
    R.Profile.Edges = edgeProfileFromSection(Reader->edgeSection());
  evaluateReplay(R, *Reader, O, W.get());
  if (!Reader->ok())
    return readFailure(Path, *Reader);
  return R;
}

} // namespace sprof
