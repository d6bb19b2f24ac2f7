//===- driver/ParallelReplay.cpp - Trace-sharded parallel replay ----------===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/ParallelReplay.h"

#include "driver/JobGraph.h"
#include "obs/Obs.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace sprof {

namespace {

/// One bucketed load: everything profileAt() needs, including the load's
/// global position (LoadIndex drives the chunk-sampling phase).
struct IndexedLoad {
  uint64_t Address;
  uint64_t GlobalRef;
  uint64_t LoadIndex;
  uint32_t SiteId;
};

/// One producer's loads, one column per profile shard. Each column holds
/// the producer's loads of that shard's sites in program order.
using ShardColumns = std::vector<std::vector<IndexedLoad>>;

/// The bucketing step every producer shares: \p E, the \p LoadIndex'th
/// load of the run, goes to the column of the shard owning its site.
inline void bucketLoad(ShardColumns &Cols, const AccessEvent &E,
                       uint64_t LoadIndex) {
  Cols[E.SiteId % Cols.size()].push_back(
      {E.Address, E.GlobalRefIndex, LoadIndex, E.SiteId});
}

/// The shard count actually used: 0 means one per thread (\p Threads >=
/// 1), and no shard may be left without sites.
unsigned clampShards(unsigned Threads, unsigned Shards, uint32_t NumSites) {
  if (Shards == 0)
    Shards = Threads;
  if (NumSites != 0 && Shards > NumSites)
    Shards = NumSites;
  return std::max(1u, Shards);
}

/// What one profile shard produced; folded in job-id order.
struct ShardRun {
  uint64_t Cycles = 0;
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  StrideProfile Strides;
};

/// The profile fan-out and its fold, shared by every producer layout: the
/// job for shard S walks column S of each producer in producer order --
/// producers hold consecutive stretches of the run, so that is the
/// shard's loads in program order -- through a private full-size
/// profiler (sites index directly) against a private obs scope.
ShardedProfileResult profileColumns(const std::vector<ShardColumns> &Producers,
                                    uint32_t NumSites,
                                    const StrideProfilerConfig &PC,
                                    unsigned Threads, unsigned Shards,
                                    ObsSession *Obs) {
  ShardedProfileResult R;
  R.ShardsUsed = Shards;
  const uint64_t SessionStartUs = Obs ? Obs->trace().nowUs() : 0;
  std::vector<ShardRun> Runs(Shards);
  std::vector<std::unique_ptr<ObsSession>> ShardObs(Shards);
  JobGraph G;
  for (unsigned S = 0; S != Shards; ++S) {
    G.add("profile-shard-" + std::to_string(S), "replay-profile-job",
          [&, S](uint32_t) {
            ObsSession *Scope = nullptr;
            if (Obs) {
              ShardObs[S] = std::make_unique<ObsSession>(Obs->jobConfig());
              Scope = ShardObs[S].get();
            }
            StrideProfiler P(NumSites, PC);
            P.attachObs(Scope);
            ShardRun &Out = Runs[S];
            for (const ShardColumns &Cols : Producers)
              for (const IndexedLoad &L : Cols[S])
                Out.Cycles +=
                    P.profileAt(L.SiteId, L.Address, L.GlobalRef, L.LoadIndex);
            Out.Invocations = P.totalInvocations();
            Out.Processed = P.totalProcessed();
            Out.LfuCalls = P.totalLfuCalls();
            Out.Strides = StrideProfile::fromProfiler(P);
          });
  }
  const std::vector<JobOutcome> Outcomes = G.run(Threads);

  // Job-id-ordered fold (as ExperimentEngine::run folds job telemetry):
  // profile scalars sum, per-site stride tables union into an empty
  // profile -- shards own disjoint site sets, so the fold is a verbatim
  // ordered copy of each shard's tables and no re-sort or truncation is
  // needed.
  R.Strides = StrideProfile(NumSites);
  const size_t JobBase = Obs ? Obs->jobs().size() : 0;
  for (unsigned S = 0; S != Shards; ++S) {
    const JobOutcome &O = Outcomes[S];
    if (!O.Ok) {
      R.Ok = false;
      R.Error = "profile shard " + std::to_string(S) + " failed: " + O.Error;
      return R;
    }
    R.RuntimeCycles += Runs[S].Cycles;
    R.Invocations += Runs[S].Invocations;
    R.Processed += Runs[S].Processed;
    R.LfuCalls += Runs[S].LfuCalls;
    mergeStrideProfile(R.Strides, Runs[S].Strides);
    if (ObsSession *Scope = ShardObs[S].get()) {
      Obs->registry().merge(Scope->registry());
      JobRecord Rec;
      Rec.Id = JobBase + S;
      Rec.Name = G.name(S);
      Rec.Category = G.category(S);
      Rec.ReadyUs = SessionStartUs + O.ReadyUs;
      Rec.StartUs = SessionStartUs + O.StartUs;
      Rec.DurationUs = O.DurationUs;
      Rec.Worker = O.Worker;
      Rec.Ok = true;
      Rec.Metrics = Scope->registry();
      Obs->trace().appendCompletedSpan(Rec.Name, Rec.Category, Rec.StartUs,
                                       O.DurationUs, O.Worker, /*Depth=*/0);
      Obs->recordJob(std::move(Rec));
    }
  }
  if (Obs) {
    if (Counter *C = Obs->counter("replay.parallel_runs"))
      C->inc();
    if (Counter *C = Obs->counter("replay.profile_shards"))
      C->inc(Shards);
  }
  R.Ok = true;
  return R;
}

/// Why a decode job failed; Failed stays false for a healthy range.
struct DecodeFailure {
  bool Failed = false;
  std::string Msg;
  TraceError Code = TraceError::None;
};

/// Where a decode job puts its events. window() names the buffer the next
/// pull decodes into (at most \p Room events); load() sees every load of
/// that batch with its global 0-based position.
struct FlatOutput {
  AccessEvent *Slot; ///< the range's precomputed slot of the flat buffer
  AccessEvent *window(uint64_t Got, uint64_t Want, size_t &Room) {
    Room = static_cast<size_t>(Want - Got);
    return Slot + Got;
  }
  void load(const AccessEvent &, uint64_t) {}
};

struct BucketOutput {
  ShardColumns &Cols;
  std::vector<AccessEvent> Batch = std::vector<AccessEvent>(4096);
  AccessEvent *window(uint64_t Got, uint64_t Want, size_t &Room) {
    Room = static_cast<size_t>(std::min<uint64_t>(Batch.size(), Want - Got));
    return Batch.data();
  }
  void load(const AccessEvent &E, uint64_t LoadIndex) {
    bucketLoad(Cols, E, LoadIndex);
  }
};

/// The decode job body: decodes chunks [First, First + N) of the indexed
/// trace \p Path into \p Out, then cross-checks the range against the
/// index -- byte boundary (via the shard reader), event count, and load
/// count -- so a damaged range fails instead of leaking into a merge.
template <typename Output>
void decodeChunkRange(const std::string &Path, const TraceShardIndex &Idx,
                      size_t First, size_t N, Output &Out, DecodeFailure &F) {
  const size_t End = First + N;
  const bool Last = End == Idx.numChunks();
  const uint64_t Want =
      (Last ? Idx.TotalEvents : Idx.Chunks[End].CumEvents) -
      Idx.Chunks[First].CumEvents;
  const uint64_t LoadBase = Idx.Chunks[First].CumLoads;
  const uint64_t WantLoads =
      (Last ? Idx.TotalLoads : Idx.Chunks[End].CumLoads) - LoadBase;
  const std::string Range = Path + ": shard over chunks [" +
                            std::to_string(First) + ", " +
                            std::to_string(End) + ")";

  auto SR = TraceReader::openShard(Path, Idx, First, N);
  uint64_t Got = 0, Loads = 0;
  while (Got < Want) {
    size_t Room = 0;
    AccessEvent *Win = Out.window(Got, Want, Room);
    const size_t K = SR->pull(Win, Room);
    if (K == 0)
      break;
    for (size_t I = 0; I != K; ++I)
      if (Win[I].Kind == AccessKind::Load)
        Out.load(Win[I], LoadBase + Loads++);
    Got += K;
  }
  // One pull past the end drives the reader's byte-boundary cross-check
  // (it fires on the pull after the last event).
  AccessEvent Tail;
  if (SR->ok() && SR->pull(&Tail, 1) != 0) {
    F = {true, Range + " decoded more events than the index promised",
         TraceError::Corrupt};
    return;
  }
  if (!SR->ok()) {
    F = {true, SR->error(), SR->errorCode()};
    return;
  }
  if (Got != Want || !SR->atEnd()) {
    F = {true,
         Range + " decoded " + std::to_string(Got) +
             " events, index promised " + std::to_string(Want),
         TraceError::Corrupt};
    return;
  }
  // Carried-state corruption that still lands on the right byte boundary
  // shows up in the load count.
  if (Loads != WantLoads)
    F = {true,
         Range + " decoded " + std::to_string(Loads) +
             " loads, index promised " + std::to_string(WantLoads),
         TraceError::Corrupt};
}

/// The decode fan-out's ranges: contiguous runs of PerJob chunks (the
/// last holds the remainder), a few per worker so the pool load-balances
/// when ranges decode at different speeds.
struct DecodePlan {
  size_t PerJob = 1;
  size_t Jobs = 0;
};

DecodePlan planDecode(const TraceShardIndex &Idx, unsigned Threads) {
  DecodePlan P;
  const size_t NumChunks = Idx.numChunks();
  if (NumChunks == 0)
    return P;
  const size_t Target =
      std::min<size_t>(NumChunks, static_cast<size_t>(Threads) * 4);
  P.PerJob = (NumChunks + Target - 1) / Target;
  P.Jobs = (NumChunks + P.PerJob - 1) / P.PerJob;
  return P;
}

/// Runs \p Plan's decode jobs on \p Threads workers; \p Run(J, First, N,
/// F) is job J's body over chunks [First, First + N). Returns false with
/// the first failing range's error, in range order.
template <typename RangeFn>
bool runDecodeJobs(const TraceShardIndex &Idx, const DecodePlan &Plan,
                   unsigned Threads, RangeFn Run, std::string &Error,
                   TraceError &Code) {
  const size_t NumChunks = Idx.numChunks();
  std::vector<DecodeFailure> Failures(Plan.Jobs);
  JobGraph G;
  for (size_t J = 0; J != Plan.Jobs; ++J) {
    const size_t First = J * Plan.PerJob;
    const size_t N = std::min(Plan.PerJob, NumChunks - First);
    G.add("decode-chunks-" + std::to_string(First) + "-" +
              std::to_string(First + N),
          "replay-decode-job",
          [&, J, First, N](uint32_t) { Run(J, First, N, Failures[J]); });
  }
  const std::vector<JobOutcome> Outcomes = G.run(Threads);
  for (size_t J = 0; J != Plan.Jobs; ++J) {
    if (Failures[J].Failed) {
      Error = Failures[J].Msg;
      Code = Failures[J].Code;
      return false;
    }
    if (!Outcomes[J].Ok) {
      Error = "decode job " + std::to_string(J) + " failed: " +
              Outcomes[J].Error;
      Code = TraceError::Io;
      return false;
    }
  }
  return true;
}

} // namespace

ProfileRunResult ShardedProfileResult::takeProfileRun(ProfilingMethod Method) {
  ProfileRunResult P;
  P.Method = Method;
  P.Stats.RuntimeCycles = RuntimeCycles;
  P.Stats.Cycles = RuntimeCycles;
  P.Stats.Completed = Ok;
  P.Strides = std::move(Strides);
  P.StrideInvocations = Invocations;
  P.StrideProcessed = Processed;
  P.LfuCalls = LfuCalls;
  return P;
}

ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads, unsigned Shards,
                                          ObsSession *Obs) {
  const uint32_t NumSites = Src.numSites();
  Threads = std::max(1u, Threads);
  Shards = clampShards(Threads, Shards, NumSites);

  // A source has no index to fan out over, so it is bucketed by one
  // serial producer: site-partitioned loads, each with its 0-based global
  // position.
  std::vector<ShardColumns> Producers(1, ShardColumns(Shards));
  std::vector<AccessEvent> Buf(4096);
  uint64_t LoadIndex = 0;
  while (size_t N = Src.pull(Buf.data(), Buf.size()))
    for (size_t I = 0; I != N; ++I)
      // strideProf only ever sees demand loads (see
      // StrideProfiler::consume, whose filter this mirrors).
      if (Buf[I].Kind == AccessKind::Load)
        bucketLoad(Producers[0], Buf[I], LoadIndex++);

  return profileColumns(Producers, NumSites, PC, Threads, Shards, Obs);
}

ShardedProfileResult profileTraceSharded(const std::string &Path,
                                         const TraceShardIndex &Idx,
                                         const StrideProfilerConfig &PC,
                                         unsigned Threads, unsigned Shards,
                                         ObsSession *Obs) {
  assert(Idx.Present && "profileTraceSharded needs a shard index");
  Threads = std::max(1u, Threads);
  Shards = clampShards(Threads, Shards, Idx.NumSites);

  // Fused decode + bucket: each decode job fills its own row of columns,
  // so no job shares a vector with another and no serial pass remains.
  const DecodePlan Plan = planDecode(Idx, Threads);
  std::vector<ShardColumns> Producers(Plan.Jobs, ShardColumns(Shards));
  ShardedProfileResult R;
  if (!runDecodeJobs(
          Idx, Plan, Threads,
          [&](size_t J, size_t First, size_t N, DecodeFailure &F) {
            BucketOutput Out{Producers[J]};
            decodeChunkRange(Path, Idx, First, N, Out, F);
          },
          R.Error, R.ErrorCode))
    return R;
  return profileColumns(Producers, Idx.NumSites, PC, Threads, Shards, Obs);
}

bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code) {
  const TraceShardIndex &Idx = R.index();
  assert(Idx.Present && "decodeTraceParallel needs an indexed reader");
  Events.clear();
  Events.resize(Idx.TotalEvents);
  Threads = std::max(1u, Threads);
  return runDecodeJobs(
      Idx, planDecode(Idx, Threads), Threads,
      [&](size_t, size_t First, size_t N, DecodeFailure &F) {
        FlatOutput Out{Events.data() + Idx.Chunks[First].CumEvents};
        decodeChunkRange(Path, Idx, First, N, Out, F);
      },
      Error, Code);
}

} // namespace sprof
