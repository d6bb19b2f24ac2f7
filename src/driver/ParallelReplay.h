//===- driver/ParallelReplay.h - Trace-sharded parallel replay --*- C++ -*-===//
//
// Part of the StrideProf project (see Pipeline.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel trace replay: decode and profile a captured access trace on N
/// cores while staying bit-identical to the serial path. Everything is
/// scheduled as JobGraph jobs and rests on two facts:
///
///   * Chunks decode independently. The sprof.trace/2 shard index
///     records, every IndexInterval events, the chunk's byte offset, the
///     carried delta-decoder state, and the events and loads before it.
///     A decode job owns a contiguous chunk range and knows the global
///     position (LoadIndex) of every load it decodes.
///
///   * Profiling partitions by site. The global chunk-sampling phase of
///     Figure 9 is a pure function of the load's position in the run
///     (StrideProfiler::profileAt), and every other piece of profiler
///     state is strictly per-site. Loads are bucketed by SiteId modulo
///     the shard count -- preserving per-site program order and each
///     load's global position -- and one full-size StrideProfiler runs
///     per shard. Per-site results are bit-identical to the serial
///     profiler's, so folding the disjoint shards in job-id order (as
///     ExperimentEngine::run folds job telemetry) through ProfileData's
///     order-preserving merge reproduces the serial profile verbatim:
///     same values, same bytes. docs/TRACE.md spells out the contract.
///
/// profileTraceSharded() fuses the two for an indexed trace file: each
/// decode job buckets its loads straight into its own row of per-shard
/// columns, then the job for shard S walks column S of every decode job
/// in job order. No flat event vector and no serial pass exist on that
/// path. profileEventsSharded() runs the same profile jobs and fold over
/// any AccessSource, which it buckets serially (a source has no index);
/// decodeTraceParallel() runs the same decode jobs into one flat buffer.
///
/// Telemetry: each profile shard runs against a child ObsSession
/// (ObsSession::jobConfig) whose registry is merged into the parent in
/// job-id order and recorded as a JobRecord, so sweep reports show shard
/// stragglers and queue wait exactly like engine jobs.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_DRIVER_PARALLELREPLAY_H
#define SPROF_DRIVER_PARALLELREPLAY_H

#include "driver/TraceReplay.h"

#include <string>
#include <vector>

namespace sprof {

class ObsSession;

/// Outcome of a sharded profile phase; the scalar fields mirror what the
/// serial StrideProfiler accumulators would hold after the same stream.
struct ShardedProfileResult {
  bool Ok = false;
  std::string Error;
  uint64_t RuntimeCycles = 0; ///< summed simulated strideProf cost
  uint64_t Invocations = 0;
  uint64_t Processed = 0;
  uint64_t LfuCalls = 0;
  StrideProfile Strides;
  unsigned ShardsUsed = 0;
  /// Why a trace-file decode failed (profileTraceSharded only); None when
  /// the failure, if any, was a profile job's.
  TraceError ErrorCode = TraceError::None;

  /// The profile phase as a \p Method run (Stats.Completed mirrors Ok);
  /// moves Strides out.
  ProfileRunResult takeProfileRun(ProfilingMethod Method);
};

/// Profiles \p Src's load events under \p PC with \p Threads workers over
/// \p Shards site-partitions (0 = one shard per thread; clamped to the
/// site count). The merged profile and the scalar accumulators are
/// bit-identical to a serial StrideProfiler::consume() over the same
/// stream -- for any shard count, any thread count, all eight profiling
/// methods. \p Obs, when non-null, receives per-shard JobRecords and the
/// job-id-ordered metric fold.
ShardedProfileResult profileEventsSharded(AccessSource &Src,
                                          const StrideProfilerConfig &PC,
                                          unsigned Threads,
                                          unsigned Shards = 0,
                                          ObsSession *Obs = nullptr);

/// Profiles the load events of the indexed trace \p Path (\p Idx is its
/// shard index, from TraceReader::openFileIndexed) like
/// profileEventsSharded, but fuses decode with bucketing: the chunk-range
/// decode jobs of decodeTraceParallel fill per-shard columns directly,
/// with each range's event, load, and byte-boundary counts cross-checked
/// against the index. A damaged range fails the call with its TraceError
/// in ErrorCode. The result is bit-identical to a serial
/// StrideProfiler::consume() over the file.
ShardedProfileResult profileTraceSharded(const std::string &Path,
                                         const TraceShardIndex &Idx,
                                         const StrideProfilerConfig &PC,
                                         unsigned Threads,
                                         unsigned Shards = 0,
                                         ObsSession *Obs = nullptr);

/// Decodes the indexed trace \p Path (whose reader \p R came from
/// TraceReader::openFileIndexed with index().Present) into \p Events with
/// \p Threads workers, one JobGraph job per contiguous chunk range. On
/// failure returns false and reports the first failing shard's error
/// through \p Error / \p Code. The buffer is identical to a serial decode.
bool decodeTraceParallel(const std::string &Path, const TraceReader &R,
                         unsigned Threads, std::vector<AccessEvent> &Events,
                         std::string &Error, TraceError &Code);

} // namespace sprof

#endif // SPROF_DRIVER_PARALLELREPLAY_H
