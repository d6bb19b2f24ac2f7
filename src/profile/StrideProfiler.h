//===- profile/StrideProfiler.h - The strideProf runtime routine -*- C++ -*-===//
//
// Part of the StrideProf project (see LfuValueProfiler.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stride-profiling runtime of paper Section 3.1. One StrideProfiler
/// instance plays the role of the profiling runtime linked into an
/// instrumented binary: it owns one StrideSiteData ("prof_data") per load
/// site and implements the strideProf routine in its three successive
/// refinements:
///
///   * Figure 6: base routine -- stride from previous address, zero-stride
///     shortcut that bypasses the (expensive) LFU call, zero-stride-
///     difference counting to recognize *phased* stride sequences.
///   * Figure 7: `is_same_value` coarsening so that addresses (and, inside
///     LFU, strides) that differ only in their low 4 bits compare equal.
///   * Figure 9: chunk sampling (skip N1 references globally, then profile
///     N2) followed by per-site fine sampling (1 of every F references).
///
/// Every invocation reports its simulated cycle cost so the interpreter can
/// charge Figure-20-style profiling overhead; the cost model constants are
/// configurable (StrideCostModel).
///
/// Two entry points share one semantic core: profile() handles a single
/// reference (the executable specification, used by the reference engine
/// and by engines with a memory system attached, where the returned cost
/// feeds the current cycle of the *next* access), and profileBatch()
/// drains a block of queued events over packed per-site hot state with the
/// chunk-sampling phase decisions hoisted out of the per-event loop --
/// bit-identical to calling profile() once per event, in order.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_PROFILE_STRIDEPROFILER_H
#define SPROF_PROFILE_STRIDEPROFILER_H

#include "profile/LfuValueProfiler.h"
#include "stream/AccessStream.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sprof {

class ObsSession;

/// Sampling configuration (Figure 9). Disabled by default, matching the
/// non-"sample-" profiling methods.
struct SamplingConfig {
  bool Enabled = false;
  /// Fine sampling: profile 1 of every FineInterval references per site.
  uint32_t FineInterval = 4;
  /// Chunk sampling: after ChunkSkip references are skipped (globally,
  /// across all sites), profile the next ChunkProfile references. The
  /// paper uses 8M/2M on full SPEC runs; defaults here keep the same 4:1
  /// duty cycle but are scaled to the synthetic workloads' much smaller
  /// reference counts.
  uint64_t ChunkSkip = 600;
  uint64_t ChunkProfile = 150;

  bool operator==(const SamplingConfig &) const = default;
};

/// Simulated cycle costs of the runtime routine's phases. The values model
/// a call into an out-of-line runtime routine on an in-order machine.
struct StrideCostModel {
  uint32_t CallOverhead = 30;   ///< call/return, spills, argument setup
  uint32_t ChunkCheckCost = 4;  ///< chunk-sampling counter checks
  uint32_t FineCheckCost = 4;   ///< per-site fine-sampling check
  uint32_t ZeroStrideCost = 12; ///< same-address shortcut path
  uint32_t CoreCost = 24;       ///< stride/diff computation + bookkeeping
  uint32_t LfuBaseCost = 15;    ///< LFU call overhead
  uint32_t LfuPerWorkCost = 6;  ///< per buffer entry examined in LFU

  bool operator==(const StrideCostModel &) const = default;
};

/// Full configuration of the stride-profiling runtime.
struct StrideProfilerConfig {
  LfuConfig Lfu = {/*TempSize=*/16, /*FinalSize=*/8, /*MergeInterval=*/1024,
                   /*CoarsenShift=*/4};
  SamplingConfig Sampling;
  /// Coarsening shift for the zero-stride address check of Figure 7
  /// (0 disables the enhancement and reproduces Figure 6 exactly).
  unsigned AddrCoarsenShift = 4;
  StrideCostModel Costs;

  bool operator==(const StrideProfilerConfig &) const = default;
};

/// One queued strideProf invocation, as recorded by an engine's batched
/// stride-event ring (see InterpreterConfig::StrideBatchWindow). This is
/// the stream layer's AccessEvent verbatim: the ring entries double as
/// capture/replay events, so TraceCaptureSinks tee off the ring and
/// trace replay feeds profileBatch without any conversion.
using StrideEvent = AccessEvent;

/// Per-load-site profiling state ("prof_data" in the paper's figures).
///
/// This is the *reporting* view: the profiler keeps the per-event fields
/// (previous address/stride, sampling countdown, chunk epoch, use-distance
/// accumulators, invocation count) in a packed internal hot lane and syncs
/// them into this struct on demand in site(). The cold statistics and the
/// LFU buffers live here directly.
struct StrideSiteData {
  uint64_t PrevAddress = 0;
  bool HasPrevAddress = false;
  int64_t PrevStride = 0;
  bool HasPrevStride = false;

  uint64_t NumZeroStride = 0;
  uint64_t NumNonZeroStride = 0;
  uint64_t NumZeroDiff = 0;

  /// Fine-sampling countdown ("number_to_skip" in Figure 9).
  uint32_t NumberToSkip = 0;

  /// Chunk epoch of the last processed reference. On the first reference
  /// of a new profiled chunk the site re-anchors (records the address
  /// without forming a stride): the previous address is from the previous
  /// chunk, so the difference is not a stride. At the paper's 8M/2M chunk
  /// sizes this boundary noise is negligible; at the scaled-down sizes the
  /// synthetic workloads use it would otherwise bias the top-stride share.
  uint64_t LastChunkEpoch = 0;

  /// Use-distance profiling (the paper's first future-work item,
  /// Section 6): the number of other memory references between successive
  /// references of this site. Large distances mean a prefetched line may
  /// be evicted before use, so the feedback pass can veto the prefetch.
  uint64_t PrevGlobalRef = 0;
  uint64_t RefGapSum = 0;
  uint64_t RefGapCount = 0;

  LfuValueProfiler Lfu;

  /// Per-site statistics for Figures 21/22.
  uint64_t Invocations = 0; ///< calls into strideProf
  uint64_t Processed = 0;   ///< invocations surviving both sampling stages
  uint64_t LfuCalls = 0;    ///< invocations reaching the LFU routine

  /// Total strides observed (zero + non-zero); "total_freq" in Figure 5.
  uint64_t totalStrides() const { return NumZeroStride + NumNonZeroStride; }
};

/// The profiling runtime: one instance per instrumented program run.
class StrideProfiler {
public:
  StrideProfiler(uint32_t NumSites, const StrideProfilerConfig &Config);

  /// The strideProf entry point (Figures 6/7/9). \p Address is the load's
  /// effective data address. \p GlobalRefIndex, when non-zero, is the
  /// program's running count of dynamic memory references; it feeds the
  /// use-distance statistic (Section 6 future work).
  /// \returns the simulated cycle cost of this invocation.
  uint64_t profile(uint32_t SiteId, uint64_t Address,
                   uint64_t GlobalRefIndex = 0);

  /// Batched strideProf: processes \p Events[0..N) in order, leaving every
  /// observable (site data, totals, sampling counters, chunk epochs,
  /// telemetry sinks) exactly as N successive profile() calls would --
  /// including chunk-epoch re-anchoring when a chunk-phase flip lands
  /// inside (or straddles) the block. \returns the summed simulated cost.
  ///
  /// The win over per-event profile(): the global chunk-sampling phase is
  /// decided once per run of events in the same phase instead of per
  /// event, skip-phase events collapse to a per-site touch plus one bulk
  /// telemetry update, and obs sinks are resolved once per drain.
  uint64_t profileBatch(const StrideEvent *Events, size_t N);

  /// Positionally-addressed strideProf: processes the reference knowing it
  /// is the \p LoadIndex'th dynamic load (0-based, counted across *all*
  /// sites) of the run, instead of relying on the profiler's own running
  /// counters. The global chunk-sampling phase of Figure 9 is a pure
  /// function of that position -- with Cycle = ChunkSkip + ChunkProfile + 1
  /// the reference is skipped iff LoadIndex % Cycle < ChunkSkip or hits the
  /// flip slot Cycle - 1, and profiled references belong to chunk epoch
  /// LoadIndex / Cycle + 1 -- so feeding each site its references in
  /// program order, with their original load indexes, leaves that site's
  /// observable state (and the summed costs and telemetry) bit-identical
  /// to a serial profile() sweep over the interleaved whole. That is the
  /// contract ParallelReplay's site-sharded workers build on; see
  /// docs/TRACE.md "Determinism contract".
  /// \returns the simulated cycle cost of this invocation.
  uint64_t profileAt(uint32_t SiteId, uint64_t Address,
                     uint64_t GlobalRefIndex, uint64_t LoadIndex);

  /// Drives the runtime from an abstract access stream: pulls batches out
  /// of \p Src and profileBatch()es them until the stream ends. Events of
  /// kind other than Load are dropped (a strideProf invocation is a demand
  /// load by definition); the live engine paths never emit them, so this
  /// filter costs nothing there, and trace replay of mixed streams gets
  /// the same view a live profiled run would have had.
  /// \returns the summed simulated cost, exactly what the equivalent live
  /// run would have charged to RunStats::RuntimeCycles.
  uint64_t consume(AccessSource &Src, size_t BatchSize = 256);

  /// Reporting view of one site's state (hot lane synced on demand).
  const StrideSiteData &site(uint32_t SiteId) const;
  uint32_t numSites() const { return static_cast<uint32_t>(Sites.size()); }
  const StrideProfilerConfig &config() const { return Config; }

  /// Aggregate statistics across all sites.
  uint64_t totalInvocations() const { return TotalInvocations; }
  uint64_t totalProcessed() const { return TotalProcessed; }
  uint64_t totalLfuCalls() const { return TotalLfuCalls; }

  /// Resolves telemetry sinks from \p Session (nullptr detaches). The
  /// sinks are never null: with no session attached -- the default --
  /// they point at statically-allocated dummy metrics, so the hot paths
  /// write unconditionally and carry no per-event branch.
  void attachObs(ObsSession *Session);

private:
  /// Cached metric handles; dummy sinks when telemetry is off, never null.
  struct ObsSinks {
    Counter *ChunkSkipped;   ///< chunk-sampling early-outs
    Counter *FineSkipped;    ///< fine-sampling early-outs
    Counter *ZeroStrideFast; ///< zero-stride shortcut hits
    Counter *Reanchored;     ///< chunk-boundary re-anchors
    Histogram *InvocationCost; ///< simulated cycles per call
  };

  /// Packed per-site hot state: everything the per-event paths touch,
  /// one cache line per site, separate from the cold statistics and LFU
  /// buffers in StrideSiteData.
  struct HotSite {
    uint64_t PrevAddress = 0;
    int64_t PrevStride = 0;
    uint64_t LastChunkEpoch = 0;
    uint64_t PrevGlobalRef = 0;
    uint64_t RefGapSum = 0;
    uint64_t RefGapCount = 0;
    uint64_t Invocations = 0;
    uint32_t NumberToSkip = 0;
    uint8_t HasPrevAddress = 0;
    uint8_t HasPrevStride = 0;
  };

  uint64_t profileImpl(uint32_t SiteId, uint64_t Address,
                       uint64_t GlobalRefIndex);

  /// The post-sampling core shared verbatim by profile(), profileBatch(),
  /// and profileAt(): epoch re-anchor (against \p Epoch -- the member
  /// ChunkEpoch for the counter-driven paths, the position-derived epoch
  /// for profileAt), first-address path, zero-stride shortcut, stride/diff
  /// bookkeeping, LFU call. \returns the cost of this tail (caller adds
  /// call/check overheads).
  uint64_t processedTail(uint32_t SiteId, HotSite &H, uint64_t Address,
                         uint64_t Epoch);

  bool sameAddress(uint64_t A, uint64_t B) const {
    return (A >> Config.AddrCoarsenShift) == (B >> Config.AddrCoarsenShift);
  }

  StrideProfilerConfig Config;
  std::vector<HotSite> Hot;
  /// Cold per-site state and the site() reporting view; hot fields are
  /// mirrored in lazily (see site()).
  mutable std::vector<StrideSiteData> Sites;

  // Global chunk-sampling state (static variables in Figure 9).
  uint64_t NumberSkipped = 0;
  uint64_t NumberProfiled = 0;
  uint64_t ChunkEpoch = 1; ///< bumped at each skip->profile transition

  uint64_t TotalInvocations = 0;
  uint64_t TotalProcessed = 0;
  uint64_t TotalLfuCalls = 0;

  ObsSinks Obs;
};

} // namespace sprof

#endif // SPROF_PROFILE_STRIDEPROFILER_H
