//===- feedback/Classifier.h - Figure-5 load classification -----*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-feedback pass of paper Section 2.2 / Figure 5: filter loads
/// by execution frequency (FT) and loop trip count (TT), classify the
/// survivors by their stride profiles into
///
///   * SSST -- strong single stride: top1/total > 70%;
///   * PMST -- phased multi-stride: top4/total > 60% and zero stride
///             differences > 40% of strides;
///   * WSST -- weak single stride: top1/total > 25% and zero differences
///             > 10% (the paper's Figure 5 pseudo-code reuses
///             PMST_diff_threshold here; the prose of Section 2.2 defines a
///             separate 10% WSST threshold, which we follow and expose as a
///             config knob),
///
/// then expand each classified representative to the cover loads of its
/// equivalent set and compute prefetch distances:
/// K = min(trip_count / TT, C) for in-loop loads (power-of-two rounded for
/// PMST so the multiply becomes a shift), fixed K for out-loop SSST loads.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_FEEDBACK_CLASSIFIER_H
#define SPROF_FEEDBACK_CLASSIFIER_H

#include "ir/Module.h"
#include "profile/ProfileData.h"

#include <cstdint>
#include <vector>

namespace sprof {

class ObsSession;

/// Stride-pattern classes of Section 2.2.
enum class StrideClass : uint8_t { None, SSST, PMST, WSST };

const char *strideClassName(StrideClass C);

/// Thresholds and prefetch parameters. Defaults are the paper's example
/// values.
struct ClassifierConfig {
  uint64_t FrequencyThreshold = 2000; ///< FT of Figure 5
  uint64_t TripCountThreshold = 128;  ///< TT of Figure 5
  double SsstThreshold = 0.70;
  double PmstThreshold = 0.60;
  double PmstDiffThreshold = 0.40;
  double WsstThreshold = 0.25;
  double WsstDiffThreshold = 0.10;
  unsigned MaxPrefetchDistance = 8;    ///< C (in-loop)
  unsigned OutLoopPrefetchDistance = 4;
  /// The paper's evaluation disables WSST prefetching ("does not show
  /// noticeable performance contribution"); the ablation bench re-enables
  /// it.
  bool EnableWsstPrefetch = false;
  /// Prefetching out-loop SSST loads is what distinguishes naive-all's
  /// feedback from the in-loop-only methods.
  bool EnableOutLoopPrefetch = true;
  /// Section-6 future work: veto prefetching of loads whose successive
  /// references are separated by many other memory references (the
  /// prefetched line would be evicted before use). Off by default,
  /// matching the published system.
  bool EnableUseDistanceFilter = false;
  double MaxAvgRefGap = 64.0;
  /// Section-6 future work: prefetch loads *without* stride patterns whose
  /// addresses are produced by an SSST load in the same block, by chasing
  /// one pointer ahead with a speculative load (Figure 3d generalized to
  /// indirection). Off by default, matching the published system.
  bool EnableDependentPrefetch = false;
  uint64_t CacheLineBytes = 64;

  bool operator==(const ClassifierConfig &) const = default;
};

/// One planned prefetch.
struct PrefetchDecision {
  uint32_t SiteId = NoId;     ///< load receiving a prefetch
  StrideClass Kind = StrideClass::None;
  bool InLoop = true;
  int64_t StrideValue = 0;    ///< dominant stride (SSST / WSST)
  unsigned Distance = 1;      ///< K (power of two for PMST)
};

/// A planned dependent (indirect) prefetch: the base load BaseSiteId has a
/// strong single stride S, and DepSiteId loads through the pointer value
/// BaseSiteId produces. The inserted code speculatively loads the base K
/// strides ahead and prefetches through the result.
struct DependentPrefetchDecision {
  uint32_t BaseSiteId = NoId;
  uint32_t DepSiteId = NoId;
  int64_t BaseStride = 0;
  unsigned Distance = 1;
  int64_t DepOffset = 0;
};

/// The feedback pass's full output.
struct FeedbackResult {
  std::vector<PrefetchDecision> Decisions;

  /// Dependent-prefetch plans (EnableDependentPrefetch only).
  std::vector<DependentPrefetchDecision> DependentDecisions;

  /// Per load site: classification of its stride profile, StrideClass::None
  /// for filtered / unprofiled sites. Indexed by SiteId.
  std::vector<StrideClass> SiteClass;

  /// Per load site: trip count of the innermost enclosing loop (0 for
  /// out-loop sites), reconstructed from the edge profile per Figure 10.
  std::vector<double> SiteTripCount;

  /// Per load site: true when the site is inside a (reducible) loop.
  std::vector<bool> SiteInLoop;
};

/// Classifies one stride summary with no frequency/trip filtering. Used
/// both by the Figure-5 pipeline below and by the Figure-18/19 population
/// benches, which bucket *every* load by stride property.
StrideClass classifyStrideSummary(const StrideSiteSummary &S,
                                  const ClassifierConfig &Config);

/// Runs the full Figure-5 feedback pass over \p M. \p M must be the
/// original (un-instrumented, un-prefetched) module the profiles were
/// collected for. \p Obs (optional) receives a "classify" trace span plus
/// classification and filter counters.
FeedbackResult runFeedback(const Module &M, const EdgeProfile &EP,
                           const StrideProfile &SP,
                           const ClassifierConfig &Config = {},
                           ObsSession *Obs = nullptr);

/// Trip count of a loop from edge frequencies (Figure 10): header frequency
/// divided by the total frequency entering the loop from outside.
double loopTripCount(const Function &F, uint32_t FuncIdx,
                     const std::vector<Edge> &EnteringEdges,
                     const std::vector<Edge> &HeaderOutEdges,
                     const EdgeProfile &EP);

} // namespace sprof

#endif // SPROF_FEEDBACK_CLASSIFIER_H
