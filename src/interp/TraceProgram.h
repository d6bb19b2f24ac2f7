//===- interp/TraceProgram.h - Compiled hot-trace superblocks ---*- C++ -*-===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace tier's program representation: one hot loop path, compiled
/// into a flat straight-line superblock the TraceInterpreter executes one
/// whole iteration at a time. A trace is selected by the TraceSelector
/// from a cross-iteration path signature (the Ball-Larus-style branch
/// direction word the Decoded engine's trace-monitoring dispatch records
/// between back-edges) and reconstructed statically by re-walking the
/// DecodedProgram from the loop head while consuming the signature bits,
/// so no recording mode or engine state capture is needed.
///
/// Specialization applied at compile time:
///
///   * conditional branches become Guard stubs: a compare against the
///     recorded direction that side-exits back to the Decoded engine at
///     the exact not-taken target, with precomputed prefix sums of every
///     statically-known accounting column (instructions, cycle buckets,
///     opcode tallies) so the handoff is bit-identical to having executed
///     the same prefix instruction by instruction;
///   * unconditional jumps are elided from dispatch entirely (their cycle
///     charge and branch tally fold into the static per-iteration sums);
///   * the per-dispatch fuel/sample check is hoisted to one conservative
///     per-iteration check, and predicate tests are gone (predicated code
///     aborts trace formation);
///   * operands reading constant slots are folded into immediate-operand
///     superblock ops (the decode-time constant pool is per function and
///     never written, so folding is safe across frames);
///   * adjacent ALU/Load ops re-fuse into pair superinstructions across
///     the original basic-block boundaries the Decoded engine's fusion
///     pass could not cross;
///   * decode-time host-prefetch hints (DInst::PrefetchDst) are preserved
///     on the corresponding trace ops.
///
/// Accounting contract: executing N committed iterations plus one partial
/// prefix through a trace yields byte-identical RunStats, profiles, memsys
/// traffic, and telemetry tallies to the Reference engine running the same
/// instructions (tests/test_trace.cpp is the differential gate).
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_TRACEPROGRAM_H
#define SPROF_INTERP_TRACEPROGRAM_H

#include "interp/DecodedProgram.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace sprof {

/// Trace-op dispatch set. The straight-line ops mirror their Opcode
/// namesakes minus all per-dispatch bookkeeping (fuel check, instruction
/// count, cycle charge, tally) -- that is statically summed per iteration
/// and per guard prefix. Imm variants carry a folded constant operand in
/// TInst::Imm; pair ops execute the following (undispatched) TInst as
/// their second half, exactly like the Decoded engine's FusedOp encoding.
enum class TOp : uint8_t {
  Mov,
  Add,
  Sub,
  Mul,
  Shl,
  Shr,
  And,
  Or,
  Xor,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  Select,
  Load,
  Store,
  Prefetch,
  SpecLoad,
  CallInlined,
  RetInlined,
  ProfCounterInc,
  ProfCounterRead,
  ProfCounterAddTo,
  ProfStride,
  // Constant-slot operand folded into TInst::Imm (B side; Mov folds A).
  MovImm,
  AddImm,
  SubImm,
  MulImm,
  ShlImm,
  ShrImm,
  AndImm,
  OrImm,
  XorImm,
  CmpEqImm,
  CmpNeImm,
  CmpLtImm,
  CmpLeImm,
  CmpGtImm,
  CmpGeImm,
  // Control: Guard side-exits when the condition disagrees with the
  // recorded direction; IterEnd commits the iteration and loops.
  Guard,
  IterEnd,
  // Re-fused pairs (trace-local fusion, may cross old block boundaries).
  MovMov,
  AddAdd,
  AddShl,
  AddXor,
  ShlAdd,
  ShlXor,
  ShrXor,
  AndShl,
  XorShl,
  XorShr,
  XorAnd,
  AddLoad,
  AndLoad,
  LoadAdd,
  LoadAnd,
  LoadXor,
  LoadShl,
  LoadLoad,
  CmpNeGuard,
  CmpLtGuard,
  /// The check methods' predicated stride trap (paper Figure 14: the
  /// trip-count predicate squashes profiling past the threshold). Both
  /// predicate outcomes have statically-known cost, so the trace stays
  /// O(1)-accountable: the static sums assume the trap runs, and the
  /// squashed case applies the off-minus-on delta live (TInst::C holds
  /// the predicate slot).
  ProfStridePred,
  // Longest-match re-fused triples and quads: the hottest 3- and 4-op
  // dispatch chains measured on the compute-bound workloads (hash and
  // scramble kernels pattern-match to the same few ALU/Load runs). Same
  // encoding as the pairs -- trailers stay in place, undispatched.
  MovAddAdd,
  AddLoadAdd,
  LoadLoadAdd,
  AndShlAddLoad,
  ShlXorShrXor,
  ShrXorShlXor,
  LoadXorShlXor,
  AddXorShlAdd,
  ShlXorAndShl,
  AddLoadAddXor,
  AddLoadAddLoad,
  LoadLoadAddMov,
  // Guard-headed and boundary fusions: the iteration's first dispatch
  // (compare+guard plus the ALU/Load run that follows it) and its last
  // (the closing ALU ops plus the iteration commit) collapse into one
  // handler each, and the longest measured straight ALU run gets a
  // single dispatch. The hot hash loops then run in ~6 dispatches per
  // iteration.
  AddAddIterEnd,
  MovAddAddIterEnd,
  CmpNeGuardLoadXorShlXor,
  CmpNeGuardShlXorShrXor,
  AndShlAddLoadAddXorShlAdd,
};

/// Number of trace dispatch ops (one executor handler each).
constexpr unsigned NumTraceOps =
    static_cast<unsigned>(TOp::AndShlAddLoadAddXorShlAdd) + 1;

/// One superblock instruction. Operands are frame-slot indices into the
/// live register window (the trace runs inside the Decoded engine's
/// current frame), except where an Imm variant folded the value.
struct TInst {
  TOp Op = TOp::IterEnd;
  /// Attribution bucket of the original instruction (informational; the
  /// cycle charge itself is folded into the static sums).
  bool IsInstr = false;
  /// Guard: the branch direction that keeps execution on the trace.
  uint8_t Expect = 0;
  /// Decode-time host-prefetch hint carried over from DInst::PrefetchDst.
  uint8_t PrefetchDst = 0;
  uint32_t Dst = NoReg;
  uint32_t A = 0;
  uint32_t B = 0; ///< Guard: decoded side-exit PC
  uint32_t C = 0; ///< CallInlined: callee register count;
                  ///< ProfStridePred: qualifying-predicate slot
  uint32_t SiteId = NoId;
  uint32_t Aux = 0; ///< Guard: guard index; CallInlined: NumArgs
  /// Base+instrumentation cycles accumulated from iteration start to this
  /// op's memory-system call point (Load: after its own base cost;
  /// Prefetch/SpecLoad: before it), so SPROF_NOW() is reproduced exactly
  /// without charging cycles per op.
  uint64_t CycAt = 0;
  int64_t Imm = 0; ///< memory offset / counter id / folded constant
};

/// Statically-known accounting columns of a trace prefix or of one full
/// iteration. Everything here is a pure function of the instruction
/// sequence, so it is summed once at compile time and applied in O(1) at
/// guard side-exits and iteration commits.
struct TraceCounts {
  uint64_t Insts = 0;
  uint64_t BaseCyc = 0;
  uint64_t InstrCyc = 0;
  uint64_t Branches = 0;
  uint64_t Stores = 0;
  uint64_t Prefetches = 0;
  uint64_t SpecLoads = 0;
  uint64_t Calls = 0;
  uint64_t CounterOps = 0;
  uint64_t StrideTraps = 0;
};

/// One guard's side-exit metadata: the accounting prefix up to and
/// including the guard's own branch charge, and where the Decoded engine
/// resumes when the guard fails.
struct GuardInfo {
  TraceCounts Prefix;
  uint32_t ExitPC = 0;
  /// The loop-closing guard: its failure is the loop's normal exit, not a
  /// mispredicted path (reported separately from side exits).
  bool IsLoopGuard = false;
};

/// Trace-selection and compilation knobs (mirrored from
/// InterpreterConfig so the selector has no Interpreter dependency).
struct TraceTierConfig {
  /// Back-edge executions of a loop head before path monitoring starts.
  uint32_t HotThreshold = 64;
  /// Consecutive identical path signatures before the trace compiles.
  uint32_t PathThreshold = 8;
  /// Superblock length cap (emitted trace ops).
  uint32_t MaxOps = 512;
  /// Trace entries before the invalidation ratio is consulted.
  uint32_t InvalidateMinEntries = 64;
  /// Invalidate when committed iterations * 16 < entries * this (i.e. the
  /// average on-trace iterations per entry fell below the ratio / 16).
  uint32_t InvalidateMinAvgItersX16 = 32;
  /// Compile attempts (aborts or invalidations) per head before the head
  /// is blacklisted for the rest of the run.
  uint32_t MaxCompilesPerHead = 4;

  bool operator==(const TraceTierConfig &) const = default;
};

/// A compiled hot-trace superblock. Immutable after compilation (runtime
/// counters live in the selector), so one trace can be shared across
/// interpreter instances and threads via the program cache.
class TraceProgram {
public:
  uint32_t id() const { return Id; }
  uint32_t headPC() const { return HeadPC; }
  uint64_t pathSig() const { return PathSig; }
  uint32_t pathLen() const { return PathLen; }
  /// Fingerprint of the TimingModel the static cycle sums were baked
  /// against; a cached trace is only adopted under a matching model.
  uint64_t timingHash() const { return TMHash; }

  const std::vector<TInst> &code() const { return Code; }
  const std::vector<GuardInfo> &guards() const { return Guards; }
  const TraceCounts &iterTotal() const { return IterTotal; }

  /// Compiles the superblock for the path that starts at decoded
  /// instruction \p HeadPC and follows the \p PathLen conditional-branch
  /// directions in \p PathSig (most significant of the low PathLen bits
  /// first) back to the head. Returns nullptr when the path cannot be
  /// traced (real call/ret/halt, predicated op, inner back-edge, length
  /// cap, or a signature that does not close the loop).
  static std::unique_ptr<TraceProgram>
  compile(const DecodedProgram &DP, const struct TimingModel &TM,
          uint32_t HeadPC, uint64_t PathSig, uint32_t PathLen,
          const TraceTierConfig &Config, uint32_t Id);

  /// The TimingModel fingerprint compile() bakes in (exposed so adopters
  /// can match without recompiling).
  static uint64_t hashTiming(const struct TimingModel &TM);

private:
  uint32_t Id = 0;
  uint32_t HeadPC = 0;
  uint64_t PathSig = 0;
  uint32_t PathLen = 0;
  uint64_t TMHash = 0;
  std::vector<TInst> Code;
  std::vector<GuardInfo> Guards;
  TraceCounts IterTotal;
};

/// Host-side runtime counters of one installed trace (owned by the
/// selector, not the immutable TraceProgram).
struct TraceRuntime {
  uint64_t Entries = 0;
  uint64_t Iterations = 0;
  uint64_t SideExits = 0;
  uint64_t LoopExits = 0;
  uint64_t FuelExits = 0;
  uint64_t OnTraceInsts = 0;
  uint64_t OnTraceRefs = 0;
  std::vector<uint64_t> GuardExits; ///< indexed by guard index
  bool Invalidated = false;
};

/// Host-side trace-tier accounting surfaced next to (never inside) the
/// bit-identical simulated RunStats: run reports render it as the
/// "trace_tier" section and the bench compare harness derives the
/// side-exit rate from it.
struct TraceTierStats {
  bool Enabled = false;
  uint64_t TracesCompiled = 0;
  uint64_t TracesAdopted = 0; ///< reused from the shared program cache
  uint64_t CompileAborts = 0;
  uint64_t Invalidations = 0;
  uint64_t Entries = 0;
  uint64_t Iterations = 0;
  uint64_t SideExits = 0;
  uint64_t LoopExits = 0;
  uint64_t FuelExits = 0;
  uint64_t OnTraceInsts = 0;
  uint64_t OnTraceRefs = 0;

  /// Per-trace breakdown for the report (id, head, shape, exit mix).
  struct PerTrace {
    uint32_t Id = 0;
    uint32_t HeadPC = 0;
    uint32_t NumOps = 0;
    uint32_t NumGuards = 0;
    uint64_t Entries = 0;
    uint64_t Iterations = 0;
    uint64_t SideExits = 0;
    uint64_t LoopExits = 0;
    uint64_t FuelExits = 0;
    std::vector<uint64_t> GuardExits;
    bool Invalidated = false;
  };
  std::vector<PerTrace> Traces;
};

/// Self-profiler slot-name table for the trace tier: the Decoded engine's
/// dispatch-op names followed by "trace:<n>" frames (traces hash into
/// NumTraceSelfProfSlots slots). Static storage, safe to hand to
/// EngineSelfProfiler::configureSlots.
constexpr unsigned NumTraceSelfProfSlots = 16;
const char *const *traceTierSlotNames();

} // namespace sprof

#endif // SPROF_INTERP_TRACEPROGRAM_H
