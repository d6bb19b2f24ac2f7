//===- interp/DecodedProgram.h - Pre-decoded instruction stream -*- C++ -*-===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat program representation the Decoded execution engine runs: each
/// function's basic blocks are concatenated into one contiguous instruction
/// array, branch targets are resolved to flat instruction indices at decode
/// time, and operand immediates are materialized into per-function constant
/// slots appended to the frame's register window. The hot loop therefore
/// reads every operand with one unconditional indexed load -- no
/// register-vs-immediate branch, no Operand::Kind inspection -- and DInst
/// packs into 40 bytes (1.6 instructions per cache line) by aliasing the
/// branch-target / call fields onto the unused operand slots. Decoding is a
/// one-time pass over the module; the decoded form is immutable and
/// independent of any interpreter state, so one DecodedProgram can back any
/// number of runs over the same module.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_INTERP_DECODEDPROGRAM_H
#define SPROF_INTERP_DECODEDPROGRAM_H

#include "ir/Module.h"

#include <cstdint>
#include <vector>

namespace sprof {

/// One pre-decoded instruction. A/B/C are frame-slot indices: either a real
/// register (index < DFunction::NumRegs) or a constant slot the frame setup
/// pre-filled with the folded immediate (empty operands decode as the slot
/// holding 0, matching the reference engine's "missing Ret value reads as
/// 0"). Opcodes that do not use B/C reuse those words through the accessors
/// below, which keeps the struct at 40 bytes.
struct DInst {
  Opcode Op = Opcode::Halt;
  bool IsInstrumentation = false;
  uint8_t NumArgs : 4 = 0; ///< Call only
  /// Decode-time dataflow found that this instruction's result is later
  /// dereferenced (used as a Load/SpecLoad base, possibly through a call
  /// argument), with at least one instruction of distance. The engine
  /// issues a host-level prefetch of the produced address -- pure host
  /// latency hiding, no effect on any simulated state.
  uint8_t PrefetchDst : 1 = 0;
  uint8_t DOp = 0; ///< dispatch index: Op, or PredicatedDOp
  uint32_t Dst = NoReg;
  uint32_t Pred = NoReg;
  uint32_t SiteId = NoId;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  int64_t Imm = 0; ///< address offset (memory ops) / counter id (ProfCounter*)

  // Aliases onto the unused operand words. Jmp/Br carry flat Code indices;
  // Call (zero register operands) carries its callee and argument range.
  uint32_t target0() const { return B; }
  uint32_t target1() const { return C; }
  uint32_t callee() const { return A; }
  uint32_t argsBase() const { return B; } ///< first argument in argPool()

  void setTarget0(uint32_t PC) { B = PC; }
  void setTarget1(uint32_t PC) { C = PC; }
  void setCallee(uint32_t Fn) { A = Fn; }
  void setArgsBase(uint32_t Base) { B = Base; }
};

static_assert(sizeof(DInst) <= 40, "DInst grew past one half cache line");

/// The one dispatch slot past the base opcodes. Every instruction with a
/// qualifying predicate dispatches here instead of to its base opcode, so
/// the hot dispatch path carries no per-instruction predicate test at all:
/// the Predicated handler evaluates Pred and either takes the squash path
/// or tail-jumps to the Op handler.
constexpr uint8_t PredicatedDOp = NumOpcodes;

/// Total dispatch-table size: base opcodes + the Predicated slot.
constexpr unsigned NumDispatchOps = NumOpcodes + 1;

/// Printable name of a dispatch op (base opcode or Predicated), e.g.
/// "Load". "op?" for out-of-range values.
const char *dispatchOpName(uint8_t DOp);

/// The full NumDispatchOps-sized name table, indexed by DInst::DOp. The
/// engine self-profiler installs this so folded-stack lines carry op names.
const char *const *dispatchOpNames();

/// Per-function decode metadata. A frame owns NumSlots consecutive entries
/// of the register stack: the first NumRegs are the function's registers
/// (zeroed on entry), the remaining NumSlots - NumRegs are constant slots
/// filled from constPool()[ConstBase...] on entry and never written again.
struct DFunction {
  uint32_t EntryPC = 0; ///< flat index of the entry block's first inst
  uint32_t NumRegs = 0;
  uint32_t NumSlots = 0;
  uint32_t ConstBase = 0;
};

/// The whole module, flattened. Built once; read-only afterwards.
class DecodedProgram {
public:
  explicit DecodedProgram(const Module &M);

  const std::vector<DInst> &code() const { return Code; }
  const std::vector<uint32_t> &argPool() const { return ArgPool; }
  const std::vector<int64_t> &constPool() const { return ConstPool; }
  const std::vector<DFunction> &functions() const { return Functions; }
  uint32_t entryFunction() const { return EntryFunction; }

private:
  std::vector<DInst> Code;
  std::vector<uint32_t> ArgPool;  ///< call-argument slot indices
  std::vector<int64_t> ConstPool; ///< per-function materialized immediates
  std::vector<DFunction> Functions;
  uint32_t EntryFunction = 0;
};

} // namespace sprof

#endif // SPROF_INTERP_DECODEDPROGRAM_H
