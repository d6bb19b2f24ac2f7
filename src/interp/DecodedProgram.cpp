//===- interp/DecodedProgram.cpp - Pre-decoded instruction stream ----------===//
//
// Part of the StrideProf project (see SimMemory.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "interp/DecodedProgram.h"

#include <cassert>
#include <unordered_map>

using namespace sprof;

namespace {

/// Per-function interning of operand immediates into constant slots.
class ConstAllocator {
public:
  explicit ConstAllocator(uint32_t NumRegs) : NumRegs(NumRegs) {}

  uint32_t slotFor(int64_t Imm) {
    auto [It, Inserted] = Slots.try_emplace(
        Imm, NumRegs + static_cast<uint32_t>(Values.size()));
    if (Inserted)
      Values.push_back(Imm);
    return It->second;
  }

  const std::vector<int64_t> &values() const { return Values; }

private:
  uint32_t NumRegs;
  std::unordered_map<int64_t, uint32_t> Slots;
  std::vector<int64_t> Values;
};

uint32_t decodeOperand(const Operand &O, ConstAllocator &Consts) {
  if (O.isReg())
    return O.getReg();
  if (O.isImm())
    return Consts.slotFor(O.getImm());
  // None decodes as the slot holding 0: only Ret reads a possibly-empty
  // operand, and the reference engine treats a missing value as 0.
  return Consts.slotFor(0);
}

} // namespace

DecodedProgram::DecodedProgram(const Module &M)
    : EntryFunction(M.EntryFunction) {
  size_t TotalInsts = 0;
  for (const Function &Fn : M.Functions)
    for (const BasicBlock &BB : Fn.Blocks)
      TotalInsts += BB.Insts.size();
  Code.reserve(TotalInsts);
  Functions.reserve(M.Functions.size());

  for (const Function &Fn : M.Functions) {
    DFunction DF;
    DF.EntryPC = static_cast<uint32_t>(Code.size());
    DF.ConstBase = static_cast<uint32_t>(ConstPool.size());

    // Blocks flatten in order, so the flat index of a block is the
    // function's running instruction count at its head.
    std::vector<uint32_t> BlockPC(Fn.Blocks.size());
    uint32_t PC = DF.EntryPC;
    for (size_t B = 0; B != Fn.Blocks.size(); ++B) {
      BlockPC[B] = PC;
      PC += static_cast<uint32_t>(Fn.Blocks[B].Insts.size());
    }
    DF.NumRegs = Fn.NumRegs;
    ConstAllocator Consts(DF.NumRegs);

    for (const BasicBlock &BB : Fn.Blocks) {
      assert(BB.hasTerminator() && "decoding a malformed block");
      for (const Instruction &I : BB.Insts) {
        const OpcodeInfo &Info = opcodeInfo(I.Op);
        DInst D;
        D.Op = I.Op;
        // A predicated instruction dispatches through the Predicated slot,
        // which re-dispatches on Op once the predicate is known true.
        D.DOp = I.Pred != NoReg ? PredicatedDOp : static_cast<uint8_t>(I.Op);
        D.IsInstrumentation = I.IsInstrumentation;
        D.Dst = I.Dst;
        D.Pred = I.Pred;
        D.SiteId = I.SiteId;
        if (Info.NumOperands >= 1 || I.Op == Opcode::Ret)
          D.A = decodeOperand(I.A, Consts);
        if (Info.NumOperands >= 2)
          D.B = decodeOperand(I.B, Consts);
        if (Info.NumOperands >= 3)
          D.C = decodeOperand(I.C, Consts);
        if (Info.UsesImm)
          D.Imm = I.Imm;
        switch (I.Op) {
        case Opcode::Jmp:
          D.setTarget0(BlockPC[I.Target0]);
          break;
        case Opcode::Br:
          D.setTarget0(BlockPC[I.Target0]);
          D.setTarget1(BlockPC[I.Target1]);
          break;
        case Opcode::Call:
          D.NumArgs = I.NumArgs;
          D.setArgsBase(static_cast<uint32_t>(ArgPool.size()));
          for (unsigned A = 0; A != I.NumArgs; ++A)
            ArgPool.push_back(decodeOperand(I.Args[A], Consts));
          D.setCallee(I.Callee);
          break;
        default:
          break;
        }
        Code.push_back(D);
      }
    }

    DF.NumSlots =
        DF.NumRegs + static_cast<uint32_t>(Consts.values().size());
    ConstPool.insert(ConstPool.end(), Consts.values().begin(),
                     Consts.values().end());

    Functions.push_back(DF);
  }

  // Pointer-prefetch analysis. A register that is ever used as a memory
  // base (directly, or by being passed to a callee that dereferences its
  // parameter) holds an address; any Add or Load that produces such a
  // register is producing an address the program will dereference later --
  // the advancing sweep pointer of a heap walk, the `p = p->next` of a
  // pointer chase, an address handed to a helper call. Flag those producers
  // so the engine can issue a host prefetch the moment the address exists,
  // hiding host-DRAM latency that the lean dispatch loop no longer covers
  // with overhead. Purely a host-side hint: simulated accounting is
  // untouched.
  const size_t NumFns = Functions.size();
  auto fnEnd = [&](size_t F) {
    return F + 1 != NumFns ? Functions[F + 1].EntryPC
                           : static_cast<uint32_t>(Code.size());
  };
  std::vector<std::vector<bool>> BaseRegs(NumFns);
  for (size_t F = 0; F != NumFns; ++F)
    BaseRegs[F].assign(Functions[F].NumRegs, false);
  // Fixpoint over the call graph (callee parameter facts flow into
  // callers; module call graphs here are shallow, so this converges in a
  // couple of sweeps).
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t F = 0; F != NumFns; ++F) {
      auto markBase = [&](uint32_t Slot) {
        if (Slot < Functions[F].NumRegs && !BaseRegs[F][Slot]) {
          BaseRegs[F][Slot] = true;
          Changed = true;
        }
      };
      for (uint32_t PC = Functions[F].EntryPC, E = fnEnd(F); PC != E; ++PC) {
        const DInst &D = Code[PC];
        switch (D.Op) {
        case Opcode::Load:
        case Opcode::Store:
        case Opcode::Prefetch:
        case Opcode::SpecLoad:
          markBase(D.A);
          break;
        case Opcode::Call: {
          const std::vector<bool> &CalleeBases = BaseRegs[D.callee()];
          for (unsigned Arg = 0; Arg != D.NumArgs; ++Arg)
            if (Arg < CalleeBases.size() && CalleeBases[Arg])
              markBase(ArgPool[D.argsBase() + Arg]);
          break;
        }
        default:
          break;
        }
      }
    }
  }
  // Flag the producers. Only Add and Load results are worth the hint (the
  // address-arithmetic and pointer-chase producers); skip when the very
  // next instruction is the dereference -- there is no latency to hide.
  for (size_t F = 0; F != NumFns; ++F) {
    for (uint32_t PC = Functions[F].EntryPC, E = fnEnd(F); PC != E; ++PC) {
      DInst &D = Code[PC];
      if (D.Op != Opcode::Add && D.Op != Opcode::Load)
        continue;
      if (D.Dst >= Functions[F].NumRegs || !BaseRegs[F][D.Dst])
        continue;
      if (PC + 1 != E &&
          (Code[PC + 1].Op == Opcode::Load ||
           Code[PC + 1].Op == Opcode::SpecLoad) &&
          Code[PC + 1].A == D.Dst)
        continue;
      D.PrefetchDst = 1;
    }
  }
}

// -- Dispatch-op names -----------------------------------------------------

const char *const *sprof::dispatchOpNames() {
  static const char *Names[NumDispatchOps] = {};
  static const bool Init = [] {
    for (unsigned I = 0; I != NumOpcodes; ++I)
      Names[I] = opcodeName(static_cast<Opcode>(I));
    Names[PredicatedDOp] = "Predicated";
    return true;
  }();
  (void)Init;
  return Names;
}

const char *sprof::dispatchOpName(uint8_t DOp) {
  if (DOp < NumDispatchOps)
    if (const char *N = dispatchOpNames()[DOp])
      return N;
  return "op?";
}
