//===- tests/test_parser.cpp - Textual IR parser tests ----------------------===//
//
// Part of the StrideProf project test suite: the parser must round-trip
// everything the printer emits -- plain modules, instrumented modules
// (profiling pseudo-ops, predication), and prefetched modules (speculative
// loads) -- preserving both the text and the behaviour -- and must reject
// corrupted text with a diagnostic instead of crashing.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "instrument/Instrumentation.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "prefetch/PrefetchInsertion.h"

#include "TestHelpers.h"
#include <gtest/gtest.h>

#include <sstream>

using namespace sprof;

namespace {

std::string printToString(const Module &M) {
  std::ostringstream OS;
  M.print(OS);
  return OS.str();
}

/// Asserts text round-trip: print -> parse -> print yields identical text,
/// and the reparsed module verifies.
void expectRoundTrip(const Module &M, const std::string &What) {
  std::string Text = printToString(M);
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.Ok) << What << ": " << R.Error;
  EXPECT_TRUE(isWellFormed(R.M)) << What;
  EXPECT_EQ(printToString(R.M), Text) << What;
}

} // namespace

TEST(Parser, RoundTripsChaseModule) {
  uint32_t D, N;
  Module M = test::makeChaseModule(D, N);
  expectRoundTrip(M, "chase");
}

TEST(Parser, RoundTripsAllWorkloads) {
  for (const auto &W : makeSpecIntSuite()) {
    Program P = W->build(DataSet::Train);
    expectRoundTrip(P.M, W->info().Name);
  }
}

TEST(Parser, RoundTripsInstrumentedModules) {
  for (ProfilingMethod Method :
       {ProfilingMethod::EdgeOnly, ProfilingMethod::EdgeCheck,
        ProfilingMethod::BlockCheck, ProfilingMethod::NaiveAll}) {
    auto W = makeParserLike();
    Program P = W->build(DataSet::Train);
    instrumentModule(P.M, Method);
    expectRoundTrip(P.M, profilingMethodName(Method));
  }
}

TEST(Parser, RoundTripsPrefetchedModules) {
  auto W = makeGapLike();
  Pipeline Pl(*W);
  ProfileRunResult Prof = Pl.runProfile(ProfilingMethod::EdgeCheck,
                                        DataSet::Train, false);
  Program P = W->build(DataSet::Train);
  ClassifierConfig Cfg;
  Cfg.EnableWsstPrefetch = true;
  Cfg.EnableDependentPrefetch = true;
  FeedbackResult FB = runFeedback(P.M, Prof.Edges, Prof.Strides, Cfg);
  insertPrefetches(P.M, FB);
  expectRoundTrip(P.M, "prefetched gap");
}

TEST(Parser, ReparsedModuleBehavesIdentically) {
  auto W = makeGccLike();
  Program P = W->build(DataSet::Train);
  Interpreter I1(P.M, P.Memory);
  RunStats S1 = I1.run();

  ParseResult R = parseModule(printToString(P.M));
  ASSERT_TRUE(R.Ok) << R.Error;
  Interpreter I2(R.M, P.Memory);
  RunStats S2 = I2.run();
  EXPECT_EQ(S1.ExitValue, S2.ExitValue);
  EXPECT_EQ(S1.Instructions, S2.Instructions);
  EXPECT_EQ(S1.LoadRefs, S2.LoadRefs);
}

TEST(Parser, PreservesCallsAndPredication) {
  Module M;
  IRBuilder B(M);
  uint32_t Helper = B.startFunction("helper.fn", 2);
  {
    Reg Sum = B.add(Operand::reg(0), Operand::reg(1));
    B.ret(Operand::reg(Sum));
  }
  B.startFunction("main", 0);
  M.EntryFunction = 1;
  Reg P = B.movImm(1);
  Instruction Guarded;
  Guarded.Op = Opcode::Mov;
  Guarded.Dst = B.newReg();
  Guarded.A = Operand::imm(-7);
  Guarded.Pred = P;
  B.insert(Guarded);
  Reg C = B.call(Helper, {Operand::reg(Guarded.Dst), Operand::imm(10)},
                 B.newReg());
  B.ret(Operand::reg(C));
  expectRoundTrip(M, "calls+predication");

  ParseResult R = parseModule(printToString(M));
  ASSERT_TRUE(R.Ok);
  R.M.EntryFunction = 1;
  Interpreter I(R.M, SimMemory());
  EXPECT_EQ(I.run().ExitValue, 3);
}

TEST(Parser, ReportsUnknownMnemonic) {
  ParseResult R = parseModule("module m\n"
                              "func main(params=0, regs=1) {\n"
                              "  entry:\n"
                              "    r0 = frobnicate 1, 2\n"
                              "}\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown mnemonic"), std::string::npos);
}

TEST(Parser, ReportsUnknownBranchTarget) {
  ParseResult R = parseModule("module m\n"
                              "func main(params=0, regs=1) {\n"
                              "  entry:\n"
                              "    jmp nowhere\n"
                              "}\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown branch target"), std::string::npos);
}

TEST(Parser, ReportsDuplicateBlockNames) {
  ParseResult R = parseModule("module m\n"
                              "func main(params=0, regs=1) {\n"
                              "  entry:\n"
                              "    halt\n"
                              "  entry:\n"
                              "    halt\n"
                              "}\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("duplicate block name"), std::string::npos);
}

TEST(Parser, ReportsUnknownCallee) {
  ParseResult R = parseModule("module m\n"
                              "func main(params=0, regs=1) {\n"
                              "  entry:\n"
                              "    r0 = call ghost(1)\n"
                              "    halt\n"
                              "}\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown function"), std::string::npos);
}

TEST(Parser, RejectsGarbage) {
  EXPECT_FALSE(parseModule("not an ir file").Ok);
  EXPECT_FALSE(parseModule("").Ok);
}

// Seeded mutation test: byte flips, truncations and two-module splices of
// every suite workload's printed module. Each mutant must either parse, or
// fail with a non-empty diagnostic; a parsed mutant must also survive the
// verifier. Nothing may crash (the sanitizer CI job runs this too).
TEST(Parser, MutatedModulesParseOrFailCleanly) {
  std::vector<std::string> Texts;
  for (const auto &W : makeSpecIntSuite())
    Texts.push_back(printToString(W->build(DataSet::Train).M));

  static constexpr char Syntax[] = "rp0123456789-+,;:()[]{}= \n\t\0";
  unsigned Accepted = 0, Rejected = 0;
  test::forEachMutant(
      Texts, {Syntax, sizeof(Syntax) - 1}, 0x5eed5eedULL,
      [&](const std::string &Mutant, const char *Kind) {
        ParseResult PR = parseModule(Mutant);
        if (PR.Ok) {
          ++Accepted;
          (void)isWellFormed(PR.M);
        } else {
          ++Rejected;
          EXPECT_FALSE(PR.Error.empty()) << Kind << " mutant: " << Mutant;
        }
      });
  EXPECT_EQ(Accepted + Rejected, Texts.size() * 300);
  // Both outcomes occur, so the mutants reach past the header and into
  // the error paths alike.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}
