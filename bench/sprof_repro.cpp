//===- bench/sprof_repro.cpp - Regenerate the paper's evaluation ----------===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's evaluation (Section 4, Figures 15-25) plus the
/// prefetch-quality extension in one process. Every figure's suite calls
/// go to one ExperimentEngine in figure order, so the engine's result memo
/// runs each unique job once across all figures (docs/ENGINE.md "Result
/// memo"). Each figure prints its table to stdout, in figure order, and
/// writes its sprof.bench_report/1 document into the output directory.
///
/// Usage: sprof-repro [--threads=N] [--out=DIR]
///   --threads=N  engine worker threads, 1..1024 (default 1); the tables
///                and documents are identical for any N
///   --out=DIR    directory for the documents (default .), created if
///                missing
///
/// Exit status: 0 ok, 1 when a document could not be written, 2 usage
/// error.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "driver/Experiments.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string_view>

using namespace sprof;

namespace {

/// The figures' sprof.bench_report/1 documents, written under their
/// historical file names into one directory. The writers report a failed
/// write on stderr; it turns the exit status to 1.
struct Reports {
  std::filesystem::path Dir;
  bool Ok = true;

  void rows(const char *File, const char *Figure, JsonValue Rows) {
    Ok = writeBenchRows((Dir / File).string(), Figure, std::move(Rows)) && Ok;
  }
  void suite(const char *File, const char *Figure,
             const std::vector<BenchMeasurement> &Measurements) {
    Ok = writeBenchReport((Dir / File).string(), Figure, Measurements) && Ok;
  }
};

/// Paper-published Figure 16 speedups (edge-check) where the text gives
/// them explicitly; nullopt elsewhere.
std::optional<double> paperFig16Speedup(const std::string &Bench) {
  if (Bench == "181.mcf")
    return 1.59;
  if (Bench == "254.gap")
    return 1.14;
  if (Bench == "197.parser")
    return 1.08;
  return std::nullopt;
}

/// Paper-published Figure 20 average overheads per method.
std::optional<double> paperFig20Overhead(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::EdgeCheck:
    return 0.58;
  case ProfilingMethod::NaiveLoop:
    return 2.72;
  case ProfilingMethod::NaiveAll:
    return 4.36;
  case ProfilingMethod::SampleEdgeCheck:
    return 0.17;
  case ProfilingMethod::SampleNaiveLoop:
    return 0.67;
  case ProfilingMethod::SampleNaiveAll:
    return 1.22;
  default:
    return std::nullopt;
  }
}

/// Paper-published Figure 21 average strideProf-processed percentages.
std::optional<double> paperFig21Processed(ProfilingMethod Method) {
  switch (Method) {
  case ProfilingMethod::EdgeCheck:
    return 11.0;
  case ProfilingMethod::NaiveLoop:
    return 60.0;
  case ProfilingMethod::NaiveAll:
    return 100.0;
  case ProfilingMethod::SampleEdgeCheck:
    return 1.0;
  case ProfilingMethod::SampleNaiveLoop:
    return 3.0;
  case ProfilingMethod::SampleNaiveAll:
    return 5.0;
  default:
    return std::nullopt;
  }
}

/// Header row of the per-method figures (16, 20-22).
std::vector<std::string> methodHeader() {
  std::vector<std::string> Header = {"benchmark"};
  for (ProfilingMethod M : paperStrideMethods())
    Header.push_back(profilingMethodName(M));
  return Header;
}

/// Figure 17's measurement: per benchmark, the share of the reference
/// run's dynamic loads that come from in-loop sites (loads in irreducible
/// loops count as out-loop). One self-contained job per benchmark.
std::vector<double> measureLoadMix(ExperimentEngine &Engine,
                                   const std::vector<const Workload *> &Ws) {
  std::vector<double> InLoopShares(Ws.size(), 0.0);
  for (size_t WI = 0; WI != Ws.size(); ++WI) {
    const Workload *W = Ws[WI];
    double *Share = &InLoopShares[WI];
    Engine.addJob("loadmix:" + W->info().Name, "run-job",
                  [W, Share](ObsSession *) {
                    Program Prog = W->build(DataSet::Ref);
                    Interpreter I(Prog.M, std::move(Prog.Memory));
                    RunStats S = I.run();
                    std::vector<SiteLocation> Sites = Prog.M.locateLoadSites();
                    uint64_t InLoop = 0, OutLoop = 0;
                    for (uint32_t FI = 0; FI != Prog.M.Functions.size();
                         ++FI) {
                      const Function &F = Prog.M.Functions[FI];
                      DomTree DT = DomTree::forward(F);
                      LoopInfo LI(F, DT);
                      for (uint32_t Site = 0; Site != Prog.M.NumLoadSites;
                           ++Site) {
                        if (Sites[Site].Func != FI)
                          continue;
                        if (LI.isInLoop(Sites[Site].Block))
                          InLoop += S.SiteCounts[Site];
                        else
                          OutLoop += S.SiteCounts[Site];
                      }
                    }
                    *Share = percent(static_cast<double>(InLoop),
                                     static_cast<double>(InLoop + OutLoop));
                  });
  }
  Engine.run();
  return InLoopShares;
}

// -- One renderer per figure ----------------------------------------------

void fig15(Reports &Out, const std::vector<BaselineMeasurement> &Ms) {
  Table T("Figure 15: SPECINT2000-shaped synthetic benchmarks");
  T.row({"program", "lang", "description", "train Minstr", "ref Minstr",
         "ref Mloads"});
  RunStats SuiteTrain, SuiteRef;
  SuiteTrain.Completed = SuiteRef.Completed = true;
  JsonValue Rows = JsonValue::array();
  for (const BaselineMeasurement &BM : Ms) {
    SuiteTrain += BM.Train;
    SuiteRef += BM.Ref;
    T.row({BM.Info.Name, BM.Info.Lang, BM.Info.Description,
           Table::fmt(BM.Train.Instructions / 1e6, 1),
           Table::fmt(BM.Ref.Instructions / 1e6, 1),
           Table::fmt(BM.Ref.LoadRefs / 1e6, 1)});
    Rows.push(baselineMeasurementToJson(BM));
  }
  T.row({"suite total", "-", "-",
         Table::fmt(SuiteTrain.Instructions / 1e6, 1),
         Table::fmt(SuiteRef.Instructions / 1e6, 1),
         Table::fmt(SuiteRef.LoadRefs / 1e6, 1)});
  T.print(std::cout);
  Out.rows("bench_fig15_workloads.json", "figure-15-workloads",
           std::move(Rows));
}

void fig16(Reports &Out, const std::vector<BenchMeasurement> &Ms) {
  const std::vector<ProfilingMethod> Methods = paperStrideMethods();
  Table T("Figure 16: speedup of stride prefetching "
          "(profile=train, run=ref)");
  std::vector<std::string> Header = methodHeader();
  Header.push_back("paper(edge-check)");
  T.row(Header);
  std::vector<std::vector<double>> PerMethod(Methods.size());
  for (const BenchMeasurement &BM : Ms) {
    std::vector<std::string> Row = {BM.Name};
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      double S = BM.Methods.at(Methods[MI]).Speedup;
      PerMethod[MI].push_back(S);
      Row.push_back(Table::fmt(S) + "x");
    }
    auto Paper = paperFig16Speedup(BM.Name);
    Row.push_back(Paper ? Table::fmt(*Paper) + "x" : "-");
    T.row(Row);
  }
  std::vector<std::string> AvgRow = {"average"};
  for (const std::vector<double> &Column : PerMethod)
    AvgRow.push_back(Table::fmt(mean(Column)) + "x");
  AvgRow.push_back("1.07x");
  T.row(AvgRow);
  T.print(std::cout);
  Out.suite("bench_fig16_speedup.json", "figure-16-speedup", Ms);
}

void fig17(Reports &Out, const std::vector<const Workload *> &Ws,
           const std::vector<double> &InLoopShares) {
  Table T("Figure 17: in-loop vs out-loop dynamic load references (ref)");
  T.row({"benchmark", "in-loop", "out-loop"});
  JsonValue Rows = JsonValue::array();
  for (size_t WI = 0; WI != Ws.size(); ++WI) {
    double InPct = InLoopShares[WI];
    T.row({Ws[WI]->info().Name, Table::fmtPercent(InPct),
           Table::fmtPercent(100.0 - InPct)});
    JsonValue R = JsonValue::object();
    R.set("name", Ws[WI]->info().Name);
    R.set("in_loop_pct", InPct);
    R.set("out_loop_pct", 100.0 - InPct);
    Rows.push(std::move(R));
  }
  double Avg = mean(InLoopShares);
  T.row({"average", Table::fmtPercent(Avg), Table::fmtPercent(100.0 - Avg)});
  T.row({"paper avg", "~60%", "~40%"});
  T.print(std::cout);
  Out.rows("bench_fig17_loadmix.json", "figure-17-loadmix", std::move(Rows));
}

/// Figures 18 (out-loop) and 19 (in-loop). \p PaperAvg, when set, is the
/// paper's average SSST share.
void populationFigure(Reports &Out, const char *Title, const char *PaperAvg,
                      const char *File, const char *Figure,
                      const std::vector<PopulationRow> &Rs) {
  Table T(Title);
  T.row({"benchmark", "SSST", "PMST", "WSST", "no-stride"});
  std::vector<double> S, P, W, N;
  JsonValue Rows = JsonValue::array();
  for (const PopulationRow &R : Rs) {
    S.push_back(R.SsstPct);
    P.push_back(R.PmstPct);
    W.push_back(R.WsstPct);
    N.push_back(R.NonePct);
    T.row({R.Bench, Table::fmtPercent(R.SsstPct),
           Table::fmtPercent(R.PmstPct), Table::fmtPercent(R.WsstPct),
           Table::fmtPercent(R.NonePct)});
    Rows.push(populationRowToJson(R));
  }
  T.row({"average", Table::fmtPercent(mean(S)), Table::fmtPercent(mean(P)),
         Table::fmtPercent(mean(W)), Table::fmtPercent(mean(N))});
  if (PaperAvg)
    T.row({"paper avg", PaperAvg, "-", "-", "-"});
  T.print(std::cout);
  Out.rows(File, Figure, std::move(Rows));
}

void fig20(Reports &Out, const std::vector<BenchMeasurement> &Ms) {
  const std::vector<ProfilingMethod> Methods = paperStrideMethods();
  Table T("Figure 20: profiling overhead over edge profiling alone "
          "(train input)");
  T.row(methodHeader());
  std::vector<std::vector<double>> PerMethod(Methods.size());
  for (const BenchMeasurement &BM : Ms) {
    std::vector<std::string> Row = {BM.Name};
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      double Overhead =
          ratio(static_cast<double>(BM.Methods.at(Methods[MI]).ProfiledCycles) -
                    static_cast<double>(BM.EdgeOnlyTrainCycles),
                static_cast<double>(BM.EdgeOnlyTrainCycles));
      PerMethod[MI].push_back(Overhead);
      Row.push_back(Table::fmtPercent(100.0 * Overhead, 0));
    }
    T.row(Row);
  }
  std::vector<std::string> AvgRow = {"average"};
  std::vector<std::string> PaperRow = {"paper avg"};
  for (size_t MI = 0; MI != Methods.size(); ++MI) {
    AvgRow.push_back(Table::fmtPercent(100.0 * mean(PerMethod[MI]), 0));
    auto Paper = paperFig20Overhead(Methods[MI]);
    PaperRow.push_back(Paper ? Table::fmtPercent(100.0 * *Paper, 0) : "-");
  }
  T.row(AvgRow);
  T.row(PaperRow);
  T.print(std::cout);
  Out.suite("bench_fig20_overhead.json", "figure-20-overhead", Ms);
}

void fig21(Reports &Out, const std::vector<BenchMeasurement> &Ms) {
  const std::vector<ProfilingMethod> Methods = paperStrideMethods();
  Table T("Figure 21: % of load references processed in strideProf "
          "(after sampling, train input)");
  T.row(methodHeader());
  std::vector<std::vector<double>> PerMethod(Methods.size());
  for (const BenchMeasurement &BM : Ms) {
    std::vector<std::string> Row = {BM.Name};
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      const MethodMeasurement &MM = BM.Methods.at(Methods[MI]);
      double Pct = percent(static_cast<double>(MM.StrideProcessed),
                           static_cast<double>(MM.TrainLoadRefs));
      PerMethod[MI].push_back(Pct);
      Row.push_back(Table::fmtPercent(Pct));
    }
    T.row(Row);
  }
  std::vector<std::string> AvgRow = {"average"};
  std::vector<std::string> PaperRow = {"paper avg"};
  for (size_t MI = 0; MI != Methods.size(); ++MI) {
    AvgRow.push_back(Table::fmtPercent(mean(PerMethod[MI])));
    auto Paper = paperFig21Processed(Methods[MI]);
    PaperRow.push_back(Paper ? "~" + Table::fmtPercent(*Paper, 0) : "-");
  }
  T.row(AvgRow);
  T.row(PaperRow);
  T.print(std::cout);
  Out.suite("bench_fig21_strideprof_rate.json", "figure-21-strideprof-rate",
            Ms);
}

void fig22(Reports &Out, const std::vector<BenchMeasurement> &Ms) {
  const std::vector<ProfilingMethod> Methods = paperStrideMethods();
  Table T("Figure 22: % of load references processed by the LFU routine "
          "(train input)");
  T.row(methodHeader());
  std::vector<std::vector<double>> Lfu(Methods.size()),
      ZeroShare(Methods.size());
  for (const BenchMeasurement &BM : Ms) {
    std::vector<std::string> Row = {BM.Name};
    for (size_t MI = 0; MI != Methods.size(); ++MI) {
      const MethodMeasurement &MM = BM.Methods.at(Methods[MI]);
      double Pct = percent(static_cast<double>(MM.LfuCalls),
                           static_cast<double>(MM.TrainLoadRefs));
      Lfu[MI].push_back(Pct);
      ZeroShare[MI].push_back(
          percent(static_cast<double>(MM.StrideProcessed - MM.LfuCalls),
                  static_cast<double>(MM.StrideProcessed)));
      Row.push_back(Table::fmtPercent(Pct));
    }
    T.row(Row);
  }
  std::vector<std::string> AvgRow = {"average"};
  std::vector<std::string> BypassRow = {"zero-stride bypass"};
  for (size_t MI = 0; MI != Methods.size(); ++MI) {
    AvgRow.push_back(Table::fmtPercent(mean(Lfu[MI])));
    BypassRow.push_back(Table::fmtPercent(mean(ZeroShare[MI])));
  }
  T.row(AvgRow);
  T.row(BypassRow);
  T.print(std::cout);
  std::cout << "(paper: for naive-all, 100% of references reach strideProf"
            << " but only ~68% reach LFU; ~32% are zero strides)\n";
  Out.suite("bench_fig22_lfu_rate.json", "figure-22-lfu-rate", Ms);
}

/// Figures 23-25: the train-profile speedup against the binary named by
/// \p Column, whose speedup is the member \p Other.
void sensitivityFigure(Reports &Out, const char *Title, const char *Column,
                       double SensitivityMeasurement::*Other,
                       const char *File, const char *Figure,
                       const std::vector<SensitivityMeasurement> &Ms) {
  Table T(Title);
  T.row({"benchmark", "train", Column});
  std::vector<double> Train, Mixed;
  JsonValue Rows = JsonValue::array();
  for (const SensitivityMeasurement &R : Ms) {
    Train.push_back(R.Train);
    Mixed.push_back(R.*Other);
    T.row({R.Name, Table::fmt(R.Train) + "x", Table::fmt(R.*Other) + "x"});
    Rows.push(sensitivityMeasurementToJson(R));
  }
  T.row({"average", Table::fmt(mean(Train)) + "x",
         Table::fmt(mean(Mixed)) + "x"});
  T.print(std::cout);
  Out.rows(File, Figure, std::move(Rows));
}

void prefetchQuality(Reports &Out, const std::vector<BenchMeasurement> &Ms) {
  Table T("Prefetch quality (edge-check profile, ref input)");
  T.row({"benchmark", "issued", "redundant", "late", "useful", "unused",
         "accuracy"});
  for (const BenchMeasurement &BM : Ms) {
    const MemoryStats &S =
        BM.Methods.at(ProfilingMethod::EdgeCheck).RefMemory;
    if (S.PrefetchesIssued == 0) {
      T.row({BM.Name, "0", "-", "-", "-", "-", "-"});
      continue;
    }
    double NonRedundant = static_cast<double>(S.PrefetchesIssued -
                                              S.PrefetchesRedundant);
    T.row({BM.Name, Table::fmtInt(S.PrefetchesIssued),
           Table::fmtInt(S.PrefetchesRedundant),
           Table::fmtInt(S.LatePrefetchHits),
           Table::fmtInt(S.PrefetchesUseful),
           Table::fmtInt(S.PrefetchesUnused),
           Table::fmtPercent(percent(static_cast<double>(S.PrefetchesUseful),
                                     NonRedundant))});
  }
  T.print(std::cout);
  std::cout << "(accuracy = useful / non-redundant issued; 'unused' lines"
            << " were evicted from L1 before any demand use)\n";
  Out.suite("bench_prefetch_quality.json", "prefetch-quality", Ms);
}

/// Parses the command line into \p Threads and \p Out. \returns false on
/// an unknown argument or a malformed value.
bool parseArgs(int Argc, char **Argv, unsigned &Threads, Reports &Out) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.starts_with("--threads=")) {
      uint64_t N = 0;
      if (!parseBenchCount(Arg.substr(10), 1, 1024, N))
        return false;
      Threads = static_cast<unsigned>(N);
    } else if (Arg.starts_with("--out=") && Arg.size() > 6) {
      Out.Dir = Arg.substr(6);
    } else {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = 1;
  Reports Out{"."};
  if (!parseArgs(Argc, Argv, Threads, Out)) {
    std::cerr << "usage: sprof-repro [--threads=N] [--out=DIR]\n";
    return 2;
  }
  // A directory that cannot be made shows up as failed writes below.
  std::error_code Ec;
  std::filesystem::create_directories(Out.Dir, Ec);

  auto Suite = makeSpecIntSuite();
  const std::vector<const Workload *> Ws = workloadPointers(Suite);
  EngineOptions Options;
  Options.Threads = Threads;
  ExperimentEngine Engine(Options);

  fig15(Out, measureSuiteBaselines(Engine, Ws));
  const std::vector<BenchMeasurement> Measurements = measureSuite(Engine, Ws);
  fig16(Out, Measurements);
  fig17(Out, Ws, measureLoadMix(Engine, Ws));
  populationFigure(Out,
                   "Figure 18: out-loop load references by stride property "
                   "(% of all load refs, naive-all profile)",
                   "1.7%", "bench_fig18_outloop_classes.json",
                   "figure-18-outloop-classes",
                   classifySuitePopulation(Engine, Ws, /*InLoopWanted=*/false));
  populationFigure(Out,
                   "Figure 19: in-loop load references by stride property "
                   "(% of all load refs, naive-all profile)",
                   nullptr, "bench_fig19_inloop_classes.json",
                   "figure-19-inloop-classes",
                   classifySuitePopulation(Engine, Ws, /*InLoopWanted=*/true));
  fig20(Out, Measurements);
  fig21(Out, Measurements);
  fig22(Out, Measurements);
  const std::vector<SensitivityMeasurement> Sensitivity =
      measureSuiteSensitivity(Engine, Ws);
  sensitivityFigure(Out,
                    "Figure 23: train-profile vs ref-profile speedups "
                    "(sample-edge-check, run=ref)",
                    "ref", &SensitivityMeasurement::Ref,
                    "bench_fig23_train_vs_ref.json", "figure-23-train-vs-ref",
                    Sensitivity);
  sensitivityFigure(Out,
                    "Figure 24: train vs edge.ref-stride.train speedups "
                    "(sample-edge-check, run=ref)",
                    "edge.ref-stride.train",
                    &SensitivityMeasurement::EdgeRefStrideTrain,
                    "bench_fig24_edge_sensitivity.json",
                    "figure-24-edge-sensitivity", Sensitivity);
  sensitivityFigure(Out,
                    "Figure 25: train vs edge.train-stride.ref speedups "
                    "(sample-edge-check, run=ref)",
                    "edge.train-stride.ref",
                    &SensitivityMeasurement::EdgeTrainStrideRef,
                    "bench_fig25_stride_sensitivity.json",
                    "figure-25-stride-sensitivity", Sensitivity);
  prefetchQuality(Out, measureSuite(Engine, Ws, {},
                                    {ProfilingMethod::EdgeCheck}));
  return Out.Ok ? 0 : 1;
}
