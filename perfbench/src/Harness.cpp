//===- Harness.cpp - Shared benchmark plumbing ----------------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/IntervalAnnotator.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "smt/FormulaOps.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/resource.h>

using namespace abdiag;
using namespace abdiag::core;
using namespace perfbench;

unsigned perfbench::benchThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

//===----------------------------------------------------------------------===//
// RunResult
//===----------------------------------------------------------------------===//

void RunResult::fail(const std::string &Why) {
  ++Failed;
  if (Reported++ < 20)
    std::cerr << "perfbench: FAILED: " << Why << "\n";
}

void RunResult::checkFailed(const std::string &Why) {
  Correct = false;
  std::cerr << "perfbench: SELF-CHECK FAILED: " << Why << "\n";
}

static std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

std::string RunResult::json() const {
  std::string J = "{\"correct\": ";
  J += correct() ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(std::max<uint64_t>(Attempted, 1));
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + Metrics[I].Name + "\": {\"value\": " +
         number(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  J += "}}";
  return J;
}

void perfbench::addEndToEndMetrics(RunResult &Out, EndToEnd &E) {
  double N = static_cast<double>(E.Reports);
  Out.add("reports_per_s", N / (E.WallMs / 1000.0), "1/s");
  Out.add("report_ms_p50", percentile(E.LatencyMs, 0.50), "ms");
  Out.add("report_ms_p90", percentile(E.LatencyMs, 0.90), "ms");
  Out.add("queries_per_report", static_cast<double>(E.Asks) / N, "count");
  Out.add("decided_frac", static_cast<double>(E.Decided) / N, "frac");
  Out.add("setup_s", E.SetupMs / 1000.0, "s");
  Out.add("peak_rss_mb", peakRssMb(), "MB");
}

double perfbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

void perfbench::parallelFor(size_t Begin, size_t End,
                            const std::function<void(size_t, unsigned)> &Body) {
  std::atomic<size_t> Next{Begin};
  std::mutex ErrMu;
  std::exception_ptr Err; // guarded by ErrMu
  auto Worker = [&](unsigned T) {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= End)
        return;
      try {
        Body(I, T);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrMu);
        if (!Err)
          Err = std::current_exception();
        Next.store(End, std::memory_order_relaxed);
        return;
      }
    }
  };
  unsigned Threads = benchThreads();
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker, T);
  Worker(0);
  for (std::thread &Th : Pool)
    Th.join();
  if (Err)
    std::rethrow_exception(Err);
}

CorpusSetup
perfbench::generateCorpus(uint64_t Seed, size_t Count,
                          const std::vector<study::ReportCause> &Causes,
                          const FinishRound &Finish) {
  study::CorpusOptions Opts;
  Opts.Seed = Seed;
  Opts.Count = Count;
  Opts.Causes = Causes;
  // One generator per thread: generate(I) depends only on (options, I).
  std::vector<study::CorpusGenerator> Gens(benchThreads(),
                                           study::CorpusGenerator(Opts));
  CorpusSetup S;
  S.Programs.resize(Count);
  for (int Round = 0; Round < SetupRounds; ++Round) {
    size_t Begin = Count * Round / SetupRounds;
    size_t End = Count * (Round + 1) / SetupRounds;
    Clock::time_point T0 = Clock::now();
    parallelFor(Begin, End, [&](size_t I, unsigned T) {
      S.Programs[I] = Gens[T].generate(I);
    });
    S.GenerateMs += msBetween(T0, Clock::now());
    if (Finish)
      Finish(S.Programs, Begin, End);
    S.RoundMs.push_back(msBetween(T0, Clock::now()));
  }
  for (const study::CorpusGenerator &G : Gens)
    S.Candidates += G.stats().total().Candidates;
  return S;
}

double perfbench::setupMs(const CorpusSetup &S) {
  std::vector<double> Rounds = S.RoundMs;
  return percentile(Rounds, 0.5) * SetupRounds;
}

std::string perfbench::writeProgram(const std::string &Dir,
                                    const study::CorpusProgram &P) {
  std::string Path = Dir + "/" + P.FileName;
  std::ofstream OS(Path, std::ios::binary);
  OS << P.Source;
  if (!OS)
    throw std::runtime_error("cannot write " + Path);
  return Path;
}

//===----------------------------------------------------------------------===//
// The report pipeline
//===----------------------------------------------------------------------===//

TriageOptions perfbench::triageOptions(const PipelineConfig &C) {
  TriageOptions T;
  T.Jobs = 1;
  T.DeadlineMs = DeadlineMs;
  T.EscalateOnInconclusive = true;
  T.Pipeline = C.Pipeline;
  T.InjectUnknownRate = C.InjectUnknownRate;
  return T;
}

ReportRow perfbench::runReport(ErrorDiagnoser &D,
                               const study::CorpusProgram &P,
                               const PipelineConfig &C,
                               std::vector<double> *RttMs, bool Record) {
  ReportRow R;
  auto *Timed = dynamic_cast<TimedBackend *>(&D.procedure());
  SmtTimes SmtBefore = Timed ? Timed->times() : SmtTimes();
  Clock::time_point Start = Clock::now();
  smt::SolverStats Before = D.procedure().stats();

  // One token per attempt, cleared before it goes out of scope.
  std::optional<support::CancellationToken> Token;
  auto ArmDeadline = [&] {
    Token.emplace(std::chrono::milliseconds(DeadlineMs));
    D.procedure().setCancellation(&*Token);
  };

  try {
    ArmDeadline();
    Clock::time_point T0 = Clock::now();
    LoadResult L = D.loadSource(P.Source);
    Clock::time_point T1 = Clock::now();
    R.LoadMs = msBetween(T0, T1);
    if (!L) {
      R.Status = TriageStatus::LoadError;
      R.Message = L.message();
    } else {
      R.Loc = lang::programLoc(D.program());
      T0 = Clock::now();
      bool Discharged = D.dischargedByAnalysis();
      bool Validated = !Discharged && D.validatedByAnalysis();
      R.LemmaMs = msBetween(T0, Clock::now());
      if (Discharged || Validated) {
        R.Status = TriageStatus::Diagnosed;
        R.Outcome = Discharged ? DiagnosisOutcome::Discharged
                               : DiagnosisOutcome::Validated;
        R.AnalysisAlone = true;
      } else {
        T0 = Clock::now();
        std::unique_ptr<ConcreteOracle> Concrete = D.makeConcreteOracle();
        R.OracleSetupMs = msBetween(T0, Clock::now());
        R.OracleRuns = Concrete->numRuns();
        UnknownInjectingOracle Injected(*Concrete, P.Name,
                                        C.InjectUnknownRate);
        Oracle &Asked = C.InjectUnknownRate > 0.0
                            ? static_cast<Oracle &>(Injected)
                            : static_cast<Oracle &>(*Concrete);
        AskTimer Timer(Asked, RttMs, Record ? &R.Script : nullptr);
        SmtTimes SmtDiag = Timed ? Timed->times() : SmtTimes();
        T0 = Clock::now();
        DiagnosisResult Res = D.diagnose(Timer);
        if (Res.Outcome == DiagnosisOutcome::Inconclusive) {
          R.Escalated = true;
          ArmDeadline();
          DiagnosisConfig Cfg = C.Pipeline.diagnosisConfig();
          Cfg.MaxIterations *= 4;
          Cfg.MaxQueries *= 4;
          Cfg.MsaMaxSubsets *= 4;
          Res = D.diagnoseWith(Cfg, Timer);
        }
        Timer.finish();
        R.DiagnoseMs = msBetween(T0, Clock::now());
        if (Timed) {
          R.SmtInDiagnose = Timed->times();
          R.SmtInDiagnose -= SmtDiag;
        }
        R.OracleAskMs = Timer.innerMs();
        R.Asks = Timer.asks();
        R.Status = TriageStatus::Diagnosed;
        R.Outcome = Res.Outcome;
        R.Queries = Res.Transcript.size();
        R.Iterations = Res.Iterations;
        R.Potential = Res.PotentialInvariantCount + Res.PotentialWitnessCount;
        for (const QueryRecord &Q : Res.Transcript)
          R.AnswersUnknown += Q.Ans == Answer::Unknown;
      }
    }
  } catch (const support::CancelledError &) {
    R.Status = TriageStatus::Timeout;
    R.Message = "deadline of " + std::to_string(DeadlineMs) + " ms exceeded";
  } catch (const std::exception &E) {
    R.Status = TriageStatus::Crashed;
    R.Message = E.what();
  } catch (...) {
    R.Status = TriageStatus::Crashed;
    R.Message = "unknown exception";
  }

  D.procedure().setCancellation(nullptr);
  R.Solver = D.procedure().stats();
  R.Solver -= Before;
  R.WallMs = msBetween(Start, Clock::now());
  if (Timed) {
    R.Smt = Timed->times();
    R.Smt -= SmtBefore;
  }
  return R;
}

bool perfbench::decisive(DiagnosisOutcome O) {
  return O != DiagnosisOutcome::Inconclusive;
}

bool perfbench::contradicts(DiagnosisOutcome O, bool IsRealBug) {
  return (O == DiagnosisOutcome::Validated && !IsRealBug) ||
         (O == DiagnosisOutcome::Discharged && IsRealBug);
}

std::vector<std::pair<const char *, uint64_t>>
perfbench::solverFields(const smt::SolverStats &S) {
  return {{"queries", S.Queries},
          {"theory_checks", S.TheoryChecks},
          {"theory_conflicts", S.TheoryConflicts},
          {"cooper_fallbacks", S.CooperFallbacks},
          {"cache_hits", S.CacheHits},
          {"cache_misses", S.CacheMisses},
          {"session_checks", S.SessionChecks},
          {"core_skips", S.CoreSkips},
          {"qe_cache_hits", S.QeCacheHits},
          {"qe_cache_misses", S.QeCacheMisses},
          {"cross_checks", S.CrossChecks},
          {"sat_restarts", S.SatRestarts},
          {"sat_learned", S.SatLearned},
          {"sat_reduced", S.SatReduced},
          {"sat_max_lbd", S.SatMaxLbd},
          {"simplex_pivots", S.SimplexPivots},
          {"pivot_limit_hits", S.PivotLimitHits},
          {"tableau_reuses", S.TableauReuses},
          {"formula_nodes", S.FormulaNodes},
          {"formula_intern_hits", S.FormulaInternHits},
          {"formula_intern_probes", S.FormulaInternProbes},
          {"formula_memo_hits", S.FormulaMemoHits},
          {"formula_memo_misses", S.FormulaMemoMisses},
          {"formula_subst_prunes", S.FormulaSubstPrunes},
          {"formula_arena_bytes", S.FormulaArenaBytes}};
}

void perfbench::markUnstable(const smt::SolverStats &A,
                             const smt::SolverStats &B, FieldMask &Unstable) {
  auto FA = solverFields(A), FB = solverFields(B);
  Unstable.resize(FA.size());
  for (size_t I = 0; I < FA.size(); ++I)
    if (FA[I].second != FB[I].second)
      Unstable[I] = true;
}

FieldMask perfbench::formulaFields() {
  auto F = solverFields(smt::SolverStats());
  FieldMask M(F.size());
  for (size_t I = 0; I < F.size(); ++I)
    M[I] = std::string_view(F[I].first).starts_with("formula_");
  return M;
}

std::string perfbench::fieldNames(const FieldMask &M) {
  auto F = solverFields(smt::SolverStats());
  std::string S;
  for (size_t I = 0; I < M.size(); ++I)
    if (M[I])
      S += (S.empty() ? "" : ", ") + std::string(F[I].first);
  return S.empty() ? "none" : S;
}

std::string perfbench::solverDiff(const smt::SolverStats &A,
                                  const smt::SolverStats &B,
                                  const FieldMask *Skip) {
  auto FA = solverFields(A), FB = solverFields(B);
  for (size_t I = 0; I < FA.size(); ++I)
    if (FA[I].second != FB[I].second &&
        !(Skip && I < Skip->size() && (*Skip)[I]))
      return std::string(FA[I].first) + " " + std::to_string(FA[I].second) +
             " vs " + std::to_string(FB[I].second);
  return "";
}

//===----------------------------------------------------------------------===//
// Per-layer aggregation
//===----------------------------------------------------------------------===//

FrontEndTotals &FrontEndTotals::operator+=(const FrontEndTotals &O) {
  Reports += O.Reports;
  ParseMs += O.ParseMs;
  AnnotateMs += O.AnnotateMs;
  SymbolicMs += O.SymbolicMs;
  Loc += O.Loc;
  Atoms += O.Atoms;
  SummariesInstantiated += O.SummariesInstantiated;
  return *this;
}

FrontEndReplica::FrontEndReplica(const abdiag::Options &Opts)
    : Opts(Opts), DP(smt::createBackend("native", M)) {
  DP->setSimplexMaxPivots(Opts.SimplexMaxPivots);
}

void FrontEndReplica::run(const std::string &Source, FrontEndTotals &Out) {
  Clock::time_point T0 = Clock::now();
  lang::ParseResult P = lang::parseProgram(Source);
  Out.ParseMs += msBetween(T0, Clock::now());
  if (!P.ok())
    return;
  ++Out.Reports;
  lang::Program Prog = std::move(*P.Prog);
  Out.Loc += lang::programLoc(Prog);
  if (Opts.AutoAnnotate) {
    T0 = Clock::now();
    Prog = analysis::annotateLoops(Prog);
    Out.AnnotateMs += msBetween(T0, Clock::now());
  }
  T0 = Clock::now();
  analysis::AnalysisResult AR =
      analysis::analyzeProgram(Prog, *DP, Opts.analyzerOptions());
  Out.SymbolicMs += msBetween(T0, Clock::now());
  Out.Atoms +=
      smt::atomCount(AR.Invariants) + smt::atomCount(AR.SuccessCondition);
  Out.SummariesInstantiated += AR.SummariesInstantiated;
}

void CoreTotals::add(const ReportRow &R) {
  ++Reports;
  WallMs += R.WallMs;
  LoadMs += R.LoadMs;
  LemmaMs += R.LemmaMs;
  OracleSetupMs += R.OracleSetupMs;
  DiagnoseMs += R.DiagnoseMs;
  double Self = R.DiagnoseMs - R.SmtInDiagnose.totalMs() - R.OracleAskMs;
  DiagnoseSelfMs += Self;
  NegativeSelf += Self < 0;
  OracleAskMs += R.OracleAskMs;
  OracleRuns += R.OracleRuns;
  OracleAsks += R.Asks;
  Iterations += static_cast<uint64_t>(R.Iterations);
  Escalated += R.Escalated;
  AnalysisAlone += R.AnalysisAlone;
  AnswersUnknown += R.AnswersUnknown;
  Potential += R.Potential;
  double Unaccounted =
      R.WallMs - (R.LoadMs + R.LemmaMs + R.OracleSetupMs + R.DiagnoseMs);
  MaxUnaccountedMs = std::max(MaxUnaccountedMs, std::fabs(Unaccounted));
  SlackViolations +=
      std::fabs(Unaccounted) > SlackAbsMs + SlackRel * R.WallMs;
  Smt += R.Smt;
}

void perfbench::checkAccounting(const CoreTotals &C, RunResult &Out) {
  std::cerr << "perfbench: load + lemma + oracle set-up + diagnose miss a "
               "report's wall time by at most "
            << C.MaxUnaccountedMs << " ms; " << C.SlackViolations << " of "
            << C.Reports << " reports are past the slack of " << SlackAbsMs
            << " ms + " << SlackRel * 100 << "%\n";
  if (static_cast<double>(C.SlackViolations) >
      SlackViolationShare * static_cast<double>(C.Reports))
    Out.checkFailed(std::to_string(C.SlackViolations) + " of " +
                    std::to_string(C.Reports) +
                    " reports have phases that miss their wall time by "
                    "more than the slack");
  double Phases = C.LoadMs + C.LemmaMs + C.OracleSetupMs + C.DiagnoseMs;
  if (C.WallMs - Phases > UnaccountedShare * C.WallMs)
    Out.checkFailed("the phases leave " + std::to_string(C.WallMs - Phases) +
                    " ms of " + std::to_string(C.WallMs) +
                    " ms of report wall time unaccounted");
  if (C.NegativeSelf)
    Out.checkFailed(std::to_string(C.NegativeSelf) +
                    " reports with negative diagnose self time");
}

void perfbench::addLayerMetrics(RunResult &Out, const LayerInputs &In) {
  auto Per = [](double Sum, uint64_t N) {
    return N ? Sum / static_cast<double>(N) : 0.0;
  };
  auto Frac = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  const FrontEndTotals &F = *In.FrontEnd;
  const CoreTotals &C = *In.Core;
  uint64_t N = C.Reports;

  Out.add("lang.parse_ms", Per(F.ParseMs, F.Reports), "ms");
  Out.add("lang.loc", Per(F.Loc, F.Reports), "loc");
  Out.add("analysis.annotate_ms", Per(F.AnnotateMs, F.Reports), "ms");
  Out.add("analysis.symbolic_ms", Per(F.SymbolicMs, F.Reports), "ms");
  Out.add("analysis.formula_atoms", Per(F.Atoms, F.Reports), "count");
  Out.add("analysis.summaries_instantiated",
          Per(F.SummariesInstantiated, F.Reports), "count");

  Out.add("core.load_ms", Per(C.LoadMs, N), "ms");
  Out.add("core.lemma_ms", Per(C.LemmaMs, N), "ms");
  Out.add("core.analysis_alone", Frac(C.AnalysisAlone, N), "frac");
  Out.add("core.oracle_setup_ms", Per(C.OracleSetupMs, N), "ms");
  Out.add("core.oracle_runs", Per(C.OracleRuns, N), "count");
  Out.add("core.oracle_ask_ms", Per(C.OracleAskMs, N), "ms");
  Out.add("core.oracle_asks", Per(C.OracleAsks, N), "count");
  Out.add("core.diagnose_ms", Per(C.DiagnoseMs, N), "ms");
  Out.add("core.diagnose_self_ms", Per(C.DiagnoseSelfMs, N), "ms");
  Out.add("core.iterations", Per(C.Iterations, N), "count");
  Out.add("core.escalated", Frac(C.Escalated, N), "frac");
  Out.add("core.answers_unknown", Per(C.AnswersUnknown, N), "count");
  Out.add("core.potential_peak", Per(C.Potential, N), "count");

  const SmtTimes &T = In.Smt;
  const smt::SolverStats &S = In.Solver;
  uint64_t SN = In.SmtReports;
  Out.add("smt.session_check_ms", Per(T.SessionCheckMs, SN), "ms");
  Out.add("smt.session_check_calls", Per(T.SessionCheckCalls, SN), "count");
  Out.add("smt.is_sat_ms", Per(T.IsSatMs, SN), "ms");
  Out.add("smt.is_sat_calls", Per(T.IsSatCalls, SN), "count");
  Out.add("smt.qe_ms", Per(T.QeMs, SN), "ms");
  Out.add("smt.qe_calls", Per(T.QeCalls, SN), "count");
  Out.add("smt.cache_hit_frac", Frac(S.CacheHits, S.CacheHits + S.CacheMisses),
          "frac");
  Out.add("smt.core_skip_frac", Frac(S.CoreSkips, S.SessionChecks), "frac");
  Out.add("smt.qe_memo_hit_frac",
          Frac(S.QeCacheHits, S.QeCacheHits + S.QeCacheMisses), "frac");
  Out.add("smt.theory_checks", Per(S.TheoryChecks, SN), "count");
  Out.add("smt.simplex_pivots", Per(S.SimplexPivots, SN), "count");
  Out.add("smt.sat_learned", Per(S.SatLearned, SN), "count");
  Out.add("smt.formula_nodes", Per(S.FormulaNodes, SN), "count");

  const DaemonOutcome &D = *In.Served;
  std::vector<double> FirstFrameMs = D.FirstFrameMs;
  Out.add("server.first_frame_ms", percentile(FirstFrameMs, 0.5), "ms");
  Out.add("server.peak_active", D.PeakActive, "count");
  Out.add("server.refused", D.Refused, "count");
  Out.add("server.protocol_errors", D.ProtocolErrors, "count");
  Out.add("client.answer_ms", Per(D.ClientAnswerMs, D.Asks), "ms");
  std::vector<double> Rtt = *In.AskRttMs;
  Out.add("client.ask_rtt_ms_p50", percentile(Rtt, 0.50), "ms");
  Out.add("client.ask_rtt_ms_p99", percentile(Rtt, 0.99), "ms");

  const CorpusSetup &Set = *In.Setup;
  Out.add("study.gen_ms_per_program", Per(Set.GenerateMs, Set.Programs.size()),
          "ms");
  Out.add("study.candidates_per_accept",
          Per(static_cast<double>(Set.Candidates), Set.Programs.size()),
          "count");

  Out.add("trace.traced_over_untraced", In.TracedOverUntraced, "ratio");
  Out.add("trace.unstable_counters", In.UnstableCounters, "count");
  Out.add("trace.slack_violations", C.SlackViolations, "count");
  Out.add("trace.unaccounted_ms",
          Per(C.WallMs - C.LoadMs - C.LemmaMs - C.OracleSetupMs - C.DiagnoseMs,
              N),
          "ms");
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

void perfbench::recordPrograms(
    const std::vector<study::CorpusProgram> &Programs, size_t Begin,
    size_t End, const PipelineConfig &C, std::vector<ReportRow> &Rows) {
  parallelFor(Begin, End, [&](size_t I, unsigned) {
    ErrorDiagnoser D(C.Pipeline);
    Rows[I] = runReport(D, Programs[I], C, nullptr, /*Record=*/true);
  });
}
