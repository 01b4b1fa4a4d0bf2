//===- Batch.cpp - The batch triage workload ------------------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// triage_decided: one warm ErrorDiagnoser triages the whole certified
/// corpus in order at --jobs 1, as one `abdiag_triage` run over it would.
/// The untraced run measures the end-to-end metrics; the traced run
/// selects the TimedBackend, shadows the front end, re-runs the same queue
/// through an undecorated TriageEngine as the exact reference, and serves
/// a few programs through a daemon for the server-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include <sched.h>

using namespace abdiag;
using namespace abdiag::core;
using namespace abdiag::study;
using namespace perfbench;

namespace {

/// The five causes that never need "don't know".
const std::vector<ReportCause> DecidedCauses = {
    ReportCause::ImpreciseInvariant, ReportCause::MissingAnnotation,
    ReportCause::NonLinearArithmetic, ReportCause::EnvironmentFact,
    ReportCause::SummarizedCall};

/// Programs per second of --seconds: sized so the measured pass lasts about
/// --seconds on a 4-core x86 server.
constexpr size_t ProgramsPerSecond = 900;

/// Programs also served through a daemon in the traced run.
constexpr size_t ServerProbePrograms = 60;

std::string statusText(const ReportRow &R) {
  std::string S = triageStatusName(R.Status);
  if (!R.Message.empty())
    S += " (" + R.Message + ")";
  return S;
}

/// Compares the decorated pipeline's row with the TriageEngine reference.
std::string rowDiff(const ReportRow &A, const TriageReport &B,
                    const FieldMask &Unstable) {
  if (A.Status != B.Status)
    return std::string("status ") + triageStatusName(A.Status) + " vs " +
           triageStatusName(B.Status);
  if (A.Loc != B.Loc)
    return "loc " + std::to_string(A.Loc) + " vs " + std::to_string(B.Loc);
  if (A.Outcome != B.Outcome)
    return std::string("verdict ") + diagnosisVerdictName(A.Outcome) +
           " vs " + diagnosisVerdictName(B.Outcome);
  if (A.Queries != B.Queries)
    return "queries " + std::to_string(A.Queries) + " vs " +
           std::to_string(B.Queries);
  if (A.Iterations != B.Iterations)
    return "iterations " + std::to_string(A.Iterations) + " vs " +
           std::to_string(B.Iterations);
  if (A.AnswersUnknown != B.AnswersUnknown || A.Escalated != B.Escalated ||
      A.AnalysisAlone != B.AnalysisAlone)
    return "answer counters or escalation differ";
  std::string S = solverDiff(A.Solver, B.Solver, &Unstable);
  return S.empty() ? "" : "solver " + S;
}

/// Moves the calling thread over every CPU it may run on, in turn, one
/// time slice each. The cores of a shared host run at different speeds,
/// and the scheduler leaves a lone busy thread on one core: a pass that
/// stayed there would take the speed of whichever core it started on.
/// With slices spread over all cores, every pass sees the same mix.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
      return;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed))
        Cpus.push_back(Cpu);
    if (Cpus.size() > 1)
      move();
  }
  ~CpuRotation() {
    if (Cpus.size() > 1)
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }

  /// Called between reports: moves on once the current slice is used up.
  void tick() {
    if (Cpus.size() > 1 && Clock::now() - SliceStart >= Slice)
      move();
  }

private:
  static constexpr auto Slice = std::chrono::milliseconds(200);

  void move() {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
    SliceStart = Clock::now();
  }

  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Next = 0;
  Clock::time_point SliceStart;
};

/// One measured pass over the queue.
struct Pass {
  std::vector<ReportRow> Rows;
  std::vector<double> RttMs;
  double WallMs = 0;
  FrontEndTotals FrontEnd; ///< when shadowed
};

/// Triages the whole queue with one diagnoser, rebuilt after a timeout or
/// crash as the triage engine does. With \p ShadowFrontEnd, the front-end
/// replica re-runs each report after it, outside the report's timing.
Pass measurePass(const std::vector<CorpusProgram> &Programs,
                 const PipelineConfig &C, bool ShadowFrontEnd) {
  Pass P;
  P.Rows.resize(Programs.size());
  auto D = std::make_unique<ErrorDiagnoser>(C.Pipeline);
  std::optional<FrontEndReplica> FrontEnd;
  if (ShadowFrontEnd)
    FrontEnd.emplace(C.Pipeline);
  CpuRotation Cpus;
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Programs.size(); ++I) {
    Cpus.tick();
    P.Rows[I] = runReport(*D, Programs[I], C, &P.RttMs);
    if (FrontEnd)
      FrontEnd->run(Programs[I].Source, P.FrontEnd);
    if (P.Rows[I].Status == TriageStatus::Timeout ||
        P.Rows[I].Status == TriageStatus::Crashed)
      D = std::make_unique<ErrorDiagnoser>(C.Pipeline);
  }
  P.WallMs = msBetween(T0, Clock::now());
  return P;
}

} // namespace

void perfbench::runTriageWorkload(const RunArgs &A, RunResult &Out) {
  size_t Count = ProgramsPerSecond * static_cast<size_t>(A.Seconds);

  // Set-up: generate and certify the corpus. Reports are loaded from
  // memory, which keeps file-system noise out of the measurement.
  CorpusSetup Setup = generateCorpus(A.Seed, Count, DecidedCauses);

  PipelineConfig C;
  if (A.Trace)
    C.Pipeline.Backend = TimedBackendName;
  Pass Measured = measurePass(Setup.Programs, C, A.Trace);
  const std::vector<ReportRow> &Rows = Measured.Rows;
  const std::vector<double> &RttMs = Measured.RttMs;

  CoreTotals Core;
  uint64_t Asks = 0, Decided = 0;
  std::vector<double> LatencyMs;
  smt::SolverStats Solver;
  for (size_t I = 0; I < Count; ++I) {
    const ReportRow &R = Rows[I];
    const CorpusProgram &P = Setup.Programs[I];
    Out.attempt();
    Core.add(R);
    Solver += R.Solver;
    Asks += R.Asks;
    LatencyMs.push_back(R.WallMs);
    if (R.Status != TriageStatus::Diagnosed)
      Out.fail(P.Name + ": " + statusText(R));
    else if (contradicts(R.Outcome, P.IsRealBug))
      Out.fail(P.Name + ": verdict " + diagnosisVerdictName(R.Outcome) +
               " contradicts the certified classification");
    else
      Decided += decisive(R.Outcome);
  }
  std::cerr << "perfbench: " << A.Workload << ": " << Count << " reports, "
            << RttMs.size() << " ask round trips\n";

  if (!A.Trace) {
    EndToEnd E;
    E.Reports = Count;
    E.WallMs = Measured.WallMs;
    E.LatencyMs = std::move(LatencyMs);
    E.Asks = Asks;
    E.Decided = Decided;
    E.SetupMs = setupMs(Setup);
    addEndToEndMetrics(Out, E);
    return;
  }

  // Reference: the same queue once more through the undecorated pipeline,
  // which gives the untraced throughput, and through an undecorated
  // TriageEngine. Those two must agree on every verdict and query count;
  // the solver counters on which they disagree depend on more than the
  // inputs. On everything else the decorated pass must match the engine
  // report by report.
  PipelineConfig Plain = C;
  Plain.Pipeline.Backend = "native";
  Pass Untraced = measurePass(Setup.Programs, Plain, false);
  std::string CorpusDir = A.WorkDir + "/corpus";
  std::filesystem::create_directories(CorpusDir);
  std::vector<TriageRequest> Queue;
  for (const CorpusProgram &P : Setup.Programs)
    Queue.emplace_back(writeProgram(CorpusDir, P), P.Name);
  TriageResult Ref = TriageEngine(triageOptions(Plain)).run(Queue);
  FieldMask Unstable;
  size_t Mismatches = 0;
  for (size_t I = 0; I < Count; ++I) {
    const ReportRow &U = Untraced.Rows[I];
    const TriageReport &R = Ref.Reports[I];
    markUnstable(U.Solver, R.Solver, Unstable);
    if ((U.Outcome != R.Outcome || U.Queries != R.Queries ||
         U.Iterations != R.Iterations) &&
        Mismatches++ < 5)
      Out.checkFailed(Setup.Programs[I].Name +
                      ": pipeline and TriageEngine disagree on verdict or "
                      "counts");
  }
  std::cerr << "perfbench: solver counters that differ between two "
               "undecorated runs of the same queue: "
            << fieldNames(Unstable) << "\n";
  for (size_t I = 0; I < Count; ++I) {
    std::string Diff = rowDiff(Rows[I], Ref.Reports[I], Unstable);
    if (!Diff.empty() && Mismatches++ < 5)
      Out.checkFailed(Setup.Programs[I].Name +
                      ": decorated pipeline differs from TriageEngine: " +
                      Diff);
  }
  double UntracedMs = 0;
  for (const ReportRow &R : Untraced.Rows)
    UntracedMs += R.WallMs;
  double TracedOverUntraced = UntracedMs / Core.WallMs;
  std::cerr << "perfbench: tracing overhead on " << A.Workload << ": "
            << Count / (Core.WallMs / 1000.0) << " reports/s traced vs "
            << Count / (UntracedMs / 1000.0) << " reports/s untraced\n";

  // The server layer on this workload's reports: a one-connection daemon
  // replaying cold-recorded scripts of the first few programs.
  size_t Probe = std::min(ServerProbePrograms, Count);
  std::vector<CorpusProgram> ProbePrograms(Setup.Programs.begin(),
                                           Setup.Programs.begin() + Probe);
  std::vector<ReportRow> ProbeRows(Probe);
  recordPrograms(ProbePrograms, 0, Probe, Plain, ProbeRows);
  DaemonLoad Load;
  Load.Sessions = Probe;
  Load.Connections = 1;
  double StartMs = 0;
  DaemonOutcome Served = runDaemon(ProbePrograms, ProbeRows, Load,
                                   Plain.Pipeline, A.WorkDir, Out, StartMs);

  checkAccounting(Core, Out);

  LayerInputs L;
  L.FrontEnd = &Measured.FrontEnd;
  L.Core = &Core;
  L.Smt = Core.Smt;
  L.Solver = Solver;
  L.SmtReports = Count;
  L.Served = &Served;
  L.Setup = &Setup;
  L.AskRttMs = &RttMs;
  L.TracedOverUntraced = TracedOverUntraced;
  L.UnstableCounters = std::count(Unstable.begin(), Unstable.end(), true);
  addLayerMetrics(Out, L);
}
