//===- Daemon.cpp - The daemon_mixed workload and its client --------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// daemon_mixed: an in-process DaemonServer on a unix socket serves all six
/// report causes to a closed loop of benchThreads() connections, each with
/// one session in flight. Clients answer each ask from a script recorded
/// at set-up by a cold diagnoser with 10% injected unknowns, so answering
/// costs a table lookup, not a mirror diagnoser competing for the cores.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Socket.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>

using namespace abdiag;
using namespace abdiag::core;
using namespace abdiag::server;
using namespace abdiag::study;
using namespace perfbench;

namespace {

/// Distinct programs per second of --seconds, and how many times each is
/// served: sized so the measured load lasts about --seconds on a 4-core
/// x86 server.
constexpr size_t DaemonProgramsPerSecond = 60;
constexpr size_t DaemonCycles = 3;
constexpr double DaemonInjectUnknownRate = 0.10;

const std::vector<ReportCause> AllCauses = {
    ReportCause::ImpreciseInvariant, ReportCause::MissingAnnotation,
    ReportCause::NonLinearArithmetic, ReportCause::EnvironmentFact,
    ReportCause::SummarizedCall,     ReportCause::UnknownAnswer};

/// What one connection saw.
struct ConnectionLog {
  DaemonOutcome Out;
  std::vector<std::string> Failures;
};

DiagnosisOutcome verdictFromWire(const std::string &V) {
  if (V == diagnosisVerdictName(DiagnosisOutcome::Validated))
    return DiagnosisOutcome::Validated;
  if (V == diagnosisVerdictName(DiagnosisOutcome::Discharged))
    return DiagnosisOutcome::Discharged;
  return DiagnosisOutcome::Inconclusive;
}

std::string submitFrame(const std::string &Session, const CorpusProgram &P) {
  return "{\"schema\":" + std::to_string(kProtocolSchema) +
         ",\"op\":\"submit\",\"session\":\"" + jsonEscape(Session) +
         "\",\"name\":\"" + jsonEscape(P.Name) + "\",\"source\":\"" +
         jsonEscape(P.Source) + "\"}\n";
}

std::string answerFrame(const std::string &Session, uint64_t Query,
                        Answer A) {
  return "{\"schema\":" + std::to_string(kProtocolSchema) +
         ",\"op\":\"answer\",\"session\":\"" + jsonEscape(Session) +
         "\",\"query\":" + std::to_string(Query) + ",\"answer\":\"" +
         answerName(A) + "\"}\n";
}

/// One closed-loop client: takes the next session index, submits, answers
/// every ask from the recorded script, and checks the result frame.
void clientLoop(const std::string &SocketPath,
                const std::vector<CorpusProgram> &Programs,
                const std::vector<ReportRow> &Recorded, size_t Sessions,
                std::atomic<size_t> &Next, ConnectionLog &Log) {
  std::string Err;
  FdHandle Fd = connectUnix(SocketPath, Err);
  if (!Fd.valid()) {
    Log.Failures.push_back("connect: " + Err);
    return;
  }
  LineReader Reader(Fd.get());
  DaemonOutcome &O = Log.Out;
  std::string Line;
  for (;;) {
    size_t I = Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= Sessions)
      return;
    const CorpusProgram &P = Programs[I % Programs.size()];
    const ReportRow &Rec = Recorded[I % Programs.size()];
    std::string Sid = "s" + std::to_string(I);
    Clock::time_point Sent = Clock::now();
    if (!writeAll(Fd.get(), submitFrame(Sid, P))) {
      Log.Failures.push_back(P.Name + ": submit write failed");
      return;
    }
    bool First = true;
    bool Answered = false;
    Clock::time_point AnswerSent;
    uint64_t Asks = 0;
    for (bool Done = false; !Done;) {
      if (!Reader.readLine(Line)) {
        Log.Failures.push_back(P.Name + ": connection closed mid-session");
        return;
      }
      Clock::time_point Got = Clock::now();
      if (First)
        O.FirstFrameMs.push_back(msBetween(Sent, Got));
      First = false;
      if (Answered)
        O.AskRttMs.push_back(msBetween(AnswerSent, Got));
      Answered = false;
      std::optional<ServerMessage> M = parseServerMessage(Line, Err);
      if (!M) {
        Log.Failures.push_back(P.Name + ": bad frame: " + Err);
        return;
      }
      switch (M->K) {
      case ServerMessage::Kind::Ask: {
        Answer A = Answer::Unknown;
        if (M->Query < Rec.Script.size())
          A = Rec.Script[M->Query];
        else
          Log.Failures.push_back(P.Name + ": asked past its recorded script");
        if (!writeAll(Fd.get(), answerFrame(Sid, M->Query, A))) {
          Log.Failures.push_back(P.Name + ": answer write failed");
          return;
        }
        AnswerSent = Clock::now();
        Answered = true;
        O.ClientAnswerMs += msBetween(Got, AnswerSent);
        ++Asks;
        break;
      }
      case ServerMessage::Kind::Result: {
        Done = true;
        ++O.Completed;
        O.LatencyMs.push_back(msBetween(Sent, Got));
        O.Asks += Asks;
        DiagnosisOutcome V = verdictFromWire(M->Verdict);
        if (M->Status != triageStatusName(TriageStatus::Diagnosed))
          Log.Failures.push_back(P.Name + ": " + M->Status + " " + M->Message);
        else if (contradicts(V, P.IsRealBug))
          Log.Failures.push_back(P.Name + ": verdict " + M->Verdict +
                                 " contradicts the certified classification");
        else if (V != Rec.Outcome || M->Queries != Rec.Queries ||
                 Asks != Rec.Asks)
          Log.Failures.push_back(
              P.Name + ": session (" + M->Verdict + ", " +
              std::to_string(M->Queries) + " queries, " +
              std::to_string(Asks) + " asks) differs from its recording (" +
              diagnosisVerdictName(Rec.Outcome) + ", " +
              std::to_string(Rec.Queries) + ", " + std::to_string(Rec.Asks) +
              ")");
        else
          O.Decided += decisive(V);
        break;
      }
      case ServerMessage::Kind::Error:
        Done = true;
        Log.Failures.push_back(P.Name + ": refused: " + M->Code + " " +
                               M->Message);
        break;
      }
    }
  }
}

} // namespace

DaemonOutcome perfbench::runDaemon(const std::vector<CorpusProgram> &Programs,
                                   const std::vector<ReportRow> &Recorded,
                                   const DaemonLoad &Load,
                                   const abdiag::Options &Pipeline,
                                   const std::string &WorkDir, RunResult &Out,
                                   double &DaemonStartMs) {
  ServerConfig Cfg;
  Cfg.UnixPath = WorkDir + "/daemon.sock";
  Cfg.MaxActiveSessions = Load.Connections;
  Cfg.SessionDeadlineMs = DeadlineMs;
  Cfg.Pipeline = Pipeline;
  Cfg.EscalateOnInconclusive = true;

  Clock::time_point T0 = Clock::now();
  DaemonServer Server(Cfg);
  std::string Err;
  if (!Server.start(Err))
    throw std::runtime_error("daemon start: " + Err);
  DaemonStartMs = msBetween(T0, Clock::now());

  std::vector<ConnectionLog> Logs(Load.Connections);
  std::atomic<size_t> Next{0};
  Clock::time_point W0 = Clock::now();
  {
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < Load.Connections; ++C)
      Clients.emplace_back(clientLoop, std::cref(Cfg.UnixPath),
                           std::cref(Programs), std::cref(Recorded),
                           Load.Sessions, std::ref(Next), std::ref(Logs[C]));
    for (std::thread &T : Clients)
      T.join();
  }
  DaemonOutcome O;
  O.WallMs = msBetween(W0, Clock::now());
  DaemonServer::Stats St = Server.stats();
  Server.stop();

  Out.attempt(Load.Sessions);
  for (ConnectionLog &L : Logs) {
    for (const std::string &F : L.Failures)
      Out.fail(F);
    DaemonOutcome &C = L.Out;
    O.LatencyMs.insert(O.LatencyMs.end(), C.LatencyMs.begin(),
                       C.LatencyMs.end());
    O.AskRttMs.insert(O.AskRttMs.end(), C.AskRttMs.begin(), C.AskRttMs.end());
    O.FirstFrameMs.insert(O.FirstFrameMs.end(), C.FirstFrameMs.begin(),
                          C.FirstFrameMs.end());
    O.ClientAnswerMs += C.ClientAnswerMs;
    O.Asks += C.Asks;
    O.Decided += C.Decided;
    O.Completed += C.Completed;
  }
  if (O.Completed != Load.Sessions)
    Out.fail(std::to_string(Load.Sessions - O.Completed) +
             " sessions never got a result frame");
  O.PeakActive = St.PeakActive;
  O.Refused = St.Refused;
  O.ProtocolErrors = St.ProtocolErrors;
  if (St.Refused)
    Out.fail(std::to_string(St.Refused) + " submits refused");
  if (St.ProtocolErrors)
    Out.fail(std::to_string(St.ProtocolErrors) + " protocol errors");
  return O;
}

void perfbench::runDaemonWorkload(const RunArgs &A, RunResult &Out) {
  size_t Count = DaemonProgramsPerSecond * static_cast<size_t>(A.Seconds);
  DaemonLoad Load;
  Load.Sessions = Count * DaemonCycles;
  Load.Connections = benchThreads();

  // Set-up: certify the corpus and record each program's answers with a
  // cold, undecorated diagnoser, round by round; then start the daemon.
  PipelineConfig Plain;
  Plain.InjectUnknownRate = DaemonInjectUnknownRate;
  std::vector<ReportRow> Recorded(Count);
  CorpusSetup Setup = generateCorpus(
      A.Seed, Count, AllCauses,
      [&](const std::vector<CorpusProgram> &Programs, size_t Begin,
          size_t End) {
        recordPrograms(Programs, Begin, End, Plain, Recorded);
      });
  for (size_t I = 0; I < Count; ++I) {
    const ReportRow &R = Recorded[I];
    if (R.Status != TriageStatus::Diagnosed)
      Out.checkFailed(Setup.Programs[I].Name + ": recording ended " +
                      triageStatusName(R.Status) + " " + R.Message);
  }

  if (!A.Trace) {
    double StartMs = 0;
    DaemonOutcome D = runDaemon(Setup.Programs, Recorded, Load,
                                Plain.Pipeline, A.WorkDir, Out, StartMs);
    std::cerr << "perfbench: daemon_mixed: " << D.LatencyMs.size()
              << " sessions, " << D.AskRttMs.size() << " ask round trips\n";
    EndToEnd E;
    E.Reports = Load.Sessions;
    E.WallMs = D.WallMs;
    E.LatencyMs = std::move(D.LatencyMs);
    E.Asks = D.Asks;
    E.Decided = D.Decided;
    E.SetupMs = setupMs(Setup) + StartMs;
    addEndToEndMetrics(Out, E);
    return;
  }

  // Core and front-end layers: each program once more through a cold,
  // decorated pipeline (what each daemon session runs), which must agree
  // exactly with its undecorated recording on everything a second
  // undecorated recording reproduces.
  std::vector<ReportRow> Again(Count);
  recordPrograms(Setup.Programs, 0, Count, Plain, Again);
  FieldMask Unstable;
  for (size_t I = 0; I < Count; ++I)
    markUnstable(Recorded[I].Solver, Again[I].Solver, Unstable);
  std::cerr << "perfbench: solver counters that differ between two "
               "undecorated recordings: "
            << fieldNames(Unstable) << "\n";
  PipelineConfig Timed = Plain;
  Timed.Pipeline.Backend = TimedBackendName;
  std::vector<ReportRow> Rows(Count);
  std::vector<FrontEndTotals> FEs(benchThreads());
  parallelFor(0, Count, [&](size_t I, unsigned T) {
    ErrorDiagnoser D(Timed.Pipeline);
    Rows[I] = runReport(D, Setup.Programs[I], Timed, nullptr);
    FrontEndReplica(Timed.Pipeline).run(Setup.Programs[I].Source, FEs[T]);
  });
  CoreTotals Core;
  FrontEndTotals FE;
  for (const FrontEndTotals &F : FEs)
    FE += F;
  size_t Mismatches = 0;
  for (size_t I = 0; I < Count; ++I) {
    const ReportRow &R = Rows[I], &Rec = Recorded[I];
    Core.add(R);
    std::string Diff = solverDiff(R.Solver, Rec.Solver, &Unstable);
    if ((R.Outcome != Rec.Outcome || R.Queries != Rec.Queries ||
         R.Asks != Rec.Asks || R.Iterations != Rec.Iterations ||
         !Diff.empty()) &&
        Mismatches++ < 5)
      Out.checkFailed(Setup.Programs[I].Name +
                      ": decorated pipeline differs from its recording " +
                      Diff);
  }

  // The daemon twice, undecorated and decorated; both are checked against
  // the recordings session by session, and the decorated sessions' solver
  // counters must sum to the recordings'. The formula-substrate counters
  // are left out of that sum: in the recordings the concrete oracle works
  // on the session's FormulaManager as well, in the daemon the client
  // answers.
  double StartMs = 0;
  DaemonOutcome Untraced = runDaemon(Setup.Programs, Recorded, Load,
                                     Plain.Pipeline, A.WorkDir, Out, StartMs);
  resetRetiredTotals();
  DaemonOutcome Traced = runDaemon(Setup.Programs, Recorded, Load,
                                   Timed.Pipeline, A.WorkDir, Out, StartMs);
  RetiredTotals Smt = retiredTotals();
  smt::SolverStats Expected;
  for (size_t I = 0; I < Load.Sessions; ++I)
    Expected += Recorded[I % Count].Solver;
  FieldMask Skip = formulaFields();
  for (size_t I = 0; I < Unstable.size(); ++I)
    Skip[I] = Skip[I] || Unstable[I];
  std::string Diff = solverDiff(Smt.Solver, Expected, &Skip);
  if (!Diff.empty())
    Out.checkFailed("decorated daemon solver counters differ from the "
                    "recordings: " +
                    Diff);
  double TracedOverUntraced = Untraced.WallMs / Traced.WallMs;
  std::cerr << "perfbench: tracing overhead on daemon_mixed: "
            << Load.Sessions / (Traced.WallMs / 1000.0)
            << " reports/s traced vs "
            << Load.Sessions / (Untraced.WallMs / 1000.0)
            << " reports/s untraced\n";

  checkAccounting(Core, Out);

  LayerInputs L;
  L.FrontEnd = &FE;
  L.Core = &Core;
  L.Smt = Smt.Times;
  L.Solver = Smt.Solver;
  L.SmtReports = Load.Sessions;
  L.Served = &Traced;
  L.Setup = &Setup;
  L.AskRttMs = &Traced.AskRttMs;
  L.TracedOverUntraced = TracedOverUntraced;
  L.UnstableCounters = std::count(Unstable.begin(), Unstable.end(), true);
  addLayerMetrics(Out, L);
}
