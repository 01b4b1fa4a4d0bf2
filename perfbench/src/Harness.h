//===- Harness.h - Shared benchmark plumbing --------------------*- C++ -*-===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two workloads share: the run result and its JSON line, the
/// seeded certified-corpus set-up, the report pipeline driven through the
/// public ErrorDiagnoser API (the same steps as TriageEngine::triageOne,
/// timed per phase), the outside-in front-end replica, per-layer
/// aggregation, and the closed-loop daemon client.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Decorators.h"

#include "core/ErrorDiagnoser.h"
#include "core/Triage.h"
#include "study/Corpus.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Run configuration and result
//===----------------------------------------------------------------------===//

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< scratch directory owned by this run
};

/// Worker threads for set-up, and connections for the daemon's closed
/// loop: the machine's cores, capped at 4.
unsigned benchThreads();

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

class RunResult {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Counts \p N attempted operations.
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed operation and says why on stderr.
  void fail(const std::string &Why);
  /// A failed self-check (not an operation): marks the run incorrect.
  void checkFailed(const std::string &Why);

  bool correct() const { return Correct && Failed == 0; }
  const std::vector<Metric> &metrics() const { return Metrics; }

  /// The one-line JSON object the benchmark ends its stdout with.
  std::string json() const;

private:
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  unsigned Reported = 0; ///< failure messages printed so far
};

/// What an untraced run measured; addEndToEndMetrics() turns it into the
/// end-to-end metrics, the same set on every workload.
struct EndToEnd {
  uint64_t Reports = 0;
  double WallMs = 0; ///< measured wall time, set-up excluded
  std::vector<double> LatencyMs;
  uint64_t Asks = 0;
  uint64_t Decided = 0;
  double SetupMs = 0;
};
void addEndToEndMetrics(RunResult &Out, EndToEnd &E);

/// Nearest-rank percentile (0 < P <= 1) of \p V (sorted in place).
double percentile(std::vector<double> &V, double P);
/// Peak resident set size of this process in MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Set-up: the certified corpus
//===----------------------------------------------------------------------===//

struct CorpusSetup {
  std::vector<abdiag::study::CorpusProgram> Programs;
  /// Wall time of each set-up round; each round certifies an equal share.
  std::vector<double> RoundMs;
  double GenerateMs = 0;   ///< generation and certification alone
  uint64_t Candidates = 0; ///< candidates drawn across all rounds
};

/// Set-up rounds per run; setup_s is the median round scaled to the whole.
inline constexpr int SetupRounds = 3;

/// The set-up time a run reports: the median round, scaled to the whole.
double setupMs(const CorpusSetup &S);

/// Completes the set-up of programs [Begin, End) of a round.
using FinishRound = std::function<void(
    const std::vector<abdiag::study::CorpusProgram> &, size_t, size_t)>;

/// Generates and certifies \p Count programs of \p Causes from \p Seed in
/// SetupRounds rounds of equal share, each spread over benchThreads()
/// threads. \p Finish, when set, runs inside each round's timing. Throws
/// study::CorpusError when a program cannot be certified.
CorpusSetup
generateCorpus(uint64_t Seed, size_t Count,
               const std::vector<abdiag::study::ReportCause> &Causes,
               const FinishRound &Finish = {});

/// Runs \p Body(I, Thread) for I in [Begin, End) on up to benchThreads()
/// threads, each taking the next index; rethrows the first exception.
void parallelFor(size_t Begin, size_t End,
                 const std::function<void(size_t, unsigned)> &Body);

/// Writes \p P to \p Dir/<file name> and returns the path.
std::string writeProgram(const std::string &Dir,
                         const abdiag::study::CorpusProgram &P);

//===----------------------------------------------------------------------===//
// The report pipeline
//===----------------------------------------------------------------------===//

/// Deadline of each diagnosis attempt and daemon session; an expired one
/// is a failure.
inline constexpr uint64_t DeadlineMs = 30000;

struct PipelineConfig {
  abdiag::Options Pipeline;
  /// Share of answers turned into Unknown by core::UnknownInjectingOracle.
  double InjectUnknownRate = 0.0;
};

/// TriageOptions equivalent to \p C, for the TriageEngine reference run.
abdiag::core::TriageOptions triageOptions(const PipelineConfig &C);

/// One report, load through verdict, with its phase split.
struct ReportRow {
  abdiag::core::TriageStatus Status = abdiag::core::TriageStatus::Crashed;
  abdiag::core::DiagnosisOutcome Outcome =
      abdiag::core::DiagnosisOutcome::Inconclusive;
  std::string Message;
  size_t Loc = 0;
  size_t Queries = 0; ///< final transcript, as TriageReport::Queries
  uint64_t Asks = 0;  ///< questions the oracle answered, both attempts
  size_t AnswersUnknown = 0;
  size_t Potential = 0; ///< potential invariants + witnesses at the end
  int Iterations = 0;
  bool Escalated = false;
  bool AnalysisAlone = false;
  double WallMs = 0;
  double LoadMs = 0;
  double LemmaMs = 0;
  double OracleSetupMs = 0;
  double DiagnoseMs = 0;
  double OracleAskMs = 0;
  uint64_t OracleRuns = 0;
  SmtTimes Smt;           ///< whole report (TimedBackend only)
  SmtTimes SmtInDiagnose; ///< inside diagnose (TimedBackend only)
  abdiag::smt::SolverStats Solver; ///< delta over the report
  std::vector<abdiag::core::Answer> Script; ///< when recording
};

/// Triage one program through \p D the way TriageEngine::triageOne does:
/// load its source, the Lemma 1/2 checks, the concrete oracle (plus
/// injection), diagnose, and the 4x escalation. Round trips go to \p RttMs;
/// the answers are captured when \p Record is set.
ReportRow runReport(abdiag::core::ErrorDiagnoser &D,
                    const abdiag::study::CorpusProgram &P,
                    const PipelineConfig &C, std::vector<double> *RttMs,
                    bool Record = false);

/// True iff a decided report contradicts the certified classification.
bool contradicts(abdiag::core::DiagnosisOutcome O, bool IsRealBug);
/// True for Discharged/Validated.
bool decisive(abdiag::core::DiagnosisOutcome O);

/// Named counters of a SolverStats, in declaration order.
std::vector<std::pair<const char *, uint64_t>>
solverFields(const abdiag::smt::SolverStats &S);

/// Marks, by solverFields() index, the counters that differ between two
/// undecorated runs of the same inputs. Such counters depend on more than
/// the inputs (heap layout), so the exact comparisons skip them and the
/// traced run reports them.
using FieldMask = std::vector<bool>;
void markUnstable(const abdiag::smt::SolverStats &A,
                  const abdiag::smt::SolverStats &B, FieldMask &Unstable);
/// Marks the formula-substrate counters (FormulaManager work, which the
/// concrete oracle drives too, not only the decision procedure).
FieldMask formulaFields();
/// Comma-separated names of the marked counters.
std::string fieldNames(const FieldMask &M);

/// Empty when equal (ignoring counters marked in \p Skip), else the first
/// differing counter.
std::string solverDiff(const abdiag::smt::SolverStats &A,
                       const abdiag::smt::SolverStats &B,
                       const FieldMask *Skip = nullptr);

//===----------------------------------------------------------------------===//
// Per-layer aggregation
//===----------------------------------------------------------------------===//

/// Front-end work summed over reports.
struct FrontEndTotals {
  uint64_t Reports = 0;
  double ParseMs = 0;
  double AnnotateMs = 0;
  double SymbolicMs = 0;
  uint64_t Loc = 0;
  uint64_t Atoms = 0;
  uint64_t SummariesInstantiated = 0;

  FrontEndTotals &operator+=(const FrontEndTotals &O);
};

/// Re-runs the front end of ErrorDiagnoser::loadSource (parse, annotate,
/// symbolic analysis) on a private FormulaManager and backend, timing each
/// call; as warm across reports as the diagnoser it shadows.
class FrontEndReplica {
public:
  explicit FrontEndReplica(const abdiag::Options &Opts);
  void run(const std::string &Source, FrontEndTotals &Out);

private:
  abdiag::Options Opts;
  abdiag::smt::FormulaManager M;
  std::unique_ptr<abdiag::smt::DecisionProcedure> DP;
};

/// Sums of the per-report phase split.
struct CoreTotals {
  uint64_t Reports = 0;
  double WallMs = 0;
  double LoadMs = 0;
  double LemmaMs = 0;
  double OracleSetupMs = 0;
  double DiagnoseMs = 0;
  double DiagnoseSelfMs = 0;
  double OracleAskMs = 0;
  uint64_t OracleRuns = 0;
  uint64_t OracleAsks = 0;
  uint64_t Iterations = 0;
  uint64_t Escalated = 0;
  uint64_t AnalysisAlone = 0;
  uint64_t AnswersUnknown = 0;
  uint64_t Potential = 0;
  /// Reports whose phases miss the wall time by more than the slack.
  uint64_t SlackViolations = 0;
  /// Reports whose diagnose self time came out negative.
  uint64_t NegativeSelf = 0;
  /// Largest wall time a report spent outside the four phases.
  double MaxUnaccountedMs = 0;
  SmtTimes Smt;

  void add(const ReportRow &R);
};

/// The slack within which the four core phases must sum to a report's
/// wall time: the untimed glue between them (statistics snapshots, the
/// injection wrapper, programLoc) plus scheduler noise.
inline constexpr double SlackAbsMs = 0.5;
inline constexpr double SlackRel = 0.05;
/// Reports allowed past the slack: a thread preempted inside the glue,
/// which happens about once in 20000 reports on a shared machine.
inline constexpr double SlackViolationShare = 0.001;
/// Share of all wall time the glue may take in total (about 1% on
/// triage_decided's ~1 ms reports).
inline constexpr double UnaccountedShare = 0.03;

/// Fails the run unless the phases account for the wall time of all but
/// SlackViolationShare of the reports within the slack, and for all but
/// UnaccountedShare of the total, and no diagnose self time is negative.
void checkAccounting(const CoreTotals &C, RunResult &Out);

struct DaemonOutcome;

/// Appends every per-layer metric the benchmark defines, in a fixed
/// order, from the given measurements.
struct LayerInputs {
  const FrontEndTotals *FrontEnd = nullptr;
  const CoreTotals *Core = nullptr;
  SmtTimes Smt;                    ///< decision-procedure time, all reports
  abdiag::smt::SolverStats Solver; ///< counters over the same reports
  uint64_t SmtReports = 0;         ///< reports Smt/Solver cover
  const DaemonOutcome *Served = nullptr; ///< the server-layer run
  const CorpusSetup *Setup = nullptr;
  /// Times from an answer to the next question or the verdict.
  const std::vector<double> *AskRttMs = nullptr;
  double TracedOverUntraced = 0; ///< traced / untraced reports_per_s
  /// Solver counters that differed between two undecorated runs.
  uint64_t UnstableCounters = 0;
};
void addLayerMetrics(RunResult &Out, const LayerInputs &In);

//===----------------------------------------------------------------------===//
// The daemon side
//===----------------------------------------------------------------------===//

/// Triages programs [Begin, End) with a fresh ErrorDiagnoser each (as a
/// daemon session has), on benchThreads() threads, into \p Rows: the
/// answer scripts a daemon client replays and the counts its results must
/// match.
void recordPrograms(const std::vector<abdiag::study::CorpusProgram> &Programs,
                    size_t Begin, size_t End, const PipelineConfig &C,
                    std::vector<ReportRow> &Rows);

struct DaemonLoad {
  size_t Sessions = 0;     ///< session i replays program i % Programs
  unsigned Connections = 1; ///< closed loop: one session in flight each
};

struct DaemonOutcome {
  double WallMs = 0;                ///< first submit to last result
  std::vector<double> LatencyMs;    ///< submit sent to result received
  std::vector<double> AskRttMs;     ///< answer sent to next frame received
  std::vector<double> FirstFrameMs; ///< submit sent to first frame
  double ClientAnswerMs = 0;        ///< client time spent per ask (sum)
  uint64_t Asks = 0;
  uint64_t Decided = 0;
  uint64_t Completed = 0;
  uint64_t PeakActive = 0;
  uint64_t Refused = 0;
  uint64_t ProtocolErrors = 0;
};

/// Serves \p Load through an in-process DaemonServer on a unix socket
/// under \p WorkDir and replays the recorded scripts. Each session's
/// result is checked against the certified classification and its
/// recorded counts; failures go to \p Out. \p DaemonStartMs receives the
/// time to start the server.
DaemonOutcome
runDaemon(const std::vector<abdiag::study::CorpusProgram> &Programs,
          const std::vector<ReportRow> &Recorded, const DaemonLoad &Load,
          const abdiag::Options &Pipeline, const std::string &WorkDir,
          RunResult &Out, double &DaemonStartMs);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runTriageWorkload(const RunArgs &A, RunResult &Out);
void runDaemonWorkload(const RunArgs &A, RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
