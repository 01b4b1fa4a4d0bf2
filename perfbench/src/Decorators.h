//===- Decorators.h - Outside-in timing decorators --------------*- C++ -*-===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two decorators through which the benchmark times layers from the
/// outside, without tracing inside src/:
///
///   * TimedBackend wraps the native smt::DecisionProcedure and times every
///     isSat, Session::check and eliminateForall call. It is registered as
///     the backend "timed" and selected through Options::Backend, so every
///     consumer (analysis, abduction, diagnosis, daemon sessions) goes
///     through it unchanged. Counters and verdicts come from the wrapped
///     engine, untouched.
///   * AskTimer wraps whatever core::Oracle the diagnosis engine is asked
///     through: it counts asks, times the inner oracle, records the
///     answer-to-next-ask round trips, and can capture the answer script.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DECORATORS_H
#define PERFBENCH_DECORATORS_H

#include "core/Oracle.h"
#include "smt/DecisionProcedure.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Time and call counts per decision-procedure entry point.
struct SmtTimes {
  double IsSatMs = 0;
  uint64_t IsSatCalls = 0;
  double SessionCheckMs = 0;
  uint64_t SessionCheckCalls = 0;
  double QeMs = 0;
  uint64_t QeCalls = 0;

  double totalMs() const { return IsSatMs + SessionCheckMs + QeMs; }
  SmtTimes &operator+=(const SmtTimes &O);
  SmtTimes &operator-=(const SmtTimes &O);
};

/// Registry name of the timing decorator around "native".
inline constexpr const char *TimedBackendName = "timed";

/// Registers TimedBackendName with smt::registerBackend (idempotent).
void registerTimedBackend();

/// The timing decorator. Instances are per-thread like every backend.
class TimedBackend final : public abdiag::smt::DecisionProcedure {
public:
  TimedBackend(abdiag::smt::FormulaManager &M,
               std::unique_ptr<abdiag::smt::DecisionProcedure> Inner);
  /// Adds this instance's times and the inner engine's SolverStats to the
  /// process-wide totals (see retiredTotals()).
  ~TimedBackend() override;

  const char *name() const override { return TimedBackendName; }
  abdiag::smt::BackendCapabilities capabilities() const override {
    return Inner->capabilities();
  }
  bool isSat(const abdiag::smt::Formula *F,
             abdiag::smt::Model *Out = nullptr) override;
  std::unique_ptr<Session> openSession() override;
  const abdiag::smt::Formula *
  eliminateForall(const abdiag::smt::Formula *F,
                  const std::vector<abdiag::smt::VarId> &Xs) override;
  const abdiag::smt::SolverStats &stats() const override {
    return Inner->stats();
  }
  void resetStats() override { Inner->resetStats(); }
  void setCancellation(const abdiag::support::CancellationToken *T) override {
    Inner->setCancellation(T);
  }
  const abdiag::support::CancellationToken *cancellation() const override {
    return Inner->cancellation();
  }
  void setCaching(bool On) override { Inner->setCaching(On); }
  bool cachingEnabled() const override { return Inner->cachingEnabled(); }
  void setSimplexMaxPivots(int MaxPivots) override {
    Inner->setSimplexMaxPivots(MaxPivots);
  }

  const SmtTimes &times() const { return Times; }

private:
  class TimedSession;

  std::unique_ptr<abdiag::smt::DecisionProcedure> Inner;
  SmtTimes Times;
};

/// Times and SolverStats summed over every TimedBackend destroyed so far
/// (daemon sessions own their backends, so this is how the benchmark reads
/// them once the daemon has stopped).
struct RetiredTotals {
  SmtTimes Times;
  abdiag::smt::SolverStats Solver;
};
RetiredTotals retiredTotals();
void resetRetiredTotals();

/// The oracle decorator.
class AskTimer final : public abdiag::core::Oracle {
public:
  /// Round trips go to \p RttMs (may be null); answers are appended to
  /// \p Script when it is non-null.
  AskTimer(Oracle &Inner, std::vector<double> *RttMs,
           std::vector<Answer> *Script = nullptr)
      : Inner(Inner), RttMs(RttMs), Script(Script) {}

  Answer isInvariant(const abdiag::smt::Formula *F) override;
  Answer isPossible(const abdiag::smt::Formula *F,
                    const abdiag::smt::Formula *Given) override;

  /// Closes the last round trip at the verdict.
  void finish();

  uint64_t asks() const { return Asks; }
  double innerMs() const { return InnerMs; }

private:
  Oracle &Inner;
  std::vector<double> *RttMs;
  std::vector<Answer> *Script;
  uint64_t Asks = 0;
  double InnerMs = 0;
  Clock::time_point LastAnswer;
  bool Answered = false;

  Clock::time_point begin();
  Answer end(Clock::time_point Start, Answer A);
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_H
