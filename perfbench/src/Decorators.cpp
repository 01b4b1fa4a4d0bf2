//===- Decorators.cpp - Outside-in timing decorators ----------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Decorators.h"

#include <mutex>

using namespace abdiag;
using namespace perfbench;

SmtTimes &SmtTimes::operator+=(const SmtTimes &O) {
  IsSatMs += O.IsSatMs;
  IsSatCalls += O.IsSatCalls;
  SessionCheckMs += O.SessionCheckMs;
  SessionCheckCalls += O.SessionCheckCalls;
  QeMs += O.QeMs;
  QeCalls += O.QeCalls;
  return *this;
}

SmtTimes &SmtTimes::operator-=(const SmtTimes &O) {
  IsSatMs -= O.IsSatMs;
  IsSatCalls -= O.IsSatCalls;
  SessionCheckMs -= O.SessionCheckMs;
  SessionCheckCalls -= O.SessionCheckCalls;
  QeMs -= O.QeMs;
  QeCalls -= O.QeCalls;
  return *this;
}

namespace {

std::mutex RetiredMu;
RetiredTotals Retired; // guarded by RetiredMu

} // namespace

RetiredTotals perfbench::retiredTotals() {
  std::lock_guard<std::mutex> Lock(RetiredMu);
  return Retired;
}

void perfbench::resetRetiredTotals() {
  std::lock_guard<std::mutex> Lock(RetiredMu);
  Retired = RetiredTotals();
}

void perfbench::registerTimedBackend() {
  smt::registerBackend(TimedBackendName, [](smt::FormulaManager &M) {
    return std::make_unique<TimedBackend>(M, smt::createBackend("native", M));
  });
}

class TimedBackend::TimedSession final
    : public smt::DecisionProcedure::Session {
public:
  TimedSession(std::unique_ptr<Session> Inner, SmtTimes &Times)
      : Inner(std::move(Inner)), Times(Times) {}

  bool check(const std::vector<const smt::Formula *> &Conjuncts,
             smt::Model *Out) override {
    Clock::time_point T0 = Clock::now();
    bool R = Inner->check(Conjuncts, Out);
    Times.SessionCheckMs += msBetween(T0, Clock::now());
    ++Times.SessionCheckCalls;
    return R;
  }
  const std::vector<const smt::Formula *> &lastCore() const override {
    return Inner->lastCore();
  }
  size_t numCores() const override { return Inner->numCores(); }

private:
  std::unique_ptr<Session> Inner;
  SmtTimes &Times;
};

TimedBackend::TimedBackend(smt::FormulaManager &M,
                           std::unique_ptr<smt::DecisionProcedure> Inner)
    : DecisionProcedure(M), Inner(std::move(Inner)) {}

TimedBackend::~TimedBackend() {
  std::lock_guard<std::mutex> Lock(RetiredMu);
  Retired.Times += Times;
  Retired.Solver += Inner->stats();
}

bool TimedBackend::isSat(const smt::Formula *F, smt::Model *Out) {
  Clock::time_point T0 = Clock::now();
  bool R = Inner->isSat(F, Out);
  Times.IsSatMs += msBetween(T0, Clock::now());
  ++Times.IsSatCalls;
  return R;
}

std::unique_ptr<smt::DecisionProcedure::Session> TimedBackend::openSession() {
  return std::make_unique<TimedSession>(Inner->openSession(), Times);
}

const smt::Formula *
TimedBackend::eliminateForall(const smt::Formula *F,
                              const std::vector<smt::VarId> &Xs) {
  Clock::time_point T0 = Clock::now();
  const smt::Formula *R = Inner->eliminateForall(F, Xs);
  Times.QeMs += msBetween(T0, Clock::now());
  ++Times.QeCalls;
  return R;
}

Clock::time_point AskTimer::begin() {
  Clock::time_point Now = Clock::now();
  if (Answered && RttMs)
    RttMs->push_back(msBetween(LastAnswer, Now));
  Answered = false;
  return Now;
}

core::Answer AskTimer::end(Clock::time_point Start, Answer A) {
  LastAnswer = Clock::now();
  Answered = true;
  InnerMs += msBetween(Start, LastAnswer);
  ++Asks;
  if (Script)
    Script->push_back(A);
  return A;
}

core::Answer AskTimer::isInvariant(const smt::Formula *F) {
  Clock::time_point T0 = begin();
  return end(T0, Inner.isInvariant(F));
}

core::Answer AskTimer::isPossible(const smt::Formula *F,
                                  const smt::Formula *Given) {
  Clock::time_point T0 = begin();
  return end(T0, Inner.isPossible(F, Given));
}

void AskTimer::finish() {
  if (Answered && RttMs)
    RttMs->push_back(msBetween(LastAnswer, Clock::now()));
  Answered = false;
}
