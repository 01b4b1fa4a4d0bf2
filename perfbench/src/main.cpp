//===- main.cpp - The abdiag end-to-end benchmark -------------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workdir DIR --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload (triage_decided, daemon_mixed) on a certified corpus
/// generated from the seed, checks every verdict, and ends stdout with one
/// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer ones. Counts that are exact at --jobs 1 are recorded under
/// DIR/exact and must reproduce on every later run of the same binary,
/// workload, seed and size. Exits 1 when any check fails, 2 on bad usage,
/// 3 when the run overstays its time limit.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace perfbench;

namespace {

/// A run that has not finished by then is stuck; the benchmark must exit
/// within 180 s.
constexpr auto RunTimeLimit = std::chrono::seconds(170);

const std::vector<std::string> Workloads = {"triage_decided",
                                            "daemon_mixed"};

/// Metrics that are exact counts at --jobs 1, per trace mode.
const std::vector<std::string> ExactUntraced = {"queries_per_report",
                                                "decided_frac"};
const std::vector<std::string> ExactTraced = {
    "smt.session_check_calls", "smt.is_sat_calls", "smt.qe_calls",
    "core.iterations"};

int usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workdir DIR --workload NAME --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos ||
      S.size() > 18)
    return false;
  Out = std::stoull(S);
  return true;
}

/// Identifies the running binary, so a rebuilt benchmark starts a fresh
/// record of exact counts.
std::string binaryIdentity() {
  struct stat St {};
  if (::stat("/proc/self/exe", &St) != 0)
    return "unknown";
  return std::to_string(St.st_size) + "-" + std::to_string(St.st_mtime);
}

/// Compares the run's exact counts with an earlier run of the same binary
/// on the same inputs, or records them when there is none.
void checkExactCounts(const RunArgs &A, const std::string &Dir,
                      RunResult &Out) {
  const std::vector<std::string> &Exact = A.Trace ? ExactTraced : ExactUntraced;
  std::map<std::string, double> Now;
  for (const Metric &M : Out.metrics())
    if (std::find(Exact.begin(), Exact.end(), M.Name) != Exact.end())
      Now[M.Name] = M.Value;

  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/" + A.Workload + "-seed" +
                     std::to_string(A.Seed) + "-s" +
                     std::to_string(A.Seconds) + "-trace" +
                     (A.Trace ? "1" : "0") + "-" + binaryIdentity();
  std::ifstream In(Path);
  if (!In) {
    std::ofstream OS(Path);
    OS.precision(17);
    for (const auto &[Name, Value] : Now)
      OS << Name << " " << Value << "\n";
    return;
  }
  std::string Name;
  double Value = 0;
  while (In >> Name >> Value) {
    auto It = Now.find(Name);
    if (It == Now.end() || It->second != Value) {
      std::ostringstream Msg;
      Msg.precision(17);
      Msg << Name << " was " << Value << " on an earlier run of this seed, now "
          << (It == Now.end() ? -1.0 : It->second);
      Out.checkFailed(Msg.str());
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  std::string Trace;
  uint64_t Seconds = 0;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value for " + Flag);
    std::string Value = Argv[++I];
    if (Flag == "--workdir")
      A.WorkDir = Value;
    else if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed") {
      if (!parseUnsigned(Value, A.Seed))
        return usage("bad --seed " + Value);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, Seconds) || Seconds < 1 || Seconds > 60)
        return usage("--seconds must be 1..60");
    } else if (Flag == "--trace")
      Trace = Value;
    else
      return usage("unknown flag " + Flag);
  }
  if (A.WorkDir.empty() || !HaveSeed || !Seconds ||
      (Trace != "0" && Trace != "1"))
    return usage("--workdir, --seed, --seconds and --trace are required");
  if (std::find(Workloads.begin(), Workloads.end(), A.Workload) ==
      Workloads.end())
    return usage("unknown workload '" + A.Workload + "'");
  A.Seconds = static_cast<int>(Seconds);
  A.Trace = Trace == "1";

  // Watchdog: a stuck run must still end, with an error, in time.
  std::mutex DoneMu;
  std::condition_variable DoneCv;
  bool Done = false; // guarded by DoneMu
  std::thread Watchdog([&] {
    std::unique_lock<std::mutex> Lock(DoneMu);
    if (!DoneCv.wait_for(Lock, RunTimeLimit, [&] { return Done; })) {
      std::cerr << "perfbench: run exceeded its time limit\n";
      std::_Exit(3);
    }
  });

  std::string RootDir = A.WorkDir;
  A.WorkDir = RootDir + "/run-" + std::to_string(::getpid());
  RunResult Out;
  int Status = 0;
  try {
    std::filesystem::remove_all(A.WorkDir);
    std::filesystem::create_directories(A.WorkDir);
    registerTimedBackend();
    if (A.Workload == "daemon_mixed")
      runDaemonWorkload(A, Out);
    else
      runTriageWorkload(A, Out);
    checkExactCounts(A, RootDir + "/exact", Out);
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
    Status = 1;
  }
  std::error_code Ignored;
  std::filesystem::remove_all(A.WorkDir, Ignored);
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Done = true;
  }
  DoneCv.notify_one();
  Watchdog.join();

  if (Status)
    return Status;
  std::cout << Out.json() << std::endl;
  return Out.correct() ? 0 : 1;
}
