//===- bench_table5_race.cpp - Table 5 (right): race-detection times ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Regenerates the right half of Table 5: end-to-end race detection time
// (pointer analysis + SHB + detection, as in the paper) for O2 and for
// the same engine running on 0-ctx/k-CFA/k-obj points-to results, plus
// the RacerD-like syntactic baseline. Expected shape: O2 within a small
// factor of 0-ctx, far ahead of the deep-context configurations.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "o2/Race/RacerDLike.h"

using namespace o2;
using namespace o2bench;

/// Conflicting pairs a pairwise detector checks before the row counts
/// as over budget.
static constexpr uint64_t DetectPairBudget = 2'000'000;

static void BM_RaceDetection(benchmark::State &State,
                             const std::string &ProfileName,
                             PTAOptions Opts) {
  auto M = buildProfile(ProfileName);
  for (auto _ : State) {
    auto PTA = runPointerAnalysis(*M, Opts);
    RaceReport Report = detectRaces(*PTA);
    State.counters["races"] = Report.numRaces();
    // The ">4h" analogue for detection: more conflicting pairs than a
    // pairwise scan could check in budget. The counter is exact — the
    // engine charges what that scan would do — so the row is flagged
    // without truncating its race set.
    State.counters["budget_hit"] =
        (PTA->hitBudget() ||
         Report.stats().get("race.pairs-checked") > DetectPairBudget)
            ? 1
            : 0;
    benchmark::DoNotOptimize(Report);
  }
}

static void BM_RacerD(benchmark::State &State,
                      const std::string &ProfileName) {
  auto M = buildProfile(ProfileName);
  for (auto _ : State) {
    RacerDReport Report = runRacerDLike(*M);
    State.counters["races"] = Report.numPotentialRaces();
    benchmark::DoNotOptimize(Report);
  }
}

int main(int Argc, char **Argv) {
  std::vector<std::string> Profiles;
  for (const std::string &P : dacapoProfiles())
    Profiles.push_back(P);
  for (const std::string &P : androidProfiles())
    Profiles.push_back(P);
  for (const std::string &P : distributedProfiles())
    Profiles.push_back(P);

  for (const std::string &Profile : Profiles) {
    for (const auto &[CfgName, Opts] : pointerAnalysisConfigs()) {
      std::string Label = CfgName == "1-origin" ? "O2" : CfgName;
      benchmark::RegisterBenchmark(
          ("table5_race/" + Profile + "/" + Label).c_str(), BM_RaceDetection,
          Profile, Opts)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("table5_race/" + Profile + "/racerd").c_str(), BM_RacerD, Profile)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  return runBenchmarks(
      Argc, Argv,
      "Table 5 (right): end-to-end race-detection time per benchmark and "
      "context abstraction (O2 = detection on OPA); counter: #races");
}
