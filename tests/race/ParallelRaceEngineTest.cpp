//===- ParallelRaceEngineTest.cpp - engine vs pairwise oracle --------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The race engine's determinism contract: the same races, in the same
// order with the same payloads, and exactly the same counters as the
// pairwise oracle (tests/race/RaceOracle.h), on every bundled example and
// generated workload, at any worker count — including forced sharding of
// tiny candidate lists, an external shared pool, and the matrix-less
// lockset path.
//
//===----------------------------------------------------------------------===//

#include "RaceOracle.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/ThreadPool.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

std::unique_ptr<Module> loadCase(const std::string &Name) {
  if (Name.rfind("oir_", 0) == 0) {
    std::ifstream In(std::string(O2_OIR_DIR) + "/" + Name.substr(4) + ".oir");
    EXPECT_TRUE(In.good()) << "cannot open " << Name;
    std::stringstream Buf;
    Buf << In.rdbuf();
    return parseProgram(Buf.str());
  }
  const WorkloadProfile *P = findProfile(Name);
  EXPECT_NE(P, nullptr) << Name;
  return generateWorkload(*P);
}

std::unique_ptr<PTAResult> runOPA(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  return runPointerAnalysis(M, Opts);
}

/// Every field of every race, in report order: equal renderings mean the
/// printed and JSON reports are byte-identical.
std::string render(const std::vector<Race> &Races, const PTAResult &PTA) {
  std::string Buf;
  StringOutputStream OS(Buf);
  for (const Race &Rc : Races)
    OS << Rc.Loc.toString(PTA) << ' ' << Rc.A->getId() << ' '
       << Rc.B->getId() << ' ' << Rc.ThreadA << ' ' << Rc.ThreadB << ' '
       << Rc.AIsWrite << ' ' << Rc.BIsWrite << '\n';
  return Buf;
}

/// The engine's report against the oracle's: same races, same counters.
void expectMatchesOracle(const RaceReport &R, const test::RaceOracleResult &O,
                         const PTAResult &PTA, const std::string &Tag) {
  EXPECT_EQ(render(R.races(), PTA), render(O.Races, PTA)) << Tag;
  EXPECT_EQ(R.stats().counters(), O.Stats.counters()) << Tag;
}

class ParallelRaceEngine : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelRaceEngine, ByteIdenticalToSerial) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  test::RaceOracleResult Oracle = test::runRaceOracle(*PTA, SHB);

  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    for (unsigned MinPar : {0u, 1u}) {
      RaceDetectorOptions Par;
      Par.Jobs = Jobs;
      // MinPar == 1 forces real sharding even on tiny candidate lists;
      // MinPar == 0 keeps the production inline-below-threshold default.
      if (MinPar)
        Par.MinParallelLocations = MinPar;
      RaceReport R = detectRaces(*PTA, SHB, Par);
      std::string Tag = GetParam() + "/jobs=" + std::to_string(Jobs) +
                        "/minpar=" + std::to_string(MinPar);
      expectMatchesOracle(R, Oracle, *PTA, Tag);
    }
  }
}

TEST_P(ParallelRaceEngine, SharedExternalPool) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  test::RaceOracleResult Oracle = test::runRaceOracle(*PTA, SHB);

  ThreadPool Pool(4);
  RaceDetectorOptions Par;
  Par.Pool = &Pool;
  Par.MinParallelLocations = 1;
  // Two runs on one borrowed pool: late tasks of the first run must not
  // disturb the second.
  RaceReport R1 = detectRaces(*PTA, SHB, Par);
  RaceReport R2 = detectRaces(*PTA, SHB, Par);
  expectMatchesOracle(R1, Oracle, *PTA, GetParam() + "/run1");
  expectMatchesOracle(R2, Oracle, *PTA, GetParam() + "/run2");
}

TEST_P(ParallelRaceEngine, SmallLocksetMatrixLimitStaysIdentical) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  auto PTA = runOPA(*M);
  SHBGraph SHB = buildSHBGraph(*PTA);
  test::RaceOracleResult Oracle = test::runRaceOracle(*PTA, SHB);

  // Forbid the precomputed matrix so the shard-local cache path runs.
  RaceDetectorOptions Par;
  Par.MinParallelLocations = 1;
  Par.LocksetMatrixMaxSize = 0;
  Par.Jobs = 4;
  RaceReport R = detectRaces(*PTA, SHB, Par);
  expectMatchesOracle(R, Oracle, *PTA, GetParam());
}

std::vector<std::string> engineCases() {
  std::vector<std::string> Cases = {
      "oir_racy_counter",   "oir_producer_consumer", "oir_event_thread_mix",
      "oir_fork_join",      "oir_locked_account",    "oir_lockfree_flag",
      "oir_nested_handlers"};
  for (const WorkloadProfile &P : benchmarkProfiles()) {
    if (P.PaddingFunctions > 100 || P.AmplifierFanOut > 12)
      continue; // large profiles; shape covered by the smaller ones
    Cases.push_back(P.Name);
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelRaceEngine,
                         ::testing::ValuesIn(engineCases()),
                         [](const auto &Info) { return Info.param; });

TEST(SerialHBModes, IndexMatchesMemoAndNaiveQueries) {
  // The acceptance oracle for the O(1) HB index: on every corpus module
  // the pairwise scan issues the same HB queries and reports the same
  // races whether they go through the breadth-first search or through the
  // precomputed index, which the engine's class math is built on.
  for (const std::string &Name : engineCases()) {
    auto M = loadCase(Name);
    ASSERT_TRUE(M);
    auto PTA = runOPA(*M);
    SHBGraph SHB = buildSHBGraph(*PTA);

    test::RaceOracleOptions BFS;
    BFS.IndexHB = false;
    test::RaceOracleResult ByBFS = test::runRaceOracle(*PTA, SHB, BFS);
    test::RaceOracleResult ByIndex = test::runRaceOracle(*PTA, SHB);
    EXPECT_EQ(render(ByBFS.Races, *PTA), render(ByIndex.Races, *PTA)) << Name;
    // Every counter agrees except the index-only segment count.
    StatisticRegistry IndexStats = ByIndex.Stats;
    IndexStats.set("race.hb-index-segments", 0);
    StatisticRegistry BFSStats = ByBFS.Stats;
    BFSStats.set("race.hb-index-segments", 0);
    EXPECT_EQ(BFSStats.counters(), IndexStats.counters()) << Name;
  }
}

} // namespace
