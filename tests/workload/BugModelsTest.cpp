//===- BugModelsTest.cpp - Table 10 bug-model tests ------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Every published bug modeled from the paper (Section 5.4 / Table 10)
// must be found by O2 with exactly the documented number of races, and
// the thread↔event cases must really involve one thread and one handler.
//
//===----------------------------------------------------------------------===//

#include "o2/Workload/BugModels.h"

#include "RaceOracle.h"

#include "o2/O2.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

class BugModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BugModelTest, O2FindsExpectedRaces) {
  const BugModel &Model = bugModels()[GetParam()];
  auto M = buildBugModel(Model);
  O2Analysis Result = analyzeModule(*M);
  EXPECT_EQ(Result.Races.numRaces(), Model.ExpectedRaces)
      << "model: " << Model.Name;
}

TEST_P(BugModelTest, ThreadEventInteractionIsReal) {
  const BugModel &Model = bugModels()[GetParam()];
  if (!Model.ThreadEventInteraction)
    GTEST_SKIP() << "not a thread<->event model";
  auto M = buildBugModel(Model);
  O2Analysis Result = analyzeModule(*M);
  ASSERT_GE(Result.Races.numRaces(), 1u);
  // At least one reported race pairs a thread with an event handler.
  bool SawMix = false;
  for (const Race &R : Result.Races.races()) {
    OriginKind KA = Result.SHB.thread(R.ThreadA).Kind;
    OriginKind KB = Result.SHB.thread(R.ThreadB).Kind;
    SawMix |= (KA == OriginKind::Event) != (KB == OriginKind::Event);
  }
  EXPECT_TRUE(SawMix) << "model: " << Model.Name;
}

TEST_P(BugModelTest, SoundnessOracleAgrees) {
  const BugModel &Model = bugModels()[GetParam()];
  auto M = buildBugModel(Model);

  O2Config Optimized;
  O2Analysis A = analyzeModule(*M, Optimized);

  // The D4-style straw man over the same points-to result and SHB graph.
  test::RaceOracleResult B = test::runRaceOracle(
      *A.PTA, A.SHB, test::RaceOracleOptions::strawMan());

  std::set<uint64_t> LocsA, LocsB;
  for (const Race &R : A.Races.races())
    LocsA.insert(R.Loc.key());
  for (const Race &R : B.Races)
    LocsB.insert(R.Loc.key());
  EXPECT_EQ(LocsA, LocsB) << "model: " << Model.Name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, BugModelTest,
                         ::testing::Range<size_t>(0, bugModels().size()),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return bugModels()[Info.param].Name;
                         });

TEST(BugModelsTest, Registry) {
  EXPECT_GE(bugModels().size(), 8u);
  EXPECT_NE(findBugModel("memcached_slabs"), nullptr);
  EXPECT_EQ(findBugModel("nonexistent"), nullptr);
  // Names are unique.
  std::set<std::string> Names;
  for (const BugModel &Model : bugModels())
    EXPECT_TRUE(Names.insert(Model.Name).second);
}

TEST(BugModelsTest, FiguresAreRaceFreeButImpreciseAnalysesDisagree) {
  // Figure 3: 0-ctx merges the per-thread objects and reports a false
  // race that OPA avoids — the motivating example of Section 3.2.
  const BugModel *Fig3 = findBugModel("figure3");
  ASSERT_TRUE(Fig3);
  auto M = buildBugModel(*Fig3);

  O2Config OPA;
  EXPECT_EQ(analyzeModule(*M, OPA).Races.numRaces(), 0u);

  O2Config Insensitive;
  Insensitive.PTA.Kind = ContextKind::Insensitive;
  EXPECT_GE(analyzeModule(*M, Insensitive).Races.numRaces(), 1u);
}

} // namespace
