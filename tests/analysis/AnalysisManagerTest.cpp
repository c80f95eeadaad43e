//===- AnalysisManagerTest.cpp - Pass manager tests ---------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the AnalysisManager: the result-sharing contract (one PTA / one
// SHB per module, asserted through invocation counters), lazy closure
// scheduling, config fingerprints (perf knobs excluded, result-affecting
// options and dependency options included), cancellation naming aux
// passes, `--analyses=` parsing, and the OSA-vs-escape over-approximation
// the paper's Table 7 is built on.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"

#include "o2/IR/Parser.h"
#include "o2/O2.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

const char *RacyProgram = R"(
  class T {
    method run() { var x: int; @g = x; }
  }
  global g: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @g;
  }
)";

std::unique_ptr<Module> parse(const char *Source) {
  std::string Err;
  auto M = parseModule(Source, Err);
  EXPECT_TRUE(M) << Err;
  return M;
}

TEST(AnalysisManagerTest, SharedInfrastructureAcrossDetectors) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  EXPECT_TRUE(AM.run({O2Phase::Detect, O2Phase::Deadlock, O2Phase::OverSync,
                      O2Phase::OSA}));

  // The whole point of the manager: one PTA and one SHB feed the race
  // detector, the deadlock detector, and the over-sync analysis.
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::OSA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Detect), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Deadlock), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::OverSync), 1u);

  // Accessors and repeated run() calls reuse the stored results.
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
  (void)AM.getDeadlocks();
  (void)AM.getOverSync();
  EXPECT_TRUE(AM.run({O2Phase::Detect, O2Phase::Deadlock}));
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Detect), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::Deadlock), 1u);

  // Every ran pass reports wall-clock and the total includes them all.
  EXPECT_GT(AM.totalSeconds(), 0.0);
  double Sum = 0;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    Sum += AM.seconds(static_cast<O2Phase>(K));
  EXPECT_DOUBLE_EQ(AM.totalSeconds(), Sum);
}

TEST(AnalysisManagerTest, LazyGettersComputeClosureOnDemand) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  EXPECT_FALSE(AM.ran(O2Phase::PTA));

  // getDeadlocks() pulls in exactly its dependency closure: PTA, SHB and
  // the HBIndex, but neither OSA nor the race detector.
  (void)AM.getDeadlocks();
  EXPECT_TRUE(AM.ran(O2Phase::PTA));
  EXPECT_TRUE(AM.ran(O2Phase::SHB));
  EXPECT_TRUE(AM.ran(O2Phase::HBIndex));
  EXPECT_TRUE(AM.ran(O2Phase::Deadlock));
  EXPECT_FALSE(AM.ran(O2Phase::OSA));
  EXPECT_FALSE(AM.ran(O2Phase::Detect));
  EXPECT_FALSE(AM.ran(O2Phase::RacerD));

  // Pulling the race report afterwards reuses all three.
  EXPECT_EQ(AM.getRaces().numRaces(), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::SHB), 1u);
  EXPECT_EQ(AM.invocations(O2Phase::HBIndex), 1u);
}

TEST(AnalysisManagerTest, ManagerMatchesFacade) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  AM.run(AnalysisSet::defaultSet());

  O2Analysis Facade = analyzeModule(*M);
  EXPECT_EQ(AM.getRaces().numRaces(), Facade.Races.numRaces());
  EXPECT_EQ(AM.getSharing().sharedLocations().size(),
            Facade.Sharing.sharedLocations().size());
}

TEST(AnalysisManagerTest, FingerprintIgnoresPerfKnobs) {
  O2Config Base;
  O2Config Tuned;
  Tuned.Detector.Jobs = 7;
  Tuned.Detector.MinParallelLocations = 1;
  Tuned.Detector.LocksetMatrixMaxSize = 123;
  Tuned.PTA.NodeBudget = Base.PTA.NodeBudget; // explicit: budget is NOT a knob

  for (unsigned K = 1; K < NumO2Phases; ++K) {
    O2Phase P = static_cast<O2Phase>(K);
    EXPECT_EQ(passFingerprint(P, Base), passFingerprint(P, Tuned))
        << "perf knob changed the fingerprint of " << phaseName(P);
  }
  EXPECT_EQ(analysisSetFingerprint(AnalysisSet::all(), Base),
            analysisSetFingerprint(AnalysisSet::all(), Tuned));
}

TEST(AnalysisManagerTest, FingerprintTracksResultAffectingOptions) {
  O2Config Base;

  // PTA options propagate to every dependent pass.
  O2Config Worklist;
  Worklist.PTA.Solver = SolverKind::Worklist;
  EXPECT_NE(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, Worklist));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, Worklist));
  EXPECT_NE(passFingerprint(O2Phase::Deadlock, Base),
            passFingerprint(O2Phase::Deadlock, Worklist));
  // ...but not to the PTA-independent syntactic baseline.
  EXPECT_EQ(passFingerprint(O2Phase::RacerD, Base),
            passFingerprint(O2Phase::RacerD, Worklist));

  // Detector options stay local to the detector.
  O2Config NoAtomics;
  NoAtomics.Detector.HandleAtomics = false;
  EXPECT_EQ(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, NoAtomics));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, NoAtomics));

  // SHB options reach the detector through the dependency closure.
  O2Config NoSerialize;
  NoSerialize.Detector.SHB.SerializeEventHandlers = false;
  EXPECT_EQ(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, NoSerialize));
  EXPECT_NE(passFingerprint(O2Phase::SHB, Base),
            passFingerprint(O2Phase::SHB, NoSerialize));
  EXPECT_NE(passFingerprint(O2Phase::Detect, Base),
            passFingerprint(O2Phase::Detect, NoSerialize));

  O2Config K2;
  K2.PTA.Kind = ContextKind::KCallsite;
  K2.PTA.K = 2;
  EXPECT_NE(passFingerprint(O2Phase::PTA, Base),
            passFingerprint(O2Phase::PTA, K2));
}

TEST(AnalysisManagerTest, SetFingerprintCoversRequestedClosure) {
  O2Config Cfg;
  uint64_t Race = analysisSetFingerprint({O2Phase::Detect}, Cfg);
  uint64_t RaceDeadlock =
      analysisSetFingerprint({O2Phase::Detect, O2Phase::Deadlock}, Cfg);
  uint64_t Default = analysisSetFingerprint(AnalysisSet::defaultSet(), Cfg);
  EXPECT_NE(Race, RaceDeadlock);
  EXPECT_NE(Race, Default);
  // Deterministic across calls.
  EXPECT_EQ(RaceDeadlock,
            analysisSetFingerprint({O2Phase::Deadlock, O2Phase::Detect}, Cfg));
}

TEST(AnalysisManagerTest, CancellationNamesAuxPass) {
  auto M = parse(RacyProgram);

  // A pre-cancelled token with a RacerD-only request: RacerD has no
  // dependencies, so it is the first pass to observe the token — the
  // recorded phase is the aux analysis itself, not "pta".
  CancellationToken Cancelled;
  Cancelled.cancel();
  O2Config Cfg;
  Cfg.Cancel = &Cancelled;
  AnalysisManager AM(*M, Cfg);
  EXPECT_FALSE(AM.run({O2Phase::RacerD}));
  EXPECT_TRUE(AM.cancelled());
  EXPECT_EQ(AM.cancelledIn(), O2Phase::RacerD);
  EXPECT_STREQ(phaseName(AM.cancelledIn()), "racerd");

  // Cancel firing between two run() calls: the completed results stay,
  // the newly requested aux pass is the one that reports the stop.
  CancellationToken Token;
  O2Config Cfg2;
  Cfg2.Cancel = &Token;
  AnalysisManager AM2(*M, Cfg2);
  EXPECT_TRUE(AM2.run({O2Phase::Detect}));
  EXPECT_EQ(AM2.getRaces().numRaces(), 1u);
  Token.cancel();
  EXPECT_FALSE(AM2.run({O2Phase::Deadlock}));
  EXPECT_EQ(AM2.cancelledIn(), O2Phase::Deadlock);
  EXPECT_STREQ(phaseName(AM2.cancelledIn()), "deadlock");
  // The race report computed before the cancel survives untouched.
  EXPECT_TRUE(AM2.ran(O2Phase::Detect));
  EXPECT_EQ(AM2.getRaces().numRaces(), 1u);
}

TEST(AnalysisManagerTest, EscapeOverApproximatesOSA) {
  // Table 7 direction: the thread-escape baseline must never report
  // fewer shared accesses than OSA, and every object OSA finds shared
  // must be escaped. Checked over every built-in bug model.
  for (const BugModel &Model : bugModels()) {
    auto M = buildBugModel(Model);
    ASSERT_TRUE(M);
    AnalysisManager AM(*M);
    ASSERT_TRUE(AM.run({O2Phase::OSA, O2Phase::Escape})) << Model.Name;
    const SharingResult &Sharing = AM.getSharing();
    const EscapeResult &Escape = AM.getEscape();

    EXPECT_EQ(AM.invocations(O2Phase::PTA), 1u) << Model.Name;
    EXPECT_GE(Escape.numSharedAccessStmts(), Sharing.numSharedAccessStmts())
        << Model.Name;
    for (MemLoc Loc : Sharing.sharedLocations()) {
      if (Loc.isGlobal())
        continue; // statics are trivially escaped in the baseline
      EXPECT_TRUE(Escape.isEscaped(Loc.object()))
          << Model.Name << ": OSA-shared object " << Loc.object()
          << " not escaped";
    }
  }
}

TEST(AnalysisManagerTest, ParseAnalysisSetSpellings) {
  AnalysisSet Set;
  std::string Err;

  ASSERT_TRUE(parseAnalysisSet("race,deadlock,oversync", Set, Err)) << Err;
  EXPECT_TRUE(Set.contains(O2Phase::Detect));
  EXPECT_TRUE(Set.contains(O2Phase::Deadlock));
  EXPECT_TRUE(Set.contains(O2Phase::OverSync));
  EXPECT_FALSE(Set.contains(O2Phase::RacerD));
  // Canonical rendering is schedule order, independent of input order.
  EXPECT_EQ(Set.str(), "race,deadlock,oversync");
  AnalysisSet Shuffled;
  ASSERT_TRUE(parseAnalysisSet("oversync,race,deadlock", Shuffled, Err));
  EXPECT_EQ(Shuffled.str(), Set.str());
  EXPECT_TRUE(Shuffled == Set);

  ASSERT_TRUE(parseAnalysisSet("all", Set, Err));
  EXPECT_TRUE(Set == AnalysisSet::all());

  // Infrastructure passes can be named explicitly.
  ASSERT_TRUE(parseAnalysisSet("pta,shb", Set, Err));
  EXPECT_TRUE(Set.contains(O2Phase::PTA));
  EXPECT_TRUE(Set.contains(O2Phase::SHB));

  EXPECT_FALSE(parseAnalysisSet("race,bogus", Set, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parseAnalysisSet("", Set, Err));
}

TEST(AnalysisManagerTest, StatsAndJSONCoverAuxPasses) {
  auto M = parse(RacyProgram);
  AnalysisManager AM(*M);
  AM.run(AnalysisSet::all());

  StatisticRegistry Stats = AM.stats();
  EXPECT_GT(Stats.get("pta.pointer-nodes"), 0u);
  EXPECT_EQ(Stats.get("race.races"), 1u);
  EXPECT_GT(Stats.get("racerd.warnings"), 0u);
  EXPECT_GT(Stats.get("escape.objects"), 0u);

  std::string Buf;
  StringOutputStream OS(Buf);
  AM.printStatsJSON(OS);
  EXPECT_NE(Buf.find("\"analyses\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.pta-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.racerd-ms\":"), std::string::npos);
  EXPECT_NE(Buf.find("\"time.total-ms\":"), std::string::npos);
}

} // namespace
