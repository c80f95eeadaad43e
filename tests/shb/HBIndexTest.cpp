//===- HBIndexTest.cpp - precomputed HB index oracle tests ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// HBIndex must answer exactly what a breadth-first search over individual
// (thread, position) nodes (the straw man in tests/race/RaceOracle.h)
// answers, for every pair of access events of every corpus module — it is
// the O(1) lookup the race engine's class math and the deadlock
// detector's ordering check are built on, so any disagreement silently
// changes verdicts.
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/HBIndex.h"

#include "RaceOracle.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
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

SHBGraph buildGraph(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(M, Opts);
  return buildSHBGraph(*PTA);
}

/// All (thread, position) nodes with an access event, subsampled to keep
/// the all-pairs comparison under ~500x500 per module (the naive BFS side
/// is quadratic in events otherwise). The stride keeps events from every
/// thread, including first/last positions where edges fire.
std::vector<std::pair<unsigned, uint32_t>> sampleEvents(const SHBGraph &G) {
  std::vector<std::pair<unsigned, uint32_t>> Nodes;
  for (const ThreadInfo &T : G.threads())
    for (const AccessEvent &E : T.Accesses)
      Nodes.emplace_back(E.Thread, E.Pos);
  size_t Stride = Nodes.size() / 500 + 1;
  if (Stride > 1) {
    std::vector<std::pair<unsigned, uint32_t>> Sampled;
    for (size_t I = 0; I < Nodes.size(); I += Stride)
      Sampled.push_back(Nodes[I]);
    Nodes = std::move(Sampled);
  }
  return Nodes;
}

class HBIndexOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(HBIndexOracle, AgreesWithMemoAndNaiveOnAllEventPairs) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);
  HBIndex Index(G);

  auto Nodes = sampleEvents(G);
  ASSERT_FALSE(Nodes.empty()) << GetParam();
  size_t Disagreements = 0;
  for (const auto &[T1, P1] : Nodes) {
    for (const auto &[T2, P2] : Nodes) {
      bool Idx = Index.happensBefore(T1, P1, T2, P2);
      bool Naive = test::happensBeforeBFS(G, T1, P1, T2, P2);
      if (Idx != Naive) {
        ++Disagreements;
        EXPECT_EQ(Idx, Naive) << GetParam() << " (" << T1 << "," << P1
                              << ") -> (" << T2 << "," << P2 << ")";
        if (Disagreements > 5)
          FAIL() << "too many disagreements, aborting " << GetParam();
      }
    }
  }
}

TEST_P(HBIndexOracle, SegmentStructureMatchesSpawnEdges) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);
  HBIndex Index(G);

  // One row per (thread, spawn-edge bucket): segments = sum of
  // (spawn edges + 1) over threads.
  size_t Expected = 0;
  for (const ThreadInfo &T : G.threads())
    Expected += T.SpawnEdges.size() + 1;
  EXPECT_EQ(Index.numSegments(), Expected) << GetParam();
  EXPECT_EQ(Index.numThreads(), G.numThreads()) << GetParam();

  // segmentOf is the spawn-edge bucket: monotone in position, bounded by
  // the thread's edge count, and bumps exactly at spawn positions.
  for (const ThreadInfo &T : G.threads()) {
    unsigned Prev = 0;
    for (const AccessEvent &E : T.Accesses) {
      unsigned Seg = Index.segmentOf(T.Id, E.Pos);
      EXPECT_LE(Seg, T.SpawnEdges.size()) << GetParam();
      EXPECT_GE(Seg, Prev) << GetParam();
      Prev = Seg;
    }
  }
}

std::vector<std::string> indexCases() {
  std::vector<std::string> Cases = {
      "oir_racy_counter",   "oir_producer_consumer", "oir_event_thread_mix",
      "oir_fork_join",      "oir_locked_account",    "oir_lockfree_flag",
      "oir_nested_handlers"};
  for (const WorkloadProfile &P : benchmarkProfiles()) {
    if (P.PaddingFunctions > 100 || P.AmplifierFanOut > 12)
      continue;
    Cases.push_back(P.Name);
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, HBIndexOracle,
                         ::testing::ValuesIn(indexCases()),
                         [](const auto &Info) { return Info.param; });

TEST(HBIndexTest, ForkJoinOrdering) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method run() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var t: T;
      var x: int;
      s = new Obj;
      t = new T(s);
      x = s.v;
      spawn t.run();
      join t;
      s.v = x;
    }
  )");
  SHBGraph G = buildGraph(*M);
  HBIndex Index(G);
  ASSERT_EQ(G.numThreads(), 2u);
  const ThreadInfo &Main = G.thread(0);
  const ThreadInfo &Child = G.thread(1);
  ASSERT_FALSE(Main.Accesses.empty());
  ASSERT_FALSE(Child.Accesses.empty());
  uint32_t PreSpawn = Main.Accesses.front().Pos;
  uint32_t PostJoin = Main.Accesses.back().Pos;
  uint32_t InChild = Child.Accesses.front().Pos;
  // Pre-spawn main code precedes the child; the child precedes the
  // post-join write; nothing runs backwards.
  EXPECT_TRUE(Index.happensBefore(0, PreSpawn, 1, InChild));
  EXPECT_TRUE(Index.happensBefore(1, InChild, 0, PostJoin));
  EXPECT_FALSE(Index.happensBefore(0, PostJoin, 1, InChild));
  EXPECT_FALSE(Index.happensBefore(1, InChild, 0, PreSpawn));
}

} // namespace
