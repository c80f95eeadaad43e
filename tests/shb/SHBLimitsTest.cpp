//===- SHBLimitsTest.cpp - SHB caps and edge cases -------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "RaceOracle.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/SHB/HBIndex.h"
#include "o2/SHB/SHBGraph.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

std::unique_ptr<PTAResult> runOPA(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  return runPointerAnalysis(M, Opts);
}

TEST(SHBLimitsTest, MaxThreadsCapRespected) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t1: T;
      var t2: T;
      var t3: T;
      t1 = new T;
      t2 = new T;
      t3 = new T;
      spawn t1.run();
      spawn t2.run();
      spawn t3.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBOptions Opts;
  Opts.MaxThreads = 2;
  SHBGraph G = buildSHBGraph(*PTA, Opts);
  EXPECT_EQ(G.numThreads(), 2u); // main + first spawn only
}

TEST(SHBLimitsTest, EventCapTruncatesTrace) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      method run() {
        var o: Obj;
        var x: int;
        o = new Obj;
        o.v = x;
        x = o.v;
        o.v = x;
        x = o.v;
      }
    }
    func main() {
      var t: T;
      t = new T;
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBOptions Opts;
  Opts.MaxEventsPerThread = 2;
  SHBGraph G = buildSHBGraph(*PTA, Opts);
  ASSERT_EQ(G.numThreads(), 2u);
  EXPECT_TRUE(G.thread(1).Truncated);
  EXPECT_LE(G.thread(1).Accesses.size(), 2u);

  SHBGraph Full = buildSHBGraph(*PTA);
  EXPECT_FALSE(Full.thread(1).Truncated);
  EXPECT_EQ(Full.thread(1).Accesses.size(), 4u);
}

TEST(SHBLimitsTest, RecursiveSpawnTerminates) {
  // A thread class that respawns itself: thread discovery must reach a
  // fixpoint because thread identity is keyed by spawn-site instance.
  auto M = parseProgram(R"(
    class T {
      method run() {
        var t: T;
        t = new T;
        spawn t.run();
      }
    }
    func main() {
      var t: T;
      t = new T;
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  // main's spawn + the (single, self-keyed) nested spawn instance.
  EXPECT_GE(G.numThreads(), 2u);
  EXPECT_LE(G.numThreads(), 8u);
}

TEST(SHBLimitsTest, MutuallyRecursiveSpawnsTerminate) {
  auto M = parseProgram(R"(
    class A {
      method run() {
        var b: B;
        b = new B;
        spawn b.run();
      }
    }
    class B {
      method run() {
        var a: A;
        a = new A;
        spawn a.run();
      }
    }
    func main() {
      var a: A;
      a = new A;
      spawn a.run();
    }
  )");
  auto PTA = runOPA(*M);
  // Bounded by the per-site origin cap.
  EXPECT_LE(PTA->origins().size(), 20u);
  SHBGraph G = buildSHBGraph(*PTA);
  EXPECT_GE(G.numThreads(), 2u);
  EXPECT_LE(G.numThreads(), 40u);
}

TEST(SHBLimitsTest, RecursiveCallsTerminate) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    func rec(o: Obj) {
      var x: int;
      o.v = x;
      rec(o);
    }
    func main() {
      var o: Obj;
      o = new Obj;
      rec(o);
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 1u);
  // rec is inlined once; its access appears once.
  EXPECT_EQ(G.thread(0).Accesses.size(), 1u);
}

TEST(SHBLimitsTest, HBCacheConsistentAcrossQueryOrder) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t1: T;
      var t2: T;
      t1 = new T;
      t2 = new T;
      spawn t1.run();
      join t1;
      spawn t2.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph A = buildSHBGraph(*PTA);
  SHBGraph B = buildSHBGraph(*PTA);
  HBIndex IndexA(A);
  // Query A's index in one order and a search over B in the reverse
  // order: the order of queries must not change any verdict.
  std::vector<std::tuple<unsigned, uint32_t, unsigned, uint32_t>> Queries;
  for (unsigned T1 = 0; T1 < A.numThreads(); ++T1)
    for (unsigned T2 = 0; T2 < A.numThreads(); ++T2)
      for (uint32_t P1 = 0; P1 < 4; ++P1)
        for (uint32_t P2 = 0; P2 < 4; ++P2)
          Queries.emplace_back(T1, P1, T2, P2);
  std::vector<bool> ForwardResults;
  for (const auto &[T1, P1, T2, P2] : Queries)
    ForwardResults.push_back(IndexA.happensBefore(T1, P1, T2, P2));
  for (size_t I = Queries.size(); I-- > 0;) {
    const auto &[T1, P1, T2, P2] = Queries[I];
    EXPECT_EQ(test::happensBeforeBFS(B, T1, P1, T2, P2), ForwardResults[I]);
  }
}

TEST(SHBLimitsTest, ThreadOneJoinedBeforeThreadTwo) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t1: T;
      var t2: T;
      t1 = new T;
      t2 = new T;
      spawn t1.run();
      join t1;
      spawn t2.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 3u);
  HBIndex HB(G);
  // Everything in t1 happens before everything in t2 (join then spawn).
  EXPECT_TRUE(HB.happensBefore(1, 0, 2, 0));
  EXPECT_FALSE(HB.happensBefore(2, 0, 1, 0));
}

} // namespace
