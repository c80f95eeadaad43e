//===- SHBGraphTest.cpp - SHB graph unit tests ---------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/SHBGraph.h"

#include "RaceOracle.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/SHB/HBIndex.h"

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

const char *ForkJoinProgram = R"(
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
)";

TEST(SHBGraphTest, ThreadsDiscovered) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  ASSERT_EQ(G.numThreads(), 2u);
  EXPECT_EQ(G.thread(0).Kind, OriginKind::Main);
  EXPECT_EQ(G.thread(0).Entry, M->getMain());
  EXPECT_EQ(G.thread(1).Kind, OriginKind::Thread);
  EXPECT_EQ(G.thread(1).Entry, M->findClass("T")->findMethod("run"));
  EXPECT_NE(G.thread(1).Spawn, nullptr);
}

TEST(SHBGraphTest, AccessEventsRecorded) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  // Main: read s.v (+ field stores in init inlined at the alloc),
  // write s.v after the join. Thread: this.s read + o.v write.
  const ThreadInfo &Main = G.thread(0);
  const ThreadInfo &T = G.thread(1);
  unsigned MainWrites = 0, MainReads = 0;
  for (const AccessEvent &E : Main.Accesses)
    (E.IsWrite ? MainWrites : MainReads)++;
  EXPECT_EQ(MainWrites, 2u); // this.s = s (ctor, runs in main) + s.v = x
  EXPECT_EQ(MainReads, 1u);  // x = s.v
  unsigned TWrites = 0, TReads = 0;
  for (const AccessEvent &E : T.Accesses)
    (E.IsWrite ? TWrites : TReads)++;
  EXPECT_EQ(TWrites, 1u); // o.v = x
  EXPECT_EQ(TReads, 1u);  // o = this.s
  // Positions are strictly increasing within a thread.
  for (size_t I = 1; I < Main.Accesses.size(); ++I)
    EXPECT_LT(Main.Accesses[I - 1].Pos, Main.Accesses[I].Pos);
}

TEST(SHBGraphTest, ForkJoinHappensBefore) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &Main = G.thread(0);
  ASSERT_EQ(Main.SpawnEdges.size(), 1u);
  uint32_t SpawnPos = Main.SpawnEdges[0].first;
  ASSERT_EQ(G.thread(1).Joins.size(), 1u);
  uint32_t JoinPos = G.thread(1).Joins[0].second;
  HBIndex HB(G);

  // Before the spawn HB into the child...
  EXPECT_TRUE(HB.happensBefore(0, SpawnPos, 1, 0));
  EXPECT_TRUE(HB.happensBefore(0, 0, 1, 5));
  // ... but not after it.
  EXPECT_FALSE(HB.happensBefore(0, SpawnPos + 1, 1, 0));
  // The child HB into main after the join...
  EXPECT_TRUE(HB.happensBefore(1, 0, 0, JoinPos));
  EXPECT_TRUE(HB.happensBefore(1, 3, 0, JoinPos + 2));
  // ... but not before it.
  EXPECT_FALSE(HB.happensBefore(1, 0, 0, SpawnPos));
  // Intra-thread order is integer comparison.
  EXPECT_TRUE(HB.happensBefore(0, 1, 0, 2));
  EXPECT_FALSE(HB.happensBefore(0, 2, 0, 2));
  EXPECT_FALSE(HB.happensBefore(0, 3, 0, 2));
}

TEST(SHBGraphTest, NaiveHBMatchesOptimized) {
  auto M = parseProgram(ForkJoinProgram);
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  HBIndex HB(G);
  for (unsigned T1 = 0; T1 < G.numThreads(); ++T1)
    for (unsigned T2 = 0; T2 < G.numThreads(); ++T2)
      for (uint32_t P1 = 0; P1 < G.thread(T1).NumEvents; ++P1)
        for (uint32_t P2 = 0; P2 < G.thread(T2).NumEvents; ++P2)
          EXPECT_EQ(HB.happensBefore(T1, P1, T2, P2),
                    test::happensBeforeBFS(G, T1, P1, T2, P2))
              << "mismatch at (" << T1 << "," << P1 << ") vs (" << T2 << ","
              << P2 << ")";
}

TEST(SHBGraphTest, LocksetsTracked) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field l: Obj;
      method init(s: Obj, l: Obj) { this.s = s; this.l = l; }
      method run() {
        var o: Obj;
        var lk: Obj;
        var x: int;
        o = this.s;
        lk = this.l;
        acquire lk;
        o.v = x;
        release lk;
        o.v = x;
      }
    }
    func main() {
      var s: Obj;
      var l: Obj;
      var t: T;
      s = new Obj;
      l = new Obj;
      t = new T(s, l);
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &T = G.thread(1);
  // Find the two o.v writes: first under lock, second not.
  std::vector<const AccessEvent *> Writes;
  for (const AccessEvent &E : T.Accesses)
    if (E.IsWrite)
      Writes.push_back(&E);
  ASSERT_EQ(Writes.size(), 2u);
  EXPECT_NE(Writes[0]->Lockset, InternTable::Empty);
  EXPECT_NE(Writes[0]->LockRegion, 0u);
  EXPECT_EQ(Writes[1]->Lockset, InternTable::Empty);
  EXPECT_EQ(Writes[1]->LockRegion, 0u);
  EXPECT_EQ(G.locksetElems(Writes[0]->Lockset).size(), 1u);
}

TEST(SHBGraphTest, LocksetIntersection) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field l1: Obj;
      field l2: Obj;
      method init(s: Obj, l1: Obj, l2: Obj) {
        this.s = s;
        this.l1 = l1;
        this.l2 = l2;
      }
      method run() {
        var o: Obj;
        var a: Obj;
        var b: Obj;
        var x: int;
        o = this.s;
        a = this.l1;
        b = this.l2;
        acquire a;
        o.v = x;
        release a;
        acquire b;
        o.v = x;
        release b;
        acquire a;
        acquire b;
        o.v = x;
        release b;
        release a;
      }
    }
    func main() {
      var s: Obj;
      var l1: Obj;
      var l2: Obj;
      var t: T;
      s = new Obj;
      l1 = new Obj;
      l2 = new Obj;
      t = new T(s, l1, l2);
      spawn t.run();
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  std::vector<const AccessEvent *> Writes;
  for (const AccessEvent &E : G.thread(1).Accesses)
    if (E.IsWrite && E.S->getFunction()->getName() == "run")
      Writes.push_back(&E);
  ASSERT_EQ(Writes.size(), 3u);
  LocksetId L1 = Writes[0]->Lockset;
  LocksetId L2 = Writes[1]->Lockset;
  LocksetId L12 = Writes[2]->Lockset;
  EXPECT_NE(L1, L2);
  EXPECT_FALSE(G.locksetsIntersect(L1, L2));
  EXPECT_TRUE(G.locksetsIntersect(L1, L12));
  EXPECT_TRUE(G.locksetsIntersect(L2, L12));
  EXPECT_TRUE(G.locksetsIntersect(L12, L12));
  EXPECT_FALSE(G.locksetsIntersect(L1, InternTable::Empty));
  // Cached and uncached agree.
  test::LocksetCache Cache(G);
  EXPECT_EQ(Cache.intersect(L1, L2), G.locksetsIntersect(L1, L2));
  EXPECT_EQ(Cache.intersect(L1, L12), G.locksetsIntersect(L1, L12));
}

TEST(SHBGraphTest, EventHandlersSerializedByImplicitLock) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class H {
      field s: Obj;
      method init(s: Obj) { this.s = s; }
      method handleEvent() { var o: Obj; var x: int; o = this.s; o.v = x; }
    }
    func main() {
      var s: Obj;
      var h1: H;
      var h2: H;
      s = new Obj;
      h1 = new H(s);
      h2 = new H(s);
      spawn h1.handleEvent();
      spawn h2.handleEvent();
    }
  )");
  auto PTA = runOPA(*M);

  SHBGraph Serialized = buildSHBGraph(*PTA);
  ASSERT_EQ(Serialized.numThreads(), 3u);
  for (unsigned T = 1; T < 3; ++T) {
    EXPECT_EQ(Serialized.thread(T).Kind, OriginKind::Event);
    for (const AccessEvent &E : Serialized.thread(T).Accesses) {
      ArrayRef<uint32_t> Elems = Serialized.locksetElems(E.Lockset);
      bool HasUILock = false;
      for (uint32_t El : Elems)
        HasUILock |= El == SHBGraph::UILockElem;
      EXPECT_TRUE(HasUILock);
    }
  }
  // Handler locksets intersect pairwise through the implicit lock.
  EXPECT_TRUE(Serialized.locksetsIntersect(
      Serialized.thread(1).Accesses[0].Lockset,
      Serialized.thread(2).Accesses[0].Lockset));

  SHBOptions NoSerial;
  NoSerial.SerializeEventHandlers = false;
  SHBGraph Parallel = buildSHBGraph(*PTA, NoSerial);
  EXPECT_EQ(Parallel.thread(1).Accesses[0].Lockset, InternTable::Empty);
}

TEST(SHBGraphTest, LoopSpawnDuplicatesThread) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t: T;
      t = new T;
      loop { spawn t.run(); }
    }
  )");
  // Use 0-ctx so origin-level duplication does not apply.
  PTAOptions Opts;
  Opts.Kind = ContextKind::Insensitive;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph G = buildSHBGraph(*PTA);
  EXPECT_EQ(G.numThreads(), 3u); // main + two instances

  SHBOptions NoDup;
  NoDup.DuplicateLoopSpawns = false;
  SHBGraph G2 = buildSHBGraph(*PTA, NoDup);
  EXPECT_EQ(G2.numThreads(), 2u);
}

TEST(SHBGraphTest, OriginDuplicationNotDoubled) {
  auto M = parseProgram(R"(
    class T { method run() { } }
    func main() {
      var t: T;
      loop {
        t = new T;
        spawn t.run();
      }
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  // OPA already duplicated the origin (2 objects); the spawn must not
  // duplicate again: main + 2 threads, not main + 4.
  EXPECT_EQ(G.numThreads(), 3u);
}

TEST(SHBGraphTest, RegionsWithSpawnsAreFlagged) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T { method run() { } }
    global g: Obj;
    func main() {
      var o: Obj;
      var t: T;
      var x: int;
      o = new Obj;
      t = new T;
      acquire o;
      o.v = x;
      spawn t.run();
      o.v = x;
      release o;
    }
  )");
  auto PTA = runOPA(*M);
  SHBGraph G = buildSHBGraph(*PTA);
  const ThreadInfo &Main = G.thread(0);
  unsigned Flagged = 0;
  for (const AccessEvent &E : Main.Accesses)
    if (E.RegionHasSync)
      ++Flagged;
  EXPECT_EQ(Flagged, 2u); // both o.v writes share the spawning region
}

TEST(SHBGraphTest, MainlessModuleYieldsEmptyGraphNotAbort) {
  // Skip the verifier on purpose: a main-less module must degrade to a
  // flagged empty graph (no threads — nothing executes, no races), not
  // an assert/UB in release builds.
  std::string Err;
  auto M = parseModule("func helper() { }", Err);
  ASSERT_TRUE(M) << Err;
  ASSERT_EQ(M->getMain(), nullptr);
  auto PTA = runOPA(*M);
  EXPECT_TRUE(PTA->entryMissing());
  SHBGraph G = buildSHBGraph(*PTA);
  EXPECT_TRUE(G.entryMissing());
  EXPECT_FALSE(G.cancelled());
  EXPECT_EQ(G.numThreads(), 0u);
}

} // namespace
