//===- OriginPolicyTest.cpp - OPA-specific unit tests --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// These tests pin the paper's worked examples: Figure 2 (origins
// distinguish the two threads' operations), Figure 3 (context switch at
// origin allocations), the 1-call-site wrapper extension, and loop
// duplication of origins (Section 3.2).
//
//===----------------------------------------------------------------------===//

#include "PTATestUtils.h"

#include "o2/PTA/PointerAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace o2;
using namespace o2test;

namespace {

/// Figure 3 of the paper: TA and TB share T's constructor, which
/// allocates the object stored in field f. Without a context switch at
/// the origin allocation, both threads share one ⟨of⟩ object.
const char *Figure3 = R"(
  class Obj { }
  class T {
    field f: Obj;
    method init() {
      var o: Obj;
      o = new Obj;
      this.f = o;
    }
    method run() {
      var x: Obj;
      x = this.f;
    }
  }
  class TA extends T { }
  class TB extends T { }
  func main() {
    var a: TA;
    var b: TB;
    a = new TA;
    b = new TB;
    spawn a.run();
    spawn b.run();
  }
)";

TEST(OriginPolicyTest, Figure3ContextSwitchAtOriginAllocation) {
  auto M = parseProgram(Figure3);
  // OPA: the shared super constructor runs once per origin, so each
  // thread owns its own ⟨of⟩ object (⟨of,Ta⟩ and ⟨of,Tb⟩).
  auto OPA = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  EXPECT_EQ(countObjectsOfType(*OPA, "Obj"), 2u);
  // 0-ctx merges them into a single ⟨of,Tmain⟩: false aliasing.
  auto R0 = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  EXPECT_EQ(countObjectsOfType(*R0, "Obj"), 1u);
}

TEST(OriginPolicyTest, Figure3OriginsAndOwnership) {
  auto M = parseProgram(Figure3);
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // main + two thread origins.
  ASSERT_EQ(R->origins().size(), 3u);
  EXPECT_EQ(R->origins().info(0).Kind, OriginKind::Main);
  EXPECT_EQ(R->origins().info(1).Kind, OriginKind::Thread);
  EXPECT_EQ(R->origins().info(2).Kind, OriginKind::Thread);

  // Each Obj belongs to the origin whose constructor allocated it.
  std::set<unsigned> ObjOwners;
  for (const ObjInfo &O : R->objects())
    if (O.AllocatedType->getName() == "Obj")
      ObjOwners.insert(R->originOfObject(O.Id));
  EXPECT_EQ(ObjOwners.size(), 2u);
  EXPECT_FALSE(ObjOwners.count(OriginTable::MainOrigin));
}

/// Figure 2 of the paper, reduced to its aliasing core: two threads share
/// ⟨s⟩ but carry different operation objects; inside run() the virtual
/// call o.act(s) must dispatch to exactly one implementation per thread.
const char *Figure2 = R"(
  class Shared { }
  class Op {
    method act(s: Shared) { }
  }
  class Op1 extends Op {
    field y1: Shared;
    method act(s: Shared) { this.y1 = s; }
  }
  class Op2 extends Op {
    field y2: Shared;
    method act(s: Shared) { var t: Shared; t = this.y2; }
  }
  class T {
    field s: Shared;
    field op: Op;
    method init(s: Shared, op: Op) {
      this.s = s;
      this.op = op;
    }
    method run() {
      var s: Shared;
      var o: Op;
      s = this.s;
      o = this.op;
      o.act(s);
    }
  }
  func main() {
    var sh: Shared;
    var o1: Op1;
    var o2: Op2;
    var t1: T;
    var t2: T;
    sh = new Shared;
    o1 = new Op1;
    o2 = new Op2;
    t1 = new T(sh, o1);
    t2 = new T(sh, o2);
    spawn t1.run();
    spawn t2.run();
  }
)";

/// Returns, per reached context of T::run, the number of dispatch targets
/// of the o.act(s) call.
std::vector<size_t> actTargetCounts(const PTAResult &R, const Module &M) {
  const Function *Run = M.findClass("T")->findMethod("run");
  const CallStmt *Act = findStmt<CallStmt>(Run);
  std::vector<size_t> Counts;
  for (const auto &[F, C] : R.instances())
    if (F == Run)
      Counts.push_back(R.callTargets(Act, C).size());
  return Counts;
}

TEST(OriginPolicyTest, Figure2OriginAttributesSeparateOperations) {
  auto M = parseProgram(Figure2);
  auto OPA = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // Two origins, each reaching run() in its own context with exactly one
  // act() target (Op1::act in T1, Op2::act in T2).
  std::vector<size_t> Counts = actTargetCounts(*OPA, *M);
  ASSERT_EQ(Counts.size(), 2u);
  EXPECT_EQ(Counts[0], 1u);
  EXPECT_EQ(Counts[1], 1u);

  // 0-ctx merges the two threads: one run() instance with both targets.
  auto R0 = runPointerAnalysis(*M, optsFor(ContextKind::Insensitive));
  std::vector<size_t> Counts0 = actTargetCounts(*R0, *M);
  ASSERT_EQ(Counts0.size(), 1u);
  EXPECT_EQ(Counts0[0], 2u);
}

TEST(OriginPolicyTest, Figure2SharedAttributeStaysShared) {
  auto M = parseProgram(Figure2);
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // Both origins see the same ⟨sh⟩ object through this.s.
  const Function *Run = M->findClass("T")->findMethod("run");
  const Variable *S = Run->findVariable("s");
  SparseBitVector Union;
  unsigned NumInstances = 0;
  for (const auto &[F, C] : R->instances()) {
    if (F != Run)
      continue;
    ++NumInstances;
    const SparseBitVector *P = R->pts(S, C);
    ASSERT_TRUE(P);
    EXPECT_EQ(P->count(), 1u);
    Union.unionWith(*P);
  }
  EXPECT_EQ(NumInstances, 2u);
  EXPECT_EQ(Union.count(), 1u); // same shared object in both origins
}

TEST(OriginPolicyTest, Figure2OriginAttributes) {
  // Figure 2(b): T1 carries {s, op1}, T2 carries {s, op2}.
  auto M = parseProgram(Figure2);
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  ASSERT_EQ(R->origins().size(), 3u);
  std::vector<unsigned> A1 = R->originAttributes(1);
  std::vector<unsigned> A2 = R->originAttributes(2);
  ASSERT_EQ(A1.size(), 2u);
  ASSERT_EQ(A2.size(), 2u);
  // Exactly one attribute (the Shared object) is common; the op differs.
  std::vector<unsigned> Common;
  std::set_intersection(A1.begin(), A1.end(), A2.begin(), A2.end(),
                        std::back_inserter(Common));
  ASSERT_EQ(Common.size(), 1u);
  EXPECT_EQ(R->object(Common[0]).AllocatedType->getName(), "Shared");
  // Main has no attributes.
  EXPECT_TRUE(R->originAttributes(OriginTable::MainOrigin).empty());
}

TEST(OriginPolicyTest, WrapperFunctionsGetOneCallSite) {
  auto M = parseProgram(R"(
    class Data { }
    class W {
      field d: Data;
      method init(d: Data) { this.d = d; }
      method run() { var x: Data; x = this.d; }
    }
    func make(d: Data): W {
      var w: W;
      w = new W(d);
      return w;
    }
    func main() {
      var d1: Data;
      var d2: Data;
      var w1: W;
      var w2: W;
      d1 = new Data;
      d2 = new Data;
      w1 = make(d1);
      w2 = make(d2);
      spawn w1.run();
      spawn w2.run();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // The single allocation site inside make() yields two origins, one per
  // call site of the wrapper (Section 3.2, k=1 call-site extension).
  EXPECT_EQ(R->origins().size(), 3u);
  // Each origin's run() sees exactly its own Data attribute.
  const Function *Run = M->findClass("W")->findMethod("run");
  const Variable *X = Run->findVariable("x");
  SparseBitVector Union;
  unsigned NumInstances = 0;
  for (const auto &[F, C] : R->instances()) {
    if (F != Run)
      continue;
    ++NumInstances;
    const SparseBitVector *P = R->pts(X, C);
    ASSERT_TRUE(P);
    EXPECT_EQ(P->count(), 1u);
    Union.unionWith(*P);
  }
  EXPECT_EQ(NumInstances, 2u);
  EXPECT_EQ(Union.count(), 2u);
}

TEST(OriginPolicyTest, LoopAllocationDuplicatesOrigin) {
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
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // Two origins with identical attributes but different IDs (plus main).
  ASSERT_EQ(R->origins().size(), 3u);
  EXPECT_EQ(R->origins().info(1).AllocSite, R->origins().info(2).AllocSite);
  EXPECT_NE(R->origins().info(1).DupIndex, R->origins().info(2).DupIndex);
  // The spawn dispatches to both duplicates.
  const SpawnStmt *Spawn = findStmt<SpawnStmt>(M->getMain());
  EXPECT_EQ(R->callTargets(Spawn, 0).size(), 2u);
}

TEST(OriginPolicyTest, NestedOriginsAndKOrigin) {
  auto M = parseProgram(R"(
    class Obj { }
    class Inner {
      field f: Obj;
      method init() { var o: Obj; o = new Obj; this.f = o; }
      method run() { }
    }
    class Outer {
      method run() {
        var i: Inner;
        i = new Inner;
        spawn i.run();
      }
    }
    func main() {
      var a: Outer;
      var b: Outer;
      a = new Outer;
      b = new Outer;
      spawn a.run();
      spawn b.run();
    }
  )");
  auto R1 = runPointerAnalysis(*M, optsFor(ContextKind::Origin, 1));
  // main + 2 outer + 2 inner (the inner allocation is reached under two
  // different parent origins).
  EXPECT_EQ(R1->origins().size(), 5u);

  auto R2 = runPointerAnalysis(*M, optsFor(ContextKind::Origin, 2));
  EXPECT_EQ(R2->origins().size(), 5u);
  // With k=2, inner-origin contexts retain the parent chain.
  unsigned SawDepth2 = 0;
  for (const OriginInfo &O : R2->origins().origins()) {
    if (O.Kind == OriginKind::Main)
      continue;
    if (R2->contexts().get(R2->originCtx(O.Id)).size() == 2)
      ++SawDepth2;
  }
  EXPECT_EQ(SawDepth2, 2u); // the two nested (inner) origins
}

TEST(OriginPolicyTest, EventEntriesClassifiedAsEvents) {
  auto M = parseProgram(R"(
    class Handler {
      method onReceive() { }
    }
    func main() {
      var h: Handler;
      h = new Handler;
      spawn h.onReceive();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  ASSERT_EQ(R->origins().size(), 2u);
  EXPECT_EQ(R->origins().info(1).Kind, OriginKind::Event);
}

TEST(OriginPolicyTest, CustomSpawnEntriesBecomeOrigins) {
  auto M = parseProgram(R"(
    class Worker {
      method customEntry() { }
    }
    func main() {
      var w: Worker;
      w = new Worker;
      spawn w.customEntry();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // "customEntry" is not in Table 1 but is used by a spawn, so the class
  // is treated as an origin class anyway.
  EXPECT_EQ(R->origins().size(), 2u);
}

TEST(OriginPolicyTest, OriginLocalObjectsStayLocal) {
  auto M = parseProgram(R"(
    class Obj { }
    class T {
      method run() {
        var local: Obj;
        local = new Obj;
      }
    }
    func main() {
      var t1: T;
      var t2: T;
      t1 = new T;
      t2 = new T;
      spawn t1.run();
      spawn t2.run();
    }
  )");
  auto R = runPointerAnalysis(*M, optsFor(ContextKind::Origin));
  // The local allocation is cloned per origin.
  EXPECT_EQ(countObjectsOfType(*R, "Obj"), 2u);
  std::set<unsigned> Owners;
  for (const ObjInfo &O : R->objects())
    if (O.AllocatedType->getName() == "Obj")
      Owners.insert(R->originOfObject(O.Id));
  EXPECT_EQ(Owners.size(), 2u);
}

} // namespace
