//===- SolverEquivalenceTest.cpp - Worklist/Wave engine equivalence ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The two constraint engines (PTAOptions::Solver) must produce
// bit-identical results: same points-to sets, same object/instance/
// context/origin numbering, same call-target vectors, and — downstream —
// byte-identical race reports. This runs every bundled examples/oir
// program and the generated benchmark workloads under both engines for
// all four context abstractions and compares everything observable.
//
//===----------------------------------------------------------------------===//

#include "PTATestUtils.h"

#include "o2/Race/RaceDetector.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> loadOIR(const std::string &FileName) {
  std::ifstream In(std::string(O2_OIR_DIR) + "/" + FileName);
  EXPECT_TRUE(In.good()) << "cannot open " << FileName;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return o2test::parseProgram(Buf.str());
}

void expectSamePts(const SparseBitVector *A, const SparseBitVector *B,
                   const std::string &Tag) {
  ASSERT_EQ(A != nullptr, B != nullptr) << Tag;
  if (A) {
    EXPECT_TRUE(*A == *B) << Tag;
  }
}

/// Compares everything a PTAResult exposes. Numbering (object IDs, node
/// IDs, context handles, origin IDs) must match exactly, not just up to
/// isomorphism — downstream phases (SHB thread numbering, reports) depend
/// on it.
void expectIdenticalResults(const Module &M, const PTAResult &A,
                            const PTAResult &B, const std::string &Tag) {
  EXPECT_EQ(A.hitBudget(), B.hitBudget()) << Tag;

  ASSERT_EQ(A.instances().size(), B.instances().size()) << Tag;
  for (size_t I = 0; I != A.instances().size(); ++I) {
    EXPECT_EQ(A.instances()[I].first, B.instances()[I].first) << Tag;
    EXPECT_EQ(A.instances()[I].second, B.instances()[I].second) << Tag;
  }

  ASSERT_EQ(A.objects().size(), B.objects().size()) << Tag;
  for (size_t I = 0; I != A.objects().size(); ++I) {
    const ObjInfo &X = A.objects()[I];
    const ObjInfo &Y = B.objects()[I];
    EXPECT_EQ(X.Site, Y.Site) << Tag;
    EXPECT_EQ(X.HeapCtx, Y.HeapCtx) << Tag;
    EXPECT_EQ(X.AllocatedType, Y.AllocatedType) << Tag;
    EXPECT_EQ(X.Alloc, Y.Alloc) << Tag;
    EXPECT_EQ(X.DupIndex, Y.DupIndex) << Tag;
    EXPECT_EQ(A.originOfObject(X.Id), B.originOfObject(Y.Id)) << Tag;
  }

  ASSERT_EQ(A.origins().size(), B.origins().size()) << Tag;
  for (unsigned O = 0; O != A.origins().size(); ++O) {
    const OriginInfo &X = A.origins().info(O);
    const OriginInfo &Y = B.origins().info(O);
    EXPECT_EQ(X.Kind, Y.Kind) << Tag;
    EXPECT_EQ(X.Class, Y.Class) << Tag;
    EXPECT_EQ(X.AllocSite, Y.AllocSite) << Tag;
    EXPECT_EQ(X.ParentCtx, Y.ParentCtx) << Tag;
    EXPECT_EQ(X.DupIndex, Y.DupIndex) << Tag;
    EXPECT_EQ(A.originAttributes(O), B.originAttributes(O)) << Tag;
    if (A.options().Kind == ContextKind::Origin) {
      EXPECT_EQ(A.originCtx(O), B.originCtx(O)) << Tag;
    }
  }

  // Points-to sets of every reached variable instance, global, and field.
  for (const auto &[F, C] : A.instances())
    for (const auto &V : F->variables())
      expectSamePts(A.pts(V.get(), C), B.pts(V.get(), C),
                    Tag + " var " + V->getName());
  for (const auto &G : M.globals())
    expectSamePts(A.ptsGlobal(G.get()), B.ptsGlobal(G.get()),
                  Tag + " global " + G->getName());

  std::map<std::pair<unsigned, FieldKey>, SparseBitVector> FieldsA, FieldsB;
  A.forEachFieldPts(
      [&](unsigned Obj, FieldKey FK, const SparseBitVector &Pts) {
        FieldsA[{Obj, FK}] = Pts;
      });
  B.forEachFieldPts(
      [&](unsigned Obj, FieldKey FK, const SparseBitVector &Pts) {
        FieldsB[{Obj, FK}] = Pts;
      });
  ASSERT_EQ(FieldsA.size(), FieldsB.size()) << Tag;
  for (const auto &[Key, Pts] : FieldsA) {
    auto It = FieldsB.find(Key);
    ASSERT_NE(It, FieldsB.end()) << Tag;
    EXPECT_TRUE(Pts == It->second) << Tag;
  }

  // Call-target vectors, including their order (SHB thread numbering
  // walks them in stored order).
  for (const auto &[F, C] : A.instances())
    for (const auto &S : F->body()) {
      const auto &TA = A.callTargets(S.get(), C);
      const auto &TB = B.callTargets(S.get(), C);
      ASSERT_EQ(TA.size(), TB.size()) << Tag;
      for (size_t I = 0; I != TA.size(); ++I)
        EXPECT_TRUE(TA[I] == TB[I]) << Tag;
    }

  // Engine-independent statistics (the wave counters are engine-local).
  for (const char *Key :
       {"pta.pointer-nodes", "pta.objects", "pta.copy-edges",
        "pta.instances", "pta.contexts", "pta.origins"})
    EXPECT_EQ(A.stats().get(Key), B.stats().get(Key)) << Tag << " " << Key;
}

std::string renderRaces(const PTAResult &PTA) {
  RaceReport R = detectRaces(PTA);
  std::string Buf;
  StringOutputStream OS(Buf);
  R.print(OS, PTA);
  R.printJSON(OS, PTA);
  return Buf;
}

class SolverEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverEquivalence, IdenticalFactsAndRaceReports) {
  const std::string &Name = GetParam();
  std::unique_ptr<Module> M;
  if (Name.rfind("oir_", 0) == 0) {
    M = loadOIR(Name.substr(4) + ".oir");
  } else {
    const WorkloadProfile *P = findProfile(Name);
    ASSERT_NE(P, nullptr) << Name;
    if (P->PaddingFunctions > 100 || P->AmplifierFanOut > 12)
      GTEST_SKIP() << "large profile; covered by the smaller ones";
    M = generateWorkload(*P);
  }
  ASSERT_TRUE(M);
  for (ContextKind Kind :
       {ContextKind::Insensitive, ContextKind::KCallsite,
        ContextKind::KObject, ContextKind::Origin}) {
    PTAOptions Opts = o2test::optsFor(Kind);
    Opts.Solver = SolverKind::Worklist;
    auto Baseline = runPointerAnalysis(*M, Opts);
    Opts.Solver = SolverKind::Wave;
    auto Wave = runPointerAnalysis(*M, Opts);
    std::string Tag = GetParam() + "/" + Opts.name();
    expectIdenticalResults(*M, *Baseline, *Wave, Tag);
    EXPECT_EQ(renderRaces(*Baseline), renderRaces(*Wave)) << Tag;
  }
}

std::vector<std::string> equivalenceCases() {
  std::vector<std::string> Cases = {"oir_racy_counter",
                                    "oir_producer_consumer",
                                    "oir_event_thread_mix"};
  for (const WorkloadProfile &P : benchmarkProfiles())
    Cases.push_back(P.Name);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, SolverEquivalence,
                         ::testing::ValuesIn(equivalenceCases()),
                         [](const auto &Info) { return Info.param; });

} // namespace
