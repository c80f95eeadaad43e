//===- LocksetIntersectTest.cpp - lockset intersection property tests -----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The three lockset-intersection implementations must agree on every pair
// of interned locksets of every corpus module: the merge test
// (`SHBGraph::locksetsIntersect`, which the race engine's shards memoize
// when the matrix is too large), the precomputed bit matrix
// (`LocksetMatrix`), and the pairwise oracle's per-pair cache
// (`test::LocksetCache`). A disagreement would make the engine and the
// oracle diverge, so this is a property test over the whole interned
// universe, not spot checks.
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

/// Reference semantics straight off the interned element lists: two
/// locksets intersect iff they share an element (both lists are sorted
/// canonical forms, so a merge walk is exact).
bool refIntersect(const SHBGraph &G, LocksetId A, LocksetId B) {
  auto EA = G.locksetElems(A);
  auto EB = G.locksetElems(B);
  size_t I = 0, J = 0;
  while (I < EA.size() && J < EB.size()) {
    if (EA[I] == EB[J])
      return true;
    if (EA[I] < EB[J])
      ++I;
    else
      ++J;
  }
  return false;
}

class LocksetIntersect : public ::testing::TestWithParam<std::string> {};

TEST_P(LocksetIntersect, AllImplementationsAgreeOnAllInternedPairs) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);
  LocksetMatrix Matrix(G);
  test::LocksetCache Cache(G);

  size_t N = G.numLocksets();
  ASSERT_GE(N, 1u) << "empty lockset is always interned";
  ASSERT_EQ(Matrix.numLocksets(), N);

  for (LocksetId A = 0; A < N; ++A) {
    for (LocksetId B = 0; B < N; ++B) {
      bool Ref = refIntersect(G, A, B);
      EXPECT_EQ(Cache.intersect(A, B), Ref)
          << GetParam() << " cached (" << A << "," << B << ")";
      EXPECT_EQ(G.locksetsIntersect(A, B), Ref)
          << GetParam() << " uncached (" << A << "," << B << ")";
      EXPECT_EQ(Matrix.intersect(A, B), Ref)
          << GetParam() << " matrix (" << A << "," << B << ")";
    }
  }
}

TEST_P(LocksetIntersect, EmptyLocksetAndSymmetry) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  SHBGraph G = buildGraph(*M);
  LocksetMatrix Matrix(G);

  size_t N = G.numLocksets();
  for (LocksetId A = 0; A < N; ++A) {
    // Lockset 0 is the empty lockset: it never intersects anything,
    // including itself.
    EXPECT_FALSE(Matrix.intersect(0, A)) << GetParam() << " id " << A;
    EXPECT_FALSE(Matrix.intersect(A, 0)) << GetParam() << " id " << A;
    // A non-empty lockset always intersects itself.
    EXPECT_EQ(Matrix.intersect(A, A), A != 0) << GetParam() << " id " << A;
    for (LocksetId B = A + 1; B < N; ++B)
      EXPECT_EQ(Matrix.intersect(A, B), Matrix.intersect(B, A))
          << GetParam() << " (" << A << "," << B << ")";
  }
}

std::vector<std::string> locksetCases() {
  std::vector<std::string> Cases = {
      "oir_locked_account", "oir_producer_consumer", "oir_racy_counter",
      "oir_event_thread_mix", "oir_nested_handlers"};
  for (const WorkloadProfile &P : benchmarkProfiles()) {
    if (P.PaddingFunctions > 100 || P.AmplifierFanOut > 12)
      continue;
    Cases.push_back(P.Name);
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, LocksetIntersect,
                         ::testing::ValuesIn(locksetCases()),
                         [](const auto &Info) { return Info.param; });

TEST(LocksetMatrixTest, BytesForIsQuadraticBits) {
  // One bit per ordered pair, rounded up to whole words.
  EXPECT_EQ(LocksetMatrix::bytesFor(0), 0u);
  EXPECT_GE(LocksetMatrix::bytesFor(64) * 8, 64u * 64u);
  EXPECT_LE(LocksetMatrix::bytesFor(64), 64u * 64u / 8 + 8);
}

} // namespace
