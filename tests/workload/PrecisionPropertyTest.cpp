//===- PrecisionPropertyTest.cpp - property-based cross-analysis checks ---------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Parameterized (property-style) sweeps over generated workloads that pin
// the paper's cross-analysis claims:
//   1. the three detector optimizations never change the racy locations
//      (checked against the pairwise oracle with each one switched off);
//   2. OPA's race report is a subset of the context-insensitive one
//      (0-ctx only adds false positives on these workloads);
//   3. intended races are always found;
//   4. OSA never reports more shared accesses than escape analysis.
//
//===----------------------------------------------------------------------===//

#include "RaceOracle.h"

#include "o2/O2.h"
#include "o2/OSA/EscapeAnalysis.h"
#include "o2/SHB/HBIndex.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace o2;

namespace {

WorkloadProfile smallProfile(uint64_t Seed) {
  WorkloadProfile P;
  P.Name = "prop-seed" + std::to_string(Seed);
  P.NumThreads = 3;
  P.NumEventHandlers = 2;
  P.CallDepth = 3;
  P.RacyObjects = 2;
  P.LockedObjects = 2;
  P.ReadOnlyObjects = 2;
  P.ProtectedWritesPerOrigin = 2;
  P.UnprotectedWritesPerOrigin = 2;
  P.ReadsPerOrigin = 2;
  P.NestedSpawnDepth = Seed % 2 ? 2 : 0;
  P.SpawnInLoop = Seed % 3 == 0;
  P.Seed = Seed;
  return P;
}

class PrecisionProperty : public ::testing::TestWithParam<uint64_t> {};

std::set<uint64_t> raceLocs(const std::vector<Race> &Races) {
  std::set<uint64_t> Locs;
  for (const Race &Rc : Races)
    Locs.insert(Rc.Loc.key());
  return Locs;
}

std::set<std::pair<unsigned, unsigned>>
racePairs(const std::vector<Race> &Races) {
  std::set<std::pair<unsigned, unsigned>> Pairs;
  for (const Race &Rc : Races)
    Pairs.insert({Rc.A->getId(), Rc.B->getId()});
  return Pairs;
}

TEST_P(PrecisionProperty, OptimizationsPreserveRacyLocations) {
  auto M = generateWorkload(smallProfile(GetParam()));

  O2Config Optimized;
  O2Analysis A = analyzeModule(*M, Optimized);

  test::RaceOracleResult B = test::runRaceOracle(
      *A.PTA, A.SHB, test::RaceOracleOptions::strawMan());

  EXPECT_EQ(raceLocs(A.Races.races()), raceLocs(B.Races));
  EXPECT_LE(A.Races.numRaces(), B.numRaces());
  // Optimized races are a subset of naive races (pairwise).
  auto NaivePairs = racePairs(B.Races);
  for (const auto &P : racePairs(A.Races.races()))
    EXPECT_TRUE(NaivePairs.count(P));
}

TEST_P(PrecisionProperty, EachOptimizationAloneIsSound) {
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  test::RaceOracleOptions Base = test::RaceOracleOptions::strawMan();
  std::set<uint64_t> Expected =
      raceLocs(test::runRaceOracle(*PTA, SHB, Base).Races);

  for (unsigned Opt = 0; Opt < 3; ++Opt) {
    test::RaceOracleOptions C = Base;
    if (Opt == 0)
      C.IndexHB = true;
    if (Opt == 1)
      C.CacheLocksetChecks = true;
    if (Opt == 2)
      C.LockRegionMerging = true;
    EXPECT_EQ(raceLocs(test::runRaceOracle(*PTA, SHB, C).Races), Expected)
        << "optimization " << Opt;
  }
}

TEST_P(PrecisionProperty, OriginRacesSubsetOfInsensitiveRaces) {
  auto M = generateWorkload(smallProfile(GetParam()));

  O2Config OPA;
  O2Analysis A = analyzeModule(*M, OPA);

  O2Config Insensitive;
  Insensitive.PTA.Kind = ContextKind::Insensitive;
  O2Analysis B = analyzeModule(*M, Insensitive);

  auto CoarsePairs = racePairs(B.Races.races());
  for (const auto &P : racePairs(A.Races.races()))
    EXPECT_TRUE(CoarsePairs.count(P))
        << "race missed by 0-ctx: stmts " << P.first << "," << P.second;
  EXPECT_LE(A.Races.numRaces(), B.Races.numRaces());
}

TEST_P(PrecisionProperty, IntendedRacesAreFound) {
  WorkloadProfile P = smallProfile(GetParam());
  auto M = generateWorkload(P);
  O2Analysis A = analyzeModule(*M);
  // Unprotected writes from multiple origins must surface as races.
  EXPECT_GE(A.Races.numRaces(), 1u);
  // And the race statistics are consistent.
  EXPECT_EQ(A.Races.stats().get("race.races"), A.Races.numRaces());
}

TEST_P(PrecisionProperty, OSANoLooserThanEscapeAnalysis) {
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SharingResult OSA = runSharingAnalysis(*PTA);
  EscapeResult Escape = runEscapeAnalysis(*PTA);
  EXPECT_LE(OSA.numSharedAccessStmts(), Escape.numSharedAccessStmts());
  EXPECT_EQ(OSA.numAccessStmts(), Escape.numAccessStmts());
}

TEST_P(PrecisionProperty, KCFAPrecisionGradation) {
  // More context depth => no more races (on these workloads the local
  // patterns of depth 1..3 are resolved one by one).
  auto M = generateWorkload(smallProfile(GetParam()));
  unsigned Prev = ~0u;
  for (unsigned K : {0u, 1u, 2u, 3u}) {
    O2Config C;
    if (K == 0) {
      C.PTA.Kind = ContextKind::Insensitive;
    } else {
      C.PTA.Kind = ContextKind::KCallsite;
      C.PTA.K = K;
    }
    unsigned N = analyzeModule(*M, C).Races.numRaces();
    EXPECT_LE(N, Prev) << "k=" << K;
    Prev = N;
  }
}

TEST_P(PrecisionProperty, HBImplementationsAgree) {
  // The precomputed HBIndex and the naive per-event BFS must agree on
  // every sampled query over a generated workload.
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph G = buildSHBGraph(*PTA);
  HBIndex Index(G);
  uint64_t Rng = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto Next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 400; ++I) {
    unsigned T1 = static_cast<unsigned>(Next() % G.numThreads());
    unsigned T2 = static_cast<unsigned>(Next() % G.numThreads());
    uint32_t N1 = std::max(G.thread(T1).NumEvents, 1u);
    uint32_t N2 = std::max(G.thread(T2).NumEvents, 1u);
    uint32_t P1 = static_cast<uint32_t>(Next() % N1);
    uint32_t P2 = static_cast<uint32_t>(Next() % N2);
    ASSERT_EQ(Index.happensBefore(T1, P1, T2, P2),
              test::happensBeforeBFS(G, T1, P1, T2, P2))
        << "(" << T1 << "," << P1 << ") vs (" << T2 << "," << P2 << ")";
  }
}

TEST_P(PrecisionProperty, RacyLocationsAreOSAShared) {
  // Every location the detector reports a race on must be origin-shared
  // per OSA (the detector consumes exactly the sharing OSA computes).
  auto M = generateWorkload(smallProfile(GetParam()));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SharingResult OSA = runSharingAnalysis(*PTA);
  RaceReport R = detectRaces(*PTA);
  for (const Race &Rc : R.races())
    EXPECT_TRUE(OSA.isShared(Rc.Loc))
        << "racy location not OSA-shared: " << Rc.Loc.toString(*PTA);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
