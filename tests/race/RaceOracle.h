//===- RaceOracle.h - Pairwise reference for the race engine ------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The race detector as a plain pairwise scan: every access pair of every
/// candidate location is checked in (I, J) order, and the first racy pair
/// of each statement pair is reported. It defines what the production
/// engine (src/race/RaceDetector.cpp) must report and count: with every
/// optimization on, `ParallelRaceEngineTest` holds the two to the same
/// races and exactly the same counters.
///
/// Each of the three optimizations of Section 4.1 can be switched off:
/// happens-before through the HBIndex or through a breadth-first search
/// over individual (thread, position) nodes, lockset intersections
/// memoized per canonical-ID pair or recomputed per query, and lock-region
/// merging on or off. With all three off the scan is the D4-style straw
/// man the soundness tests and `bench_ablation_opts` compare against.
///
/// The oracle keeps its own copy of candidate collection and region
/// merging, so those are checked against the engine too. Like the
/// engine's default, it treats `atomic` locations as synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef O2_TESTS_RACE_RACEORACLE_H
#define O2_TESTS_RACE_RACEORACLE_H

#include "o2/Race/RaceDetector.h"
#include "o2/SHB/SHBGraph.h"
#include "o2/Support/Statistic.h"

#include <unordered_map>
#include <vector>

namespace o2::test {

struct RaceOracleOptions {
  /// Optimization 1: answer happens-before with the precomputed HBIndex.
  /// When false, every query is a breadth-first search (happensBeforeBFS).
  bool IndexHB = true;

  /// Optimization 2: memoize lockset intersections per canonical-ID pair.
  bool CacheLocksetChecks = true;

  /// Optimization 3: merge same-location accesses within a lock region.
  bool LockRegionMerging = true;

  /// Every optimization off: the D4-style straw man.
  static RaceOracleOptions strawMan() {
    RaceOracleOptions O;
    O.IndexHB = false;
    O.CacheLocksetChecks = false;
    O.LockRegionMerging = false;
    return O;
  }
};

struct RaceOracleResult {
  /// Races in report order (by statement ids), as RaceReport::races().
  std::vector<Race> Races;
  /// The `race.*` counters, named as in RaceReport::stats().
  StatisticRegistry Stats;

  unsigned numRaces() const { return static_cast<unsigned>(Races.size()); }
};

RaceOracleResult runRaceOracle(const PTAResult &PTA, const SHBGraph &SHB,
                               const RaceOracleOptions &Opts = {});

/// Happens-before by breadth-first search over individual (thread,
/// position) nodes, the way a straw-man SHB traversal would: integer
/// comparison within a thread, and across threads a walk along program
/// order, spawn edges (into the child's first position) and join edges
/// (from a thread's last position).
bool happensBeforeBFS(const SHBGraph &G, unsigned T1, uint32_t P1,
                      unsigned T2, uint32_t P2);

/// Lockset intersection memoized per canonical-ID pair over
/// SHBGraph::locksetsIntersect: the oracle's optimization-2 arm.
class LocksetCache {
public:
  explicit LocksetCache(const SHBGraph &G) : G(G) {}

  bool intersect(LocksetId A, LocksetId B);

private:
  const SHBGraph &G;
  std::unordered_map<uint64_t, bool> Cache;
};

} // namespace o2::test

#endif // O2_TESTS_RACE_RACEORACLE_H
