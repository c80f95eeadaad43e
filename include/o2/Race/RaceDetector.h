//===- o2/Race/RaceDetector.h - Static race detection -------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The race detection engine of Section 4: hybrid happens-before + lockset
/// over the SHB graph, with the three optimizations of Section 4.1
/// always on (integer happens-before through the precomputed HBIndex,
/// canonical locksets with a precomputed intersection matrix, and
/// lock-region merging).
///
/// The sorted candidate-location list is sharded across a work-stealing
/// thread pool. Per location, accesses are grouped into (thread, HB
/// segment, lockset, is-write) equivalence classes, so the n^2 pairwise
/// loop becomes c^2 class-pair checks: one lockset lookup and two
/// reachability lookups decide a whole class pair, and the racy subset
/// of a class pair is a prefix-rectangle found by binary search.
///
/// Reports and counters are deterministic: for any worker count the
/// engine produces byte-identical reports and equal counters, because
/// per-location results are merged in canonical (sorted-location) order
/// and every counter charges the pairs a class pair covers — what the
/// plain pairwise scan over the merged accesses would do — rather than
/// the lookups actually performed. That pairwise scan is the test oracle
/// (tests/race/RaceOracle.h). Cancellation is the one exception: which
/// locations complete before the token fires is timing-dependent.
///
//===----------------------------------------------------------------------===//

#ifndef O2_RACE_RACEDETECTOR_H
#define O2_RACE_RACEDETECTOR_H

#include "o2/SHB/SHBGraph.h"
#include "o2/Support/Statistic.h"

#include <set>
#include <vector>

namespace o2 {

class HBIndex;
class OutputStream;
class ThreadPool;

struct RaceDetectorOptions {
  /// Treat accesses to `atomic` fields and globals as synchronization
  /// rather than data: no races are reported on them (the paper's
  /// future-work treatment of std::atomic).
  bool HandleAtomics = true;

  /// Worker threads (0 = hardware concurrency). The calling thread
  /// always participates, so Jobs=1 runs inline.
  unsigned Jobs = 0;

  /// External pool to run shards on instead of spawning one (not
  /// owned). The caller participates in the work and never blocks on
  /// unrelated tasks, so sharing the batch driver's pool is safe even
  /// when every pool worker is busy with other modules.
  ThreadPool *Pool = nullptr;

  /// Below this many candidate locations the sharding overhead cannot
  /// pay off and the scan runs inline on the caller.
  unsigned MinParallelLocations = 33;

  /// Build the full lockset-intersection bit matrix when the interned
  /// universe has at most this many locksets (quadratic bits); larger
  /// universes use shard-local caches.
  unsigned LocksetMatrixMaxSize = 2048;

  /// Optional cooperative cancellation, polled per candidate location;
  /// on expiry the scan stops and the partial report is flagged (the
  /// "race.cancelled" statistic). Not owned.
  const CancellationToken *Cancel = nullptr;

  /// Optional prebuilt HBIndex over the same SHB graph (not owned). When
  /// set, the engine uses it instead of building its own — the
  /// AnalysisManager passes the shared HBIndex pass result here so one
  /// index build serves any number of detector runs. Reports and
  /// statistics are unaffected.
  const HBIndex *Index = nullptr;

  /// Forwarded to the SHB builder when the detector builds its own graph.
  SHBOptions SHB;
};

/// One reported race: an unordered pair of conflicting statements.
struct Race {
  MemLoc Loc;                 ///< One shared location they collide on.
  const Stmt *A = nullptr;
  const Stmt *B = nullptr;
  unsigned ThreadA = 0;
  unsigned ThreadB = 0;
  bool AIsWrite = false;
  bool BIsWrite = false;
};

class RaceReport {
public:
  const std::vector<Race> &races() const { return Races; }
  unsigned numRaces() const { return static_cast<unsigned>(Races.size()); }

  /// Detector counters: pairs checked, HB queries, lockset checks,
  /// shared locations, threads, events. Counters are independent of the
  /// worker count (see file comment).
  const StatisticRegistry &stats() const { return Stats; }

  /// Prints a human-readable report.
  void print(OutputStream &OS, const PTAResult &PTA) const;

  /// Emits the report as JSON: {"races": [...], "stats": {...}}.
  void printJSON(OutputStream &OS, const PTAResult &PTA) const;

  /// True if the scan was cancelled (the report covers a subset of the
  /// candidate locations).
  bool cancelled() const { return Cancelled; }

private:
  friend RaceReport detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                                const RaceDetectorOptions &Opts);

  bool Cancelled = false;
  std::vector<Race> Races;
  StatisticRegistry Stats;
};

/// Detects races over a prebuilt SHB graph.
RaceReport detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                       const RaceDetectorOptions &Opts = {});

/// Builds the SHB graph and detects races.
RaceReport detectRaces(const PTAResult &PTA,
                       const RaceDetectorOptions &Opts = {});

} // namespace o2

#endif // O2_RACE_RACEDETECTOR_H
