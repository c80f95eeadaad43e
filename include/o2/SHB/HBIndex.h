//===- o2/SHB/HBIndex.h - Precomputed SHB query indexes -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, fully precomputed query indexes over a built SHBGraph: one
/// up-front construction pass buys O(1), lock-free lookups that any
/// number of race-engine workers can share.
///
///  - HBIndex: per-segment reachability clocks, the only happens-before
///    implementation in the library. Each thread's trace is cut into
///    segments at its spawn-edge positions (cross-thread reachability
///    only changes when the source position crosses a spawn edge); for
///    every segment the index stores the earliest reachable position of
///    every thread. A happens-before query is then one row lookup plus an
///    integer compare. HBIndexTest checks it against a breadth-first
///    search over individual (thread, position) nodes on every event
///    pair of the test corpus.
///
///  - LocksetMatrix: the full pairwise intersection relation of the
///    interned lockset universe as one bit matrix, built with
///    SHBGraph::locksetsIntersect. The race engine consults it when the
///    universe is small (quadratic memory) and otherwise keeps
///    shard-local memo caches.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SHB_HBINDEX_H
#define O2_SHB_HBINDEX_H

#include "o2/SHB/SHBGraph.h"

#include <vector>

namespace o2 {

class HBIndex {
public:
  /// Builds the full index: one reachability row per (thread, segment).
  explicit HBIndex(const SHBGraph &SHB);

  /// Sentinel for "no position of that thread is reachable".
  static constexpr uint32_t Unreached = ~uint32_t(0);

  /// Segment of position \p P within thread \p T: the number of spawn
  /// edges of T strictly before P (O(log #spawns of T)).
  unsigned segmentOf(unsigned T, uint32_t P) const {
    const std::vector<uint32_t> &Pos = SpawnPos[T];
    return static_cast<unsigned>(
        std::lower_bound(Pos.begin(), Pos.end(), P) - Pos.begin());
  }

  /// Dense row id of (thread \p T, segment \p Seg), for row().
  unsigned rowOf(unsigned T, unsigned Seg) const { return RowBase[T] + Seg; }

  /// Earliest reachable positions per thread from any position in the
  /// given row's segment; entries are Unreached when no path exists.
  const uint32_t *row(unsigned Row) const {
    return Reach.data() + size_t(Row) * NumThreads;
  }

  /// Earliest position of \p T2 ordered after segment \p Row of its
  /// source thread (O(1)).
  uint32_t reach(unsigned Row, unsigned T2) const { return row(Row)[T2]; }

  /// True if position \p P1 of thread \p T1 happens before position
  /// \p P2 of thread \p T2: integer comparison intra-thread, precomputed
  /// reachability across.
  bool happensBefore(unsigned T1, uint32_t P1, unsigned T2,
                     uint32_t P2) const {
    if (T1 == T2)
      return P1 < P2;
    uint32_t R = reach(rowOf(T1, segmentOf(T1, P1)), T2);
    return R != Unreached && R <= P2;
  }

  /// Total number of (thread, segment) rows.
  size_t numSegments() const { return Reach.size() / std::max(1u, NumThreads); }

  unsigned numThreads() const { return NumThreads; }

private:
  unsigned NumThreads = 0;
  /// Per thread: positions of its spawn edges (ascending, duplicates kept
  /// so segment ids line up with the thread's spawn-edge indices).
  std::vector<std::vector<uint32_t>> SpawnPos;
  /// Per thread: first row id of its segments.
  std::vector<unsigned> RowBase;
  /// numSegments x NumThreads matrix of earliest reachable positions.
  std::vector<uint32_t> Reach;
};

/// Pairwise lockset-intersection relation as an immutable bit matrix.
class LocksetMatrix {
public:
  explicit LocksetMatrix(const SHBGraph &SHB);

  bool intersect(LocksetId A, LocksetId B) const {
    size_t Bit = size_t(A) * N + B;
    return (Bits[Bit >> 6] >> (Bit & 63)) & 1;
  }

  size_t numLocksets() const { return N; }

  /// Memory the matrix for \p NumLocksets locksets would take, in bytes.
  static size_t bytesFor(size_t NumLocksets) {
    return ((NumLocksets * NumLocksets + 63) / 64) * 8;
  }

private:
  size_t N = 0;
  std::vector<uint64_t> Bits;
};

} // namespace o2

#endif // O2_SHB_HBINDEX_H
