//===- o2/Race/DeadlockDetector.h - Lock-order deadlock analysis --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic lock-order-graph deadlock detector built on the same OPA +
/// SHB substrate as the race detector — one of the further applications
/// Section 3 calls out ("OPA and OSA can benefit any analysis that
/// requires analyzing pointers or ownership of memory accesses, e.g.,
/// deadlock, over-synchronization ...").
///
/// Every nested acquire contributes lock-order edges (held → acquired);
/// a cycle contributed by at least two different threads, with no common
/// gate lock protecting its acquisitions, is a potential deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef O2_RACE_DEADLOCKDETECTOR_H
#define O2_RACE_DEADLOCKDETECTOR_H

#include "o2/SHB/SHBGraph.h"
#include "o2/Support/CancellationToken.h"

#include <vector>

namespace o2 {

class HBIndex;
class OutputStream;

/// One lock-order edge: thread T acquired Inner while holding Outer.
struct LockOrderEdge {
  uint32_t Outer = 0; ///< lock element already held
  uint32_t Inner = 0; ///< lock element being acquired
  unsigned Thread = 0;
  const Stmt *Acquire = nullptr; ///< the inner acquire statement
  LocksetId HeldBefore = 0;      ///< full lockset at the inner acquire
};

/// A potential deadlock: a cycle in the lock-order graph.
struct DeadlockCycle {
  /// The lock elements on the cycle, in order.
  SmallVector<uint32_t, 2> Locks;
  /// One witness edge per step of the cycle.
  SmallVector<LockOrderEdge, 2> Witnesses;
};

class DeadlockReport {
public:
  const std::vector<DeadlockCycle> &cycles() const { return Cycles; }
  unsigned numDeadlocks() const {
    return static_cast<unsigned>(Cycles.size());
  }
  const std::vector<LockOrderEdge> &edges() const { return Edges; }

  /// True if a cancellation token fired mid-analysis; the report then
  /// holds only the cycles found before the cut.
  bool cancelled() const { return Cancelled; }

  void print(OutputStream &OS, const PTAResult &PTA) const;

private:
  friend class DeadlockDetector;

  std::vector<LockOrderEdge> Edges;
  std::vector<DeadlockCycle> Cycles;
  bool Cancelled = false;
};

/// Detects potential deadlocks over a prebuilt SHB graph; \p HBI (built
/// over the same graph) prunes two-step cycles whose acquisitions are
/// ordered by happens-before. \p Cancel is polled in the edge-collection
/// and cycle-search loops.
DeadlockReport detectDeadlocks(const PTAResult &PTA, const SHBGraph &SHB,
                               const HBIndex &HBI,
                               const CancellationToken *Cancel = nullptr);

} // namespace o2

#endif // O2_RACE_DEADLOCKDETECTOR_H
