//===- DeadlockDetector.cpp - Lock-order deadlock analysis --------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/DeadlockDetector.h"

#include "o2/IR/Printer.h"
#include "o2/SHB/HBIndex.h"
#include "o2/Support/OutputStream.h"

#include <algorithm>
#include <map>
#include <set>

using namespace o2;

namespace o2 {

class DeadlockDetector {
public:
  DeadlockDetector(const SHBGraph &SHB, const HBIndex &HBI,
                   const CancellationToken *Cancel)
      : SHB(SHB), HBI(HBI), Cancel(Cancel) {}

  DeadlockReport run() {
    collectEdges();
    if (!R.Cancelled)
      findCycles();
    return std::move(R);
  }

private:
  void collectEdges() {
    for (const ThreadInfo &T : SHB.threads()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      for (const AcquireEvent &A : T.Acquires) {
        if (A.HeldBefore == InternTable::Empty)
          continue;
        for (uint32_t Outer : SHB.locksetElems(A.HeldBefore)) {
          if (Outer == SHBGraph::UILockElem)
            continue;
          for (uint32_t Inner : A.Acquired) {
            if (Inner == Outer)
              continue;
            LockOrderEdge E;
            E.Outer = Outer;
            E.Inner = Inner;
            E.Thread = T.Id;
            E.Acquire = A.S;
            E.HeldBefore = A.HeldBefore;
            R.Edges.push_back(E);
          }
        }
      }
    }
  }

  /// Enumerates simple cycles of length 2..MaxCycleLen in the lock-order
  /// graph (lock sets here are tiny: the graph has one node per abstract
  /// lock object).
  void findCycles() {
    std::map<uint32_t, std::vector<size_t>> OutEdges;
    std::set<uint32_t> Nodes;
    for (size_t I = 0; I < R.Edges.size(); ++I) {
      OutEdges[R.Edges[I].Outer].push_back(I);
      Nodes.insert(R.Edges[I].Outer);
      Nodes.insert(R.Edges[I].Inner);
    }
    SmallVector<size_t, 4> Path;
    for (uint32_t Start : Nodes) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      dfs(Start, Start, Path, OutEdges);
    }
  }

  static constexpr unsigned MaxCycleLen = 4;

  void dfs(uint32_t Start, uint32_t Cur, SmallVector<size_t, 4> &Path,
           const std::map<uint32_t, std::vector<size_t>> &OutEdges) {
    auto It = OutEdges.find(Cur);
    if (It == OutEdges.end())
      return;
    for (size_t EdgeIdx : It->second) {
      const LockOrderEdge &E = R.Edges[EdgeIdx];
      if (E.Inner == Start) {
        Path.push_back(EdgeIdx);
        maybeReportCycle(Path);
        Path.pop_back();
        continue;
      }
      if (Path.size() + 1 >= MaxCycleLen)
        continue;
      // Keep cycles simple and canonical: only visit nodes above Start,
      // each at most once.
      if (E.Inner < Start || onPath(E.Inner, Path))
        continue;
      Path.push_back(EdgeIdx);
      dfs(Start, E.Inner, Path, OutEdges);
      Path.pop_back();
    }
  }

  bool onPath(uint32_t Node, const SmallVector<size_t, 4> &Path) const {
    for (size_t EdgeIdx : Path)
      if (R.Edges[EdgeIdx].Inner == Node)
        return true;
    return false;
  }

  void maybeReportCycle(const SmallVector<size_t, 4> &Path) {
    // A single thread acquiring in a cycle with itself is just a
    // (re-entrancy) ordering, not a deadlock: require two threads.
    std::set<unsigned> Threads;
    for (size_t EdgeIdx : Path)
      Threads.insert(R.Edges[EdgeIdx].Thread);
    if (Threads.size() < 2)
      return;

    // Gate lock: if every step's acquisition happens under one common
    // lock (other than the cycle's own locks), the cycle is serialized.
    std::set<uint32_t> CycleLocks;
    for (size_t EdgeIdx : Path)
      CycleLocks.insert(R.Edges[EdgeIdx].Outer);
    std::map<uint32_t, unsigned> HeldCount;
    for (size_t EdgeIdx : Path)
      for (uint32_t L : SHB.locksetElems(R.Edges[EdgeIdx].HeldBefore))
        if (!CycleLocks.count(L))
          ++HeldCount[L];
    for (const auto &[Lock, Count] : HeldCount)
      if (Count == Path.size())
        return; // gate lock serializes the whole cycle

    // For two-step cycles, prune ordered (non-concurrent) acquisitions.
    if (Path.size() == 2) {
      const LockOrderEdge &A = R.Edges[Path[0]];
      const LockOrderEdge &B = R.Edges[Path[1]];
      const AcquireEvent *EA = findAcquire(A);
      const AcquireEvent *EB = findAcquire(B);
      if (EA && EB &&
          (HBI.happensBefore(EA->Thread, EA->Pos, EB->Thread, EB->Pos) ||
           HBI.happensBefore(EB->Thread, EB->Pos, EA->Thread, EA->Pos)))
        return;
    }

    DeadlockCycle Cycle;
    for (size_t EdgeIdx : Path) {
      Cycle.Locks.push_back(R.Edges[EdgeIdx].Outer);
      Cycle.Witnesses.push_back(R.Edges[EdgeIdx]);
    }
    // Deduplicate by the (rotated-to-minimum) lock sequence.
    SmallVector<uint32_t, 2> Key = Cycle.Locks;
    std::sort(Key.begin(), Key.end());
    std::vector<uint32_t> KeyVec(Key.begin(), Key.end());
    if (!SeenCycles.insert(KeyVec).second)
      return;
    R.Cycles.push_back(std::move(Cycle));
  }

  const AcquireEvent *findAcquire(const LockOrderEdge &E) const {
    for (const AcquireEvent &A : SHB.thread(E.Thread).Acquires)
      if (A.S == E.Acquire && A.HeldBefore == E.HeldBefore)
        return &A;
    return nullptr;
  }

  const SHBGraph &SHB;
  const HBIndex &HBI;
  const CancellationToken *Cancel;
  DeadlockReport R;
  std::set<std::vector<uint32_t>> SeenCycles;
};

} // namespace o2

void DeadlockReport::print(OutputStream &OS, const PTAResult &PTA) const {
  (void)PTA;
  OS << "==== " << Cycles.size() << " potential deadlock(s) ====\n";
  for (const DeadlockCycle &C : Cycles) {
    OS << "lock cycle:";
    for (uint32_t L : C.Locks)
      OS << " lock" << L;
    OS << '\n';
    for (const LockOrderEdge &E : C.Witnesses)
      OS << "  thread " << E.Thread << " acquires lock" << E.Inner
         << " while holding lock" << E.Outer << " at '"
         << printStmt(*E.Acquire) << "'\n";
  }
}

DeadlockReport o2::detectDeadlocks(const PTAResult &, const SHBGraph &SHB,
                                   const HBIndex &HBI,
                                   const CancellationToken *Cancel) {
  return DeadlockDetector(SHB, HBI, Cancel).run();
}
