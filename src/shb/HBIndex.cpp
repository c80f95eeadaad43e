//===- HBIndex.cpp - Precomputed SHB query indexes --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/HBIndex.h"

using namespace o2;

HBIndex::HBIndex(const SHBGraph &SHB) {
  const std::vector<ThreadInfo> &Threads = SHB.threads();
  NumThreads = static_cast<unsigned>(Threads.size());
  SpawnPos.resize(NumThreads);
  RowBase.resize(NumThreads);

  size_t NumRows = 0;
  for (const ThreadInfo &T : Threads) {
    SpawnPos[T.Id].reserve(T.SpawnEdges.size());
    for (const auto &[Pos, Child] : T.SpawnEdges)
      SpawnPos[T.Id].push_back(Pos);
    RowBase[T.Id] = static_cast<unsigned>(NumRows);
    NumRows += T.SpawnEdges.size() + 1;
  }
  Reach.assign(NumRows * NumThreads, Unreached);

  // One spawn/join fixpoint per (thread, segment): a segment reaches its
  // own thread from the next spawn-edge position (the positions before
  // it are ordered by the intra-thread integer comparison instead),
  // spawn edges at or after the reached position fire into the child's
  // start, and a thread's join edges fire as soon as any of its
  // positions is reachable.
  for (const ThreadInfo &Src : Threads) {
    for (size_t Seg = 0; Seg <= Src.SpawnEdges.size(); ++Seg) {
      uint32_t *Row = Reach.data() +
                      size_t(RowBase[Src.Id] + Seg) * NumThreads;
      Row[Src.Id] = Seg < Src.SpawnEdges.size() ? Src.SpawnEdges[Seg].first
                                                : Src.NumEvents;
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const ThreadInfo &Cur : Threads) {
          uint32_t From = Row[Cur.Id];
          if (From == Unreached)
            continue;
          for (const auto &[Pos, Child] : Cur.SpawnEdges) {
            if (Pos < From)
              continue;
            if (Row[Child] != 0) {
              Row[Child] = 0;
              Changed = true;
            }
          }
          for (const auto &[Joiner, Pos] : Cur.Joins) {
            if (Pos < Row[Joiner]) {
              Row[Joiner] = Pos;
              Changed = true;
            }
          }
        }
      }
    }
  }
}

LocksetMatrix::LocksetMatrix(const SHBGraph &SHB) {
  N = SHB.numLocksets();
  Bits.assign((N * N + 63) / 64, 0);
  for (LocksetId A = 0; A < N; ++A)
    for (LocksetId B = A; B < N; ++B)
      if (SHB.locksetsIntersect(A, B)) {
        size_t AB = size_t(A) * N + B, BA = size_t(B) * N + A;
        Bits[AB >> 6] |= uint64_t(1) << (AB & 63);
        Bits[BA >> 6] |= uint64_t(1) << (BA & 63);
      }
}
