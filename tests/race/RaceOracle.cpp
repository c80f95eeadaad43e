//===- RaceOracle.cpp - Pairwise reference for the race engine -------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "RaceOracle.h"

#include "o2/SHB/HBIndex.h"
#include "o2/Support/BitVector.h"
#include "o2/Support/Casting.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_set>

using namespace o2;
using namespace o2::test;

namespace {

using CandidateList =
    std::vector<std::pair<MemLoc, std::vector<const AccessEvent *>>>;

/// True if \p Loc is an `atomic` global or a field declared `atomic` in
/// the allocated class or one of its supers.
bool isAtomicLoc(const PTAResult &PTA, MemLoc Loc) {
  if (Loc.isGlobal())
    return PTA.module().globals()[Loc.globalId()]->isAtomic();
  FieldKey FK = Loc.fieldKey();
  if (FK == ArrayElemKey)
    return false;
  const auto *Cls =
      dyn_cast<ClassType>(PTA.object(Loc.object()).AllocatedType);
  for (const ClassType *C = Cls; C; C = C->getSuper())
    for (const auto &F : C->fields())
      if (fieldKeyOf(F.get()) == FK)
        return F->isAtomic();
  return false;
}

/// Locations at least two threads access, at least one writing, sorted;
/// each with its accesses in (thread, position) order.
CandidateList collectCandidates(const PTAResult &PTA, const SHBGraph &SHB,
                                StatisticRegistry &Stats) {
  std::map<MemLoc, std::vector<const AccessEvent *>> ByLoc;
  for (const ThreadInfo &T : SHB.threads())
    for (const AccessEvent &E : T.Accesses)
      for (const MemLoc &Loc : E.Locs)
        ByLoc[Loc].push_back(&E);
  CandidateList Candidates;
  std::set<unsigned> SharedObjects;
  for (auto &[Loc, Accesses] : ByLoc) {
    if (isAtomicLoc(PTA, Loc))
      continue;
    BitVector Threads, Writers;
    for (const AccessEvent *E : Accesses) {
      Threads.set(E->Thread);
      if (E->IsWrite)
        Writers.set(E->Thread);
    }
    if (Writers.none() || Threads.count() < 2)
      continue;
    if (!Loc.isGlobal())
      SharedObjects.insert(Loc.object());
    Candidates.emplace_back(Loc, std::move(Accesses));
  }
  Stats.set("race.shared-locations", Candidates.size());
  Stats.set("race.shared-objects", SharedObjects.size());
  Stats.set("race.threads", SHB.numThreads());
  Stats.set("race.access-events", SHB.numAccessEvents());
  return Candidates;
}

/// Keeps the first access per (thread, lock region, lockset, is-write)
/// of a sync-free lock region; accesses outside any region, or in a
/// region with a spawn or join, are all kept. Preserves input order.
std::vector<const AccessEvent *>
mergeByLockRegion(const std::vector<const AccessEvent *> &In,
                  uint64_t &MergedOut) {
  std::vector<const AccessEvent *> Out;
  std::set<std::tuple<unsigned, uint32_t, LocksetId, bool>> Seen;
  for (const AccessEvent *E : In) {
    if (E->LockRegion == 0 || E->RegionHasSync ||
        Seen.emplace(E->Thread, E->LockRegion, E->Lockset, E->IsWrite)
            .second)
      Out.push_back(E);
    else
      ++MergedOut;
  }
  return Out;
}

class RaceOracle {
public:
  RaceOracle(const PTAResult &PTA, const SHBGraph &SHB,
             const RaceOracleOptions &Opts)
      : PTA(PTA), SHB(SHB), Opts(Opts), Locksets(SHB) {}

  RaceOracleResult run() {
    CandidateList Candidates = collectCandidates(PTA, SHB, R.Stats);
    if (!Candidates.empty() && Opts.IndexHB) {
      HBI = std::make_unique<HBIndex>(SHB);
      R.Stats.set("race.hb-index-segments", HBI->numSegments());
    }
    for (auto &[Loc, Accesses] : Candidates)
      checkLocation(Loc, Accesses);
    std::sort(R.Races.begin(), R.Races.end(),
              [](const Race &X, const Race &Y) {
                if (X.A->getId() != Y.A->getId())
                  return X.A->getId() < Y.A->getId();
                return X.B->getId() < Y.B->getId();
              });
    R.Stats.set("race.races", R.Races.size());
    return std::move(R);
  }

private:
  bool locksetsIntersect(LocksetId A, LocksetId B) {
    R.Stats.add("race.lockset-checks");
    return Opts.CacheLocksetChecks ? Locksets.intersect(A, B)
                                   : SHB.locksetsIntersect(A, B);
  }

  bool happensBefore(const AccessEvent &A, const AccessEvent &B) {
    R.Stats.add("race.hb-queries");
    return HBI ? HBI->happensBefore(A.Thread, A.Pos, B.Thread, B.Pos)
               : happensBeforeBFS(SHB, A.Thread, A.Pos, B.Thread, B.Pos);
  }

  void checkLocation(MemLoc Loc,
                     const std::vector<const AccessEvent *> &AllAccesses) {
    uint64_t Merged = 0;
    std::vector<const AccessEvent *> Accesses =
        Opts.LockRegionMerging ? mergeByLockRegion(AllAccesses, Merged)
                               : AllAccesses;
    if (Merged)
      R.Stats.add("race.merged-accesses", Merged);
    for (size_t I = 0; I < Accesses.size(); ++I) {
      for (size_t J = I + 1; J < Accesses.size(); ++J) {
        const AccessEvent &A = *Accesses[I];
        const AccessEvent &B = *Accesses[J];
        if (A.Thread == B.Thread)
          continue;
        if (!A.IsWrite && !B.IsWrite)
          continue;
        R.Stats.add("race.pairs-checked");
        if (locksetsIntersect(A.Lockset, B.Lockset))
          continue;
        if (happensBefore(A, B) || happensBefore(B, A))
          continue;
        recordRace(Loc, A, B);
      }
    }
  }

  void recordRace(MemLoc Loc, const AccessEvent &A, const AccessEvent &B) {
    const AccessEvent *EA = &A, *EB = &B;
    if (EA->S->getId() > EB->S->getId())
      std::swap(EA, EB);
    if (!ReportedPairs.emplace(EA->S->getId(), EB->S->getId()).second)
      return;
    Race Rc;
    Rc.Loc = Loc;
    Rc.A = EA->S;
    Rc.B = EB->S;
    Rc.ThreadA = EA->Thread;
    Rc.ThreadB = EB->Thread;
    Rc.AIsWrite = EA->IsWrite;
    Rc.BIsWrite = EB->IsWrite;
    R.Races.push_back(Rc);
  }

  const PTAResult &PTA;
  const SHBGraph &SHB;
  RaceOracleOptions Opts;
  LocksetCache Locksets;
  std::unique_ptr<HBIndex> HBI; ///< Null when HB goes through the BFS.
  RaceOracleResult R;
  /// Reported (stmt id, stmt id) pairs, lower id first.
  std::set<std::pair<unsigned, unsigned>> ReportedPairs;
};

} // namespace

RaceOracleResult o2::test::runRaceOracle(const PTAResult &PTA,
                                         const SHBGraph &SHB,
                                         const RaceOracleOptions &Opts) {
  return RaceOracle(PTA, SHB, Opts).run();
}

bool o2::test::happensBeforeBFS(const SHBGraph &G, unsigned T1, uint32_t P1,
                                unsigned T2, uint32_t P2) {
  if (T1 == T2)
    return P1 < P2;
  std::unordered_set<uint64_t> Visited;
  std::deque<std::pair<unsigned, uint32_t>> Queue;
  auto Push = [&](unsigned T, uint32_t P) {
    if (Visited.insert((uint64_t(T) << 32) | P).second)
      Queue.emplace_back(T, P);
  };
  Push(T1, P1);
  while (!Queue.empty()) {
    auto [T, P] = Queue.front();
    Queue.pop_front();
    if (T == T2 && P <= P2 && !(T == T1 && P == P1))
      return true;
    const ThreadInfo &TI = G.thread(T);
    if (P + 1 < TI.NumEvents)
      Push(T, P + 1);
    for (const auto &[Pos, Child] : TI.SpawnEdges)
      if (Pos == P)
        Push(Child, 0);
    if (P + 1 >= TI.NumEvents)
      for (const auto &[Joiner, Pos] : TI.Joins)
        Push(Joiner, Pos);
  }
  return false;
}

bool LocksetCache::intersect(LocksetId A, LocksetId B) {
  if (A == B)
    return A != InternTable::Empty;
  uint64_t Key = A < B ? (uint64_t(A) << 32) | B : (uint64_t(B) << 32) | A;
  auto [It, Inserted] = Cache.emplace(Key, false);
  if (Inserted)
    It->second = G.locksetsIntersect(A, B);
  return It->second;
}
