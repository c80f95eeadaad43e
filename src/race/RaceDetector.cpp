//===- RaceDetector.cpp - Sharded class-based race engine ------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The race engine: collects the shared candidate locations, shards them
// across a thread pool and, per location, replaces the O(n^2) pairwise
// scan with equivalence-class math over the precomputed HBIndex.
//
// ## The pairwise scan
//
// The engine's output and counters are defined by a plain scan, which
// tests/race/RaceOracle.cpp implements verbatim: visit the candidate
// locations in sorted order; merge each location's accesses by lock
// region; for every access pair (I, J), I < J, of different threads with
// at least one write, charge one pair check and one lockset check, skip
// the pair if the locksets intersect, otherwise charge the HB query
// hb(A, B) and, if it is false, the query hb(B, A); a pair ordered
// neither way is racy, and the first racy pair of each statement pair
// (in scan order) is reported.
//
// ## Equivalence classes
//
// Accesses to one location are grouped by (thread, HB segment, lockset,
// is-write). Every member of a class has the same reachability row in the
// HBIndex and the same lockset, so for a pair of classes (Ci, Cj) one
// lockset lookup and two reach() lookups decide *all* |Ci|*|Cj| access
// pairs at once:
//
//   - the scan's first HB query hb(A, B) for A in Ci, B in Cj is false
//     exactly for the B whose position precedes
//     R12 = reach(row(Ci), thread(Cj)) — a prefix of Cj's
//     position-sorted members, found by binary search;
//   - symmetrically hb(B, A) is false exactly for the prefix of Ci
//     before R21 = reach(row(Cj), thread(Ci));
//   - the racy pairs of the class pair are the rectangle
//     prefix(Ci, cut21) x prefix(Cj, cut12).
//
// ## The determinism contract
//
// The engine reproduces the scan's report byte-for-byte and its counters
// exactly, at any worker count:
//
//   - Counters charge what the scan *would have done* (|Ci|*|Cj| pair
//     checks and lockset checks; N + |Ci|*cut12 HB queries, the
//     short-circuited second query included), not the lookups actually
//     performed — so they are schedule-independent. No cache-occupancy
//     counters are emitted for the same reason.
//   - The scan dedups statement pairs globally in scan order and the
//     first reporting pair fixes the race payload. Candidate locations
//     are sorted, and within one location the access vector is sorted by
//     (thread, position); because classes never span threads, the first
//     racy (I, J) index pair for a statement pair inside a rectangle is
//     (first occurrence of stmt A in the Ci prefix, first occurrence of
//     stmt B in the Cj prefix). Each location therefore reduces to "per
//     statement pair, the minimum (I, J) rank and its payload", computed
//     shard-locally; the fold sorts every location's pairs once by
//     (statement pair, location) and keeps the first of each statement
//     pair (see detectRaces).
//
// ## Scheduling
//
// Workers (pool tasks plus the calling thread, which always
// participates) pull one location at a time from a shared atomic cursor;
// a condition variable counts completed locations so the caller can
// return as soon as the last location finishes. Pool tasks that start
// late — possibly after the engine already returned, when sharing an
// external pool — observe an exhausted cursor and exit touching nothing
// but the shared-ptr-owned scheduler state, which is what makes sharing
// the batch driver's pool safe without a drain barrier.
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RaceDetector.h"

#include "o2/IR/Printer.h"
#include "o2/SHB/HBIndex.h"
#include "o2/Support/ArrayRef.h"
#include "o2/Support/Casting.h"
#include "o2/Support/FlatIndexMap.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

using namespace o2;

namespace {

/// One shared location and its accesses, CandidateList::Accesses[Begin,
/// End), in (thread, position) order — threads ascend, positions strictly
/// ascend per thread (trace order). The class math relies on this order.
struct Candidate {
  MemLoc Loc;
  size_t Begin, End;
};

/// The candidates in location order, their accesses in one flat vector.
struct CandidateList {
  std::vector<Candidate> Locs;
  std::vector<const AccessEvent *> Accesses;
};

/// True if \p Loc is `atomic` synchronization, not data. Only shared
/// locations are asked, so the class-hierarchy walk is not memoized.
bool isAtomicLoc(const PTAResult &PTA, MemLoc Loc) {
  if (Loc.isGlobal())
    return PTA.module().globals()[Loc.globalId()]->isAtomic();
  FieldKey FK = Loc.fieldKey();
  if (FK == ArrayElemKey)
    return false;
  const ObjInfo &O = PTA.object(Loc.object());
  for (const auto *C = dyn_cast<ClassType>(O.AllocatedType); C;
       C = C->getSuper())
    for (const auto &F : C->fields())
      if (fieldKeyOf(F.get()) == FK)
        return F->isAtomic();
  return false;
}

/// Shared-location filter over the traces: a location is a candidate if
/// at least two threads access it and at least one writes (and it is not
/// an atomic, when those are handled). Returns the sorted candidate list
/// and records the corpus-shape statistics.
CandidateList collectCandidates(const PTAResult &PTA, const SHBGraph &SHB,
                                const RaceDetectorOptions &Opts,
                                StatisticRegistry &Stats) {
  // Every (location, access) pair in trace order; a stable sort groups
  // them by location and keeps each group in trace order.
  std::vector<std::pair<MemLoc, const AccessEvent *>> ByLoc;
  for (const ThreadInfo &T : SHB.threads())
    for (const AccessEvent &E : T.Accesses)
      for (const MemLoc &Loc : E.Locs)
        ByLoc.emplace_back(Loc, &E);
  std::stable_sort(
      ByLoc.begin(), ByLoc.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  CandidateList C;
  size_t SharedObjects = 0;
  for (size_t I = 0, J; I < ByLoc.size(); I = J) {
    MemLoc Loc = ByLoc[I].first;
    bool Written = false;
    unsigned Threads = 0;
    for (J = I; J < ByLoc.size() && ByLoc[J].first == Loc; ++J) {
      const AccessEvent *E = ByLoc[J].second;
      Written |= E->IsWrite;
      Threads += J == I || E->Thread != ByLoc[J - 1].second->Thread;
    }
    // Shared as OSA defines it (LocAccessSets::isShared), over threads:
    // a writer, and at least two accessing threads (a group lists each
    // thread's accesses together, so thread changes count the threads).
    if (!Written || Threads < 2 ||
        (Opts.HandleAtomics && isAtomicLoc(PTA, Loc)))
      continue;
    // Object locations sort by object, before the globals.
    if (!Loc.isGlobal() &&
        (C.Locs.empty() || C.Locs.back().Loc.object() != Loc.object()))
      ++SharedObjects;
    C.Locs.push_back({Loc, C.Accesses.size(), C.Accesses.size() + (J - I)});
    for (size_t K = I; K < J; ++K)
      C.Accesses.push_back(ByLoc[K].second);
  }
  Stats.set("race.shared-locations", C.Locs.size());
  Stats.set("race.shared-objects", SharedObjects);
  Stats.set("race.threads", SHB.numThreads());
  Stats.set("race.access-events", SHB.numAccessEvents());
  return C;
}

/// Optimization 3: within one thread, all accesses to one location inside
/// the same sync-free lock region with the same lockset have identical
/// happens-before and lockset behaviour — keep one representative.
/// Preserves input order; \p MergedOut is incremented once per dropped
/// access (the "race.merged-accesses" statistic).
std::vector<const AccessEvent *>
mergeByLockRegion(ArrayRef<const AccessEvent *> In,
                  FlatIndexMap<std::pair<uint64_t, uint64_t>> &Seen,
                  uint64_t &MergedOut) {
  std::vector<const AccessEvent *> Out;
  // (thread, region) and (lockset, is-write) packed into two words; output
  // keeps the input order, so the hashed dedup stays deterministic.
  Seen.clear();
  for (const AccessEvent *E : In) {
    if (E->LockRegion == 0 || E->RegionHasSync) {
      Out.push_back(E);
      continue;
    }
    if (Seen.insert({(uint64_t(E->Thread) << 32) | E->LockRegion,
                     (uint64_t(E->Lockset) << 1) | E->IsWrite})
            .second)
      Out.push_back(E);
    else
      ++MergedOut;
  }
  return Out;
}

/// Dedup key of an unordered statement pair: ids packed low/high.
uint64_t stmtPairKey(const Stmt *SA, const Stmt *SB) {
  uint32_t A = SA->getId(), B = SB->getId();
  if (A > B)
    std::swap(A, B);
  return (uint64_t(A) << 32) | B;
}

/// Builds the race payload for a conflicting access pair: participants
/// ordered by statement id.
Race makeRace(MemLoc Loc, const AccessEvent &A, const AccessEvent &B) {
  const AccessEvent *EA = &A, *EB = &B;
  if (EA->S->getId() > EB->S->getId())
    std::swap(EA, EB);
  return {Loc, EA->S, EB->S, EA->Thread, EB->Thread, EA->IsWrite,
          EB->IsWrite};
}

/// One statement pair a location wants to report: the minimum-rank racy
/// access pair with that statement pair.
struct PendingRace {
  uint64_t Key;  ///< stmtPairKey of the two statements.
  /// (lower global index << 32) | higher global index; in the fold,
  /// which orders across locations, the location's index instead.
  uint64_t Rank;
  const AccessEvent *A, *B;
};

/// Everything one candidate location contributes, mergeable in canonical
/// order after the shards finish.
struct LocationResult {
  uint64_t PairsChecked = 0;
  uint64_t LocksetChecks = 0;
  uint64_t HBQueries = 0;
  uint64_t Merged = 0;
  std::vector<PendingRace> Pending;
};

/// One equivalence class: accesses of one thread/segment/lockset/is-write
/// at one location, in position order.
struct AccessClass {
  unsigned Thread;
  unsigned Row; ///< HBIndex row of (Thread, segment).
  LocksetId Lockset;
  bool IsWrite;
  std::vector<uint32_t> Pos;              ///< Ascending.
  std::vector<uint32_t> Idx;              ///< Global (merged-vector) index.
  std::vector<const AccessEvent *> Ev;

  /// First occurrence of each distinct statement: (member rank, event).
  /// Built on demand — only classes that land in a racy rectangle pay.
  bool StmtsBuilt = false;
  std::vector<std::pair<uint32_t, const AccessEvent *>> Stmts;

  const std::vector<std::pair<uint32_t, const AccessEvent *>> &
  stmts(FlatIndexMap<uint64_t> &Seen) {
    if (!StmtsBuilt) {
      StmtsBuilt = true;
      Seen.clear();
      for (uint32_t R = 0; R < Ev.size(); ++R)
        if (Seen.insert(Ev[R]->S->getId()).second)
          Stmts.emplace_back(R, Ev[R]);
    }
    return Stmts;
  }
};

/// A worker's tables, reused from location to location, and its lockset
/// intersections: the precomputed matrix when available, otherwise a memo
/// over SHBGraph's merge test.
struct Scratch {
  Scratch(const SHBGraph &SHB, const LocksetMatrix *Matrix)
      : SHB(SHB), Matrix(Matrix) {}

  const SHBGraph &SHB;
  const LocksetMatrix *Matrix;
  FlatIndexMap<uint64_t> LocksetPairs; ///< Intersects[N] answers pair N.
  std::vector<bool> Intersects;
  FlatIndexMap<std::pair<uint64_t, uint64_t>> Regions, ClassKeys;
  FlatIndexMap<uint64_t> Stmts, StmtPairs;

  bool intersect(LocksetId A, LocksetId B) {
    if (Matrix)
      return Matrix->intersect(A, B);
    uint64_t K = A < B ? (uint64_t(A) << 32) | B : (uint64_t(B) << 32) | A;
    if (auto [N, New] = LocksetPairs.insert(K); !New)
      return Intersects[N];
    Intersects.push_back(SHB.locksetsIntersect(A, B));
    return Intersects.back();
  }
};

/// Scheduler state shared by the caller and the pool tasks. Held by
/// shared_ptr so a late task outliving the engine call touches only live
/// memory; the pointers into the caller's frame are valid whenever a task
/// holds an unprocessed location index (the caller cannot have returned
/// while one remains).
struct EngineState {
  const CandidateList *Candidates = nullptr;
  const SHBGraph *SHB = nullptr;
  const HBIndex *HBI = nullptr;
  const LocksetMatrix *Matrix = nullptr;
  const RaceDetectorOptions *Opts = nullptr;
  std::vector<LocationResult> Results;
  size_t NumLocations = 0;

  std::atomic<size_t> Next{0};
  std::atomic<bool> CancelFlag{false};
  std::mutex Mutex;
  std::condition_variable DoneCV;
  size_t Remaining = 0;
};

void processLocation(EngineState &S, size_t LocIdx, Scratch &W) {
  const HBIndex &HBI = *S.HBI;
  const Candidate &Cand = S.Candidates->Locs[LocIdx];
  const AccessEvent *const *All = S.Candidates->Accesses.data();
  LocationResult &LR = S.Results[LocIdx];

  std::vector<const AccessEvent *> Accesses =
      mergeByLockRegion({All + Cand.Begin, All + Cand.End}, W.Regions,
                        LR.Merged);

  // Group into equivalence classes, in first-occurrence order. The access
  // vector ascends by (thread, position), so classes of different threads
  // never interleave: for I < J with different threads, every member of
  // class I has a smaller global index than every member of class J —
  // which is what lets a rectangle's minimum rank be read off the class
  // prefixes below. Class keys pack (thread, segment) and (lockset,
  // is-write) into two words.
  std::vector<AccessClass> Classes;
  W.ClassKeys.clear();
  for (uint32_t K = 0; K < Accesses.size(); ++K) {
    const AccessEvent *E = Accesses[K];
    unsigned Seg = HBI.segmentOf(E->Thread, E->Pos);
    auto [CI, New] =
        W.ClassKeys.insert({(uint64_t(E->Thread) << 32) | Seg,
                            (uint64_t(E->Lockset) << 1) | E->IsWrite});
    if (New) {
      AccessClass &C = Classes.emplace_back();
      C.Thread = E->Thread;
      C.Row = HBI.rowOf(E->Thread, Seg);
      C.Lockset = E->Lockset;
      C.IsWrite = E->IsWrite;
    }
    AccessClass &C = Classes[CI];
    C.Pos.push_back(E->Pos);
    C.Idx.push_back(K);
    C.Ev.push_back(E);
  }

  // Minimum-rank racy pair per statement pair of this location:
  // W.StmtPairs numbers each statement pair by its entry in LR.Pending.
  W.StmtPairs.clear();
  for (size_t I = 0; I < Classes.size(); ++I) {
    for (size_t J = I + 1; J < Classes.size(); ++J) {
      AccessClass &A = Classes[I];
      AccessClass &B = Classes[J];
      if (A.Thread == B.Thread)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      uint64_t N = uint64_t(A.Pos.size()) * B.Pos.size();
      LR.PairsChecked += N;
      LR.LocksetChecks += N;
      if (W.intersect(A.Lockset, B.Lockset))
        continue;
      // hb(a, b) is false exactly for b before R12; the scan issues its
      // second query hb(b, a) for exactly those pairs.
      uint32_t R12 = HBI.reach(A.Row, B.Thread);
      size_t Cut12 = std::lower_bound(B.Pos.begin(), B.Pos.end(), R12) -
                     B.Pos.begin();
      LR.HBQueries += N + uint64_t(A.Pos.size()) * Cut12;
      if (Cut12 == 0)
        continue;
      uint32_t R21 = HBI.reach(B.Row, A.Thread);
      size_t Cut21 = std::lower_bound(A.Pos.begin(), A.Pos.end(), R21) -
                     A.Pos.begin();
      if (Cut21 == 0)
        continue;
      // Racy rectangle: prefix(A, Cut21) x prefix(B, Cut12). For each
      // statement pair, its minimum-rank racy pair uses the first
      // occurrence of each statement within the prefixes.
      for (const auto &[RankA, EA] : A.stmts(W.Stmts)) {
        if (RankA >= Cut21)
          break;
        for (const auto &[RankB, EB] : B.stmts(W.Stmts)) {
          if (RankB >= Cut12)
            break;
          uint64_t Rank = (uint64_t(A.Idx[RankA]) << 32) | B.Idx[RankB];
          uint64_t Key = stmtPairKey(EA->S, EB->S);
          auto [P, New] = W.StmtPairs.insert(Key);
          if (New)
            LR.Pending.push_back({Key, Rank, EA, EB});
          else if (Rank < LR.Pending[P].Rank)
            LR.Pending[P] = {Key, Rank, EA, EB};
        }
      }
    }
  }
}

/// Worker body: pull locations from the cursor until exhausted. Runs on
/// the caller and on every pool task; each participant owns its scratch.
void participate(const std::shared_ptr<EngineState> &S) {
  Scratch W(*S->SHB, S->Matrix);
  for (;;) {
    size_t I = S->Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= S->NumLocations)
      return;
    if (!S->CancelFlag.load(std::memory_order_relaxed)) {
      if (pollCancelled(S->Opts->Cancel))
        S->CancelFlag.store(true, std::memory_order_relaxed);
      else
        processLocation(*S, I, W);
    }
    std::lock_guard<std::mutex> Lock(S->Mutex);
    if (--S->Remaining == 0)
      S->DoneCV.notify_all();
  }
}

} // namespace

RaceReport o2::detectRaces(const PTAResult &PTA, const SHBGraph &SHB,
                           const RaceDetectorOptions &Opts) {
  RaceReport R;
  StatisticRegistry &Stats = R.Stats;
  CandidateList Candidates = collectCandidates(PTA, SHB, Opts, Stats);
  if (Candidates.Locs.empty()) {
    Stats.set("race.races", 0);
    return R;
  }

  // The indexes every shard shares, immutable once built. A prebuilt
  // index (the AnalysisManager's HBIndex pass) is used as-is.
  std::unique_ptr<HBIndex> OwnedHBI;
  const HBIndex *HBI = Opts.Index;
  if (!HBI) {
    OwnedHBI = std::make_unique<HBIndex>(SHB);
    HBI = OwnedHBI.get();
  }
  Stats.set("race.hb-index-segments", HBI->numSegments());
  std::unique_ptr<LocksetMatrix> Matrix;
  if (SHB.numLocksets() <= Opts.LocksetMatrixMaxSize)
    Matrix = std::make_unique<LocksetMatrix>(SHB);

  size_t N = Candidates.Locs.size();
  auto S = std::make_shared<EngineState>();
  S->Candidates = &Candidates;
  S->SHB = &SHB;
  S->HBI = HBI;
  S->Matrix = Matrix.get();
  S->Opts = &Opts;
  S->Results.resize(N);
  S->NumLocations = N;
  S->Remaining = N;

  unsigned HW = std::thread::hardware_concurrency();
  unsigned P = Opts.Jobs ? Opts.Jobs : (HW ? HW : 1);
  unsigned Helpers = 0;
  std::unique_ptr<ThreadPool> Owned;
  ThreadPool *Pool = nullptr;
  if (N >= Opts.MinParallelLocations && P > 1) {
    if (Opts.Pool) {
      Pool = Opts.Pool;
      Helpers = std::min(Pool->numThreads(), P - 1);
    } else {
      Owned = std::make_unique<ThreadPool>(P - 1);
      Pool = Owned.get();
      Helpers = P - 1;
    }
    Helpers = std::min<size_t>(Helpers, N - 1);
  }
  for (unsigned I = 0; I < Helpers; ++I)
    Pool->submit([S] { participate(S); });

  // The caller always participates, so progress never depends on pool
  // capacity (an external pool may be saturated with other modules).
  participate(S);
  {
    std::unique_lock<std::mutex> Lock(S->Mutex);
    S->DoneCV.wait(Lock, [&] { return S->Remaining == 0; });
  }

  // Canonical-order fold, one sort. The scan reports each statement pair
  // once, from the first candidate location racing on it; sorting every
  // pending race by (key, location index) puts that race first in its run
  // of equal keys, where std::unique keeps it. Keys order as (A.id, B.id),
  // so the races come out in report order.
  uint64_t Pairs = 0, Locksets = 0, HBQueries = 0, Merged = 0;
  size_t Total = 0;
  for (const LocationResult &LR : S->Results) {
    Pairs += LR.PairsChecked;
    Locksets += LR.LocksetChecks;
    HBQueries += LR.HBQueries;
    Merged += LR.Merged;
    Total += LR.Pending.size();
  }
  std::vector<PendingRace> All;
  All.reserve(Total);
  for (size_t L = 0; L < N; ++L) {
    for (const PendingRace &P : S->Results[L].Pending)
      All.push_back({P.Key, L, P.A, P.B});
    std::vector<PendingRace>().swap(S->Results[L].Pending);
  }
  std::sort(All.begin(), All.end(), [](const auto &X, const auto &Y) {
    return std::pair(X.Key, X.Rank) < std::pair(Y.Key, Y.Rank);
  });
  All.erase(std::unique(All.begin(), All.end(),
                        [](const auto &X, const auto &Y) {
                          return X.Key == Y.Key;
                        }),
            All.end());
  std::vector<Race> Races;
  Races.reserve(All.size());
  for (const PendingRace &P : All)
    Races.push_back(makeRace(Candidates.Locs[P.Rank].Loc, *P.A, *P.B));
  // Counters materialize only once charged (create-on-first-add).
  if (Merged)
    Stats.add("race.merged-accesses", Merged);
  if (Pairs)
    Stats.add("race.pairs-checked", Pairs);
  if (Locksets)
    Stats.add("race.lockset-checks", Locksets);
  if (HBQueries)
    Stats.add("race.hb-queries", HBQueries);

  R.Races = std::move(Races);
  R.Cancelled = S->CancelFlag.load(std::memory_order_relaxed);
  Stats.set("race.races", R.Races.size());
  if (R.Cancelled)
    Stats.set("race.cancelled", 1);
  return R;
}

void RaceReport::print(OutputStream &OS, const PTAResult &PTA) const {
  OS << "==== " << Races.size() << " race(s) ====\n";
  for (const Race &Rc : Races) {
    OS << "race on " << Rc.Loc.toString(PTA) << ":\n";
    OS << "  " << (Rc.AIsWrite ? "write" : "read ") << " '"
       << printStmt(*Rc.A) << "' in "
       << Rc.A->getFunction()->getName() << " [thread " << Rc.ThreadA
       << "]\n";
    OS << "  " << (Rc.BIsWrite ? "write" : "read ") << " '"
       << printStmt(*Rc.B) << "' in "
       << Rc.B->getFunction()->getName() << " [thread " << Rc.ThreadB
       << "]\n";
  }
}

void RaceReport::printJSON(OutputStream &OS, const PTAResult &PTA) const {
  JSONWriter W(OS);
  W.beginObject();
  W.key("races");
  W.beginArray();
  for (const Race &Rc : Races) {
    W.beginObject();
    W.attribute("location", Rc.Loc.toString(PTA));
    W.key("first");
    W.beginObject();
    W.attribute("stmt", printStmt(*Rc.A));
    W.attribute("function", Rc.A->getFunction()->getName());
    W.attribute("thread", Rc.ThreadA);
    W.attribute("write", Rc.AIsWrite);
    W.endObject();
    W.key("second");
    W.beginObject();
    W.attribute("stmt", printStmt(*Rc.B));
    W.attribute("function", Rc.B->getFunction()->getName());
    W.attribute("thread", Rc.ThreadB);
    W.attribute("write", Rc.BIsWrite);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("stats");
  W.beginObject();
  for (const auto &[Name, Value] : Stats.counters())
    W.attribute(Name, Value);
  W.endObject();
  W.endObject();
  OS << '\n';
}

RaceReport o2::detectRaces(const PTAResult &PTA,
                           const RaceDetectorOptions &Opts) {
  SHBGraph SHB = buildSHBGraph(PTA, Opts.SHB);
  return detectRaces(PTA, SHB, Opts);
}
