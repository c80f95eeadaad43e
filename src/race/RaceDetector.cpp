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
//     shard-locally, and the shards are folded in canonical location
//     order through one global dedup set.
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
#include "o2/Support/BitVector.h"
#include "o2/Support/Casting.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace o2;

namespace {

/// Sorted candidate list: each shared location with all accesses to it,
/// in (thread, position) order — threads ascend, positions strictly
/// ascend per thread (trace order). The class math relies on this order.
using CandidateList =
    std::vector<std::pair<MemLoc, std::vector<const AccessEvent *>>>;

/// Classifies locations as `atomic` synchronization (excluded from race
/// candidates) with the class-hierarchy field walk memoized per
/// (class type, field key), so the supers chain is walked once per
/// distinct field instead of once per aliasing location.
class AtomicLocFilter {
public:
  explicit AtomicLocFilter(const PTAResult &PTA) : PTA(PTA) {}

  bool isAtomic(MemLoc Loc) {
    if (Loc.isGlobal())
      return PTA.module().globals()[Loc.globalId()]->isAtomic();
    FieldKey FK = Loc.fieldKey();
    if (FK == ArrayElemKey)
      return false;
    const ObjInfo &O = PTA.object(Loc.object());
    const auto *Cls = dyn_cast<ClassType>(O.AllocatedType);
    if (!Cls)
      return false;
    uint64_t Key = (uint64_t(reinterpret_cast<uintptr_t>(Cls)) << 12) ^ FK;
    auto It = Cache.find(Key);
    if (It != Cache.end())
      return It->second;
    bool Atomic = false, Found = false;
    for (const ClassType *C = Cls; C && !Found; C = C->getSuper())
      for (const auto &F : C->fields())
        if (fieldKeyOf(F.get()) == FK) {
          Atomic = F->isAtomic();
          Found = true;
          break;
        }
    Cache.emplace(Key, Atomic);
    return Atomic;
  }

private:
  const PTAResult &PTA;
  /// (class pointer, field key) -> is-atomic. Pointer identity is stable
  /// for the module's lifetime; the shift leaves the low bits to the
  /// field key (class objects are heap-allocated, so the low pointer
  /// bits carry little entropy anyway).
  std::unordered_map<uint64_t, bool> Cache;
};

/// Shared-location filter over the traces: a location is a candidate if
/// at least two threads access it and at least one writes (and it is not
/// an atomic, when those are handled). Returns the sorted candidate list
/// and records the corpus-shape statistics.
CandidateList collectCandidates(const PTAResult &PTA, const SHBGraph &SHB,
                                const RaceDetectorOptions &Opts,
                                StatisticRegistry &Stats) {
  struct LocInfo {
    BitVector ReadThreads;
    BitVector WriteThreads;
    std::vector<const AccessEvent *> Accesses;
  };
  std::unordered_map<MemLoc, LocInfo> Infos;
  for (const ThreadInfo &T : SHB.threads()) {
    for (const AccessEvent &E : T.Accesses) {
      for (const MemLoc &Loc : E.Locs) {
        LocInfo &I = Infos[Loc];
        if (E.IsWrite)
          I.WriteThreads.set(E.Thread);
        else
          I.ReadThreads.set(E.Thread);
        I.Accesses.push_back(&E);
      }
    }
  }
  AtomicLocFilter Atomics(PTA);
  CandidateList Candidates;
  std::unordered_set<unsigned> SharedObjects;
  for (auto &[Loc, I] : Infos) {
    if (Opts.HandleAtomics && Atomics.isAtomic(Loc))
      continue;
    // Shared as OSA defines it (LocAccessSets::isShared), over threads:
    // a writer, and at least two accessing threads.
    if (I.WriteThreads.none() ||
        BitVector::unionCount(I.ReadThreads, I.WriteThreads, 2) < 2)
      continue;
    if (!Loc.isGlobal())
      SharedObjects.insert(Loc.object());
    Candidates.emplace_back(Loc, std::move(I.Accesses));
  }
  // Hashed iteration order is arbitrary: sort once so sharding and report
  // order stay deterministic.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Stats.set("race.shared-locations", Candidates.size());
  Stats.set("race.shared-objects", SharedObjects.size());
  Stats.set("race.threads", SHB.numThreads());
  Stats.set("race.access-events", SHB.numAccessEvents());
  return Candidates;
}

/// Dedup key for lock-region merging: ⟨thread, lock region⟩ and
/// ⟨lockset, is-write⟩, each packed into one word.
struct MergedRegionKey {
  uint64_t ThreadRegion;
  uint64_t LocksetWrite;
  bool operator==(const MergedRegionKey &RHS) const {
    return ThreadRegion == RHS.ThreadRegion && LocksetWrite == RHS.LocksetWrite;
  }
};
struct MergedRegionKeyHash {
  size_t operator()(const MergedRegionKey &K) const {
    uint64_t H = K.ThreadRegion * 0x9e3779b97f4a7c15ull;
    H ^= K.LocksetWrite + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

/// Optimization 3: within one thread, all accesses to one location inside
/// the same sync-free lock region with the same lockset have identical
/// happens-before and lockset behaviour — keep one representative.
/// Preserves input order; \p MergedOut is incremented once per dropped
/// access (the "race.merged-accesses" statistic).
std::vector<const AccessEvent *>
mergeByLockRegion(const std::vector<const AccessEvent *> &In,
                  uint64_t &MergedOut) {
  std::vector<const AccessEvent *> Out;
  // (thread, region) and (lockset, is-write) packed into two words; output
  // keeps the input order, so the hashed dedup stays deterministic.
  std::unordered_set<MergedRegionKey, MergedRegionKeyHash> Seen;
  for (const AccessEvent *E : In) {
    if (E->LockRegion == 0 || E->RegionHasSync) {
      Out.push_back(E);
      continue;
    }
    MergedRegionKey Key{(uint64_t(E->Thread) << 32) | E->LockRegion,
                        (uint64_t(E->Lockset) << 1) | E->IsWrite};
    if (Seen.insert(Key).second)
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
  Race Rc;
  Rc.Loc = Loc;
  Rc.A = EA->S;
  Rc.B = EB->S;
  Rc.ThreadA = EA->Thread;
  Rc.ThreadB = EB->Thread;
  Rc.AIsWrite = EA->IsWrite;
  Rc.BIsWrite = EB->IsWrite;
  return Rc;
}

/// One statement pair a location wants to report: the minimum-rank racy
/// access pair with that statement pair, payload prebuilt.
struct PendingRace {
  uint64_t Rank; ///< (lower global index << 32) | higher global index.
  uint64_t Key;  ///< stmtPairKey of the two statements.
  Race Rc;
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

  size_t size() const { return Pos.size(); }

  const std::vector<std::pair<uint32_t, const AccessEvent *>> &stmts() {
    if (!StmtsBuilt) {
      StmtsBuilt = true;
      std::unordered_set<const Stmt *> Seen;
      for (uint32_t R = 0; R < Ev.size(); ++R)
        if (Seen.insert(Ev[R]->S).second)
          Stmts.emplace_back(R, Ev[R]);
    }
    return Stmts;
  }
};

/// Class key: (thread, segment) and (lockset, is-write), packed.
struct ClassKey {
  uint64_t ThreadSeg;
  uint64_t LocksetWrite;
  bool operator==(const ClassKey &RHS) const {
    return ThreadSeg == RHS.ThreadSeg && LocksetWrite == RHS.LocksetWrite;
  }
};
struct ClassKeyHash {
  size_t operator()(const ClassKey &K) const {
    uint64_t H = K.ThreadSeg * 0x9e3779b97f4a7c15ull;
    H ^= K.LocksetWrite + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

/// Per-participant lockset intersection: the precomputed matrix when
/// available, otherwise a shard-local memo over SHBGraph's merge test.
struct LocksetLookup {
  const SHBGraph &SHB;
  const LocksetMatrix *Matrix;
  std::unordered_map<uint64_t, bool> Cache;

  bool intersect(LocksetId A, LocksetId B) {
    if (Matrix)
      return Matrix->intersect(A, B);
    uint64_t K = A < B ? (uint64_t(A) << 32) | B : (uint64_t(B) << 32) | A;
    auto It = Cache.find(K);
    if (It != Cache.end())
      return It->second;
    bool R = SHB.locksetsIntersect(A, B);
    Cache.emplace(K, R);
    return R;
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

void processLocation(EngineState &S, size_t LocIdx, LocksetLookup &Locksets) {
  const HBIndex &HBI = *S.HBI;
  const auto &[Loc, AllAccesses] = (*S.Candidates)[LocIdx];
  LocationResult &LR = S.Results[LocIdx];

  std::vector<const AccessEvent *> Accesses =
      mergeByLockRegion(AllAccesses, LR.Merged);

  // Group into equivalence classes, in first-occurrence order. The access
  // vector ascends by (thread, position), so classes of different threads
  // never interleave: for I < J with different threads, every member of
  // class I has a smaller global index than every member of class J —
  // which is what lets a rectangle's minimum rank be read off the class
  // prefixes below.
  std::vector<AccessClass> Classes;
  std::unordered_map<ClassKey, size_t, ClassKeyHash> ByKey;
  for (uint32_t K = 0; K < Accesses.size(); ++K) {
    const AccessEvent *E = Accesses[K];
    unsigned Seg = HBI.segmentOf(E->Thread, E->Pos);
    ClassKey Key{(uint64_t(E->Thread) << 32) | Seg,
                 (uint64_t(E->Lockset) << 1) | E->IsWrite};
    auto [It, New] = ByKey.try_emplace(Key, Classes.size());
    if (New) {
      AccessClass C;
      C.Thread = E->Thread;
      C.Row = HBI.rowOf(E->Thread, Seg);
      C.Lockset = E->Lockset;
      C.IsWrite = E->IsWrite;
      Classes.push_back(std::move(C));
    }
    AccessClass &C = Classes[It->second];
    C.Pos.push_back(E->Pos);
    C.Idx.push_back(K);
    C.Ev.push_back(E);
  }

  // Minimum-rank racy pair per statement pair of this location.
  std::unordered_map<uint64_t, PendingRace> Wanted;

  for (size_t I = 0; I < Classes.size(); ++I) {
    for (size_t J = I + 1; J < Classes.size(); ++J) {
      AccessClass &A = Classes[I];
      AccessClass &B = Classes[J];
      if (A.Thread == B.Thread)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      uint64_t N = uint64_t(A.size()) * B.size();
      LR.PairsChecked += N;
      LR.LocksetChecks += N;
      if (Locksets.intersect(A.Lockset, B.Lockset))
        continue;
      // hb(a, b) is false exactly for b before R12; the scan issues its
      // second query hb(b, a) for exactly those pairs.
      uint32_t R12 = HBI.reach(A.Row, B.Thread);
      size_t Cut12 = std::lower_bound(B.Pos.begin(), B.Pos.end(), R12) -
                     B.Pos.begin();
      LR.HBQueries += N + uint64_t(A.size()) * Cut12;
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
      for (const auto &[RankA, EA] : A.stmts()) {
        if (RankA >= Cut21)
          break;
        for (const auto &[RankB, EB] : B.stmts()) {
          if (RankB >= Cut12)
            break;
          uint64_t Rank = (uint64_t(A.Idx[RankA]) << 32) | B.Idx[RankB];
          uint64_t Key = stmtPairKey(EA->S, EB->S);
          auto [It, New] =
              Wanted.try_emplace(Key, PendingRace{Rank, Key, Race{}});
          if (New || Rank < It->second.Rank) {
            It->second.Rank = Rank;
            It->second.Rc = makeRace(Loc, *EA, *EB);
          }
        }
      }
    }
  }

  LR.Pending.reserve(Wanted.size());
  for (auto &[Key, P] : Wanted)
    LR.Pending.push_back(std::move(P));
  std::sort(LR.Pending.begin(), LR.Pending.end(),
            [](const PendingRace &X, const PendingRace &Y) {
              return X.Rank < Y.Rank;
            });
}

/// Worker body: pull locations from the cursor until exhausted. Runs on
/// the caller and on every pool task; each participant owns a lockset
/// memo of its own.
void participate(const std::shared_ptr<EngineState> &S) {
  LocksetLookup Locksets{*S->SHB, S->Matrix, {}};
  for (;;) {
    size_t I = S->Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= S->NumLocations)
      return;
    if (!S->CancelFlag.load(std::memory_order_relaxed)) {
      if (pollCancelled(S->Opts->Cancel))
        S->CancelFlag.store(true, std::memory_order_relaxed);
      else
        processLocation(*S, I, Locksets);
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
  if (Candidates.empty()) {
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

  size_t N = Candidates.size();
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

  // Canonical-order fold: identical to the scan's global statement-pair
  // dedup because locations are visited in sorted order and each
  // location's pending races carry their scan rank.
  uint64_t Pairs = 0, Locksets = 0, HBQueries = 0, Merged = 0;
  std::unordered_set<uint64_t> Reported;
  std::vector<Race> Races;
  for (LocationResult &LR : S->Results) {
    Pairs += LR.PairsChecked;
    Locksets += LR.LocksetChecks;
    HBQueries += LR.HBQueries;
    Merged += LR.Merged;
    for (PendingRace &P : LR.Pending)
      if (Reported.insert(P.Key).second)
        Races.push_back(P.Rc);
  }
  // Counters materialize only once charged (create-on-first-add).
  if (Merged)
    Stats.add("race.merged-accesses", Merged);
  if (Pairs)
    Stats.add("race.pairs-checked", Pairs);
  if (Locksets)
    Stats.add("race.lockset-checks", Locksets);
  if (HBQueries)
    Stats.add("race.hb-queries", HBQueries);

  std::sort(Races.begin(), Races.end(), [](const Race &X, const Race &Y) {
    if (X.A->getId() != Y.A->getId())
      return X.A->getId() < Y.A->getId();
    return X.B->getId() < Y.B->getId();
  });
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
