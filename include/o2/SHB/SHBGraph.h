//===- o2/SHB/SHBGraph.h - Static happens-before graph -----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static happens-before (SHB) graph of Section 4 (Table 4), built
/// over any pointer-analysis result:
///
///  - One abstract thread per spawn-target instance (plus main); origins
///    map 1:1 onto abstract threads under OPA.
///  - Intra-thread happens-before is represented by monotonically
///    increasing integer positions instead of explicit edges
///    (optimization 1 of Section 4.1): checking order is an integer
///    comparison. Cross-thread queries go through the precomputed
///    HBIndex (o2/SHB/HBIndex.h).
///  - Locksets are interned into canonical lockset IDs (optimization 2);
///    LocksetMatrix precomputes their pairwise intersection.
///  - Lock regions are tracked so the detector can merge all accesses to
///    the same location within one region (optimization 3).
///  - Inter-thread edges exist only at spawns (entry ⇒ origin_first) and
///    joins (origin_last ⇒ join).
///
/// Event-handler threads can be serialized by an implicit global lock
/// (the paper's Android treatment, Section 4.2).
///
/// The graph is immutable once built and holds no caches, so any number
/// of threads may query it at once.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SHB_SHBGRAPH_H
#define O2_SHB_SHBGRAPH_H

#include "o2/OSA/MemLoc.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Support/InternTable.h"

#include <vector>

namespace o2 {

/// Canonical lockset handle; InternTable::Empty is the empty lockset.
using LocksetId = uint32_t;

struct SHBOptions {
  /// Serialize event-handler threads with an implicit global lock
  /// (Section 4.2: all events run on the looper thread).
  bool SerializeEventHandlers = true;

  /// Model a spawn inside a loop as two parallel thread instances.
  bool DuplicateLoopSpawns = true;

  /// Caps to keep degenerate inputs bounded.
  unsigned MaxThreads = 4096;
  uint64_t MaxEventsPerThread = 1u << 22;

  /// Optional cooperative cancellation, polled per traced statement; on
  /// expiry the builder stops and flags the partial graph. Not owned.
  const CancellationToken *Cancel = nullptr;
};

/// One read or write of a set of abstract memory locations.
struct AccessEvent {
  uint32_t Pos = 0;        ///< Intra-thread position (integer HB).
  uint32_t Thread = 0;
  const Stmt *S = nullptr;
  LocksetId Lockset = 0;
  uint32_t LockRegion = 0; ///< 0 = outside any lock region.
  bool IsWrite = false;
  /// The region contained a spawn/join, so region merging is unsound for
  /// it and the detector must not collapse its accesses.
  bool RegionHasSync = false;
  SmallVector<MemLoc, 2> Locs;
};

/// One lock acquisition, with the locks already held at that point.
/// Feeds the lock-order (deadlock) analysis.
struct AcquireEvent {
  uint32_t Pos = 0;
  uint32_t Thread = 0;
  const Stmt *S = nullptr;
  /// Canonical lockset held BEFORE this acquire.
  LocksetId HeldBefore = 0;
  /// Lock elements this acquire may take (points-to of the lock var).
  SmallVector<uint32_t, 2> Acquired;
  /// The lock region this acquire opens (matches AccessEvent::LockRegion).
  uint32_t Region = 0;
};

/// One abstract thread (origin instance).
struct ThreadInfo {
  unsigned Id = 0;
  OriginKind Kind = OriginKind::Main;
  const Function *Entry = nullptr;
  Ctx EntryCtx = 0;
  const SpawnStmt *Spawn = nullptr; ///< Creating spawn; null for main.
  unsigned RecvObj = ~0u;           ///< Receiver (origin) object; ~0u main.
  unsigned Dup = 0;                 ///< Loop-duplication index.
  uint32_t NumEvents = 0;           ///< Total positions in the trace.
  bool Truncated = false;           ///< Event cap hit.

  /// Inter-thread edges. Starts: (parent thread, parent position) pairs
  /// whose spawn begins this thread. SpawnEdges: (position, child) pairs
  /// for spawns performed by this thread. Joins: (joining thread,
  /// position) pairs this thread's end is ordered before.
  std::vector<std::pair<unsigned, uint32_t>> Starts;
  std::vector<std::pair<uint32_t, unsigned>> SpawnEdges;
  std::vector<std::pair<unsigned, uint32_t>> Joins;

  std::vector<AccessEvent> Accesses;
  std::vector<AcquireEvent> Acquires;
};

class SHBGraph {
public:
  const std::vector<ThreadInfo> &threads() const { return Threads; }
  const ThreadInfo &thread(unsigned Id) const { return Threads[Id]; }
  unsigned numThreads() const { return static_cast<unsigned>(Threads.size()); }

  /// Total number of access events across all threads.
  uint64_t numAccessEvents() const;

  /// Lock elements (object IDs; may include the implicit UI-lock element)
  /// of a canonical lockset.
  ArrayRef<uint32_t> locksetElems(LocksetId L) const {
    return Locksets.get(L);
  }

  /// Number of interned canonical locksets (valid LocksetIds are
  /// [0, numLocksets()); 0 is the empty lockset).
  size_t numLocksets() const { return Locksets.size(); }

  /// True if the two locksets share a lock: a linear merge over their
  /// sorted canonical element lists.
  bool locksetsIntersect(LocksetId A, LocksetId B) const;

  /// The implicit lock element serializing event handlers.
  static constexpr uint32_t UILockElem = 0xfffffffeu;

  /// True if construction was cancelled (the graph covers a prefix of the
  /// threads/events).
  bool cancelled() const { return Cancelled; }

  /// True if the module has no main() entry point: the graph is empty
  /// (no threads — nothing executes, so no races). The verifier catches
  /// this up front; the flag exists for callers that skip verification.
  bool entryMissing() const { return EntryMissing; }

private:
  friend class SHBBuilder;

  bool Cancelled = false;
  bool EntryMissing = false;
  std::vector<ThreadInfo> Threads;
  InternTable Locksets;
};

/// Builds the SHB graph from a pointer-analysis result.
SHBGraph buildSHBGraph(const PTAResult &PTA, const SHBOptions &Opts = {});

/// Graphviz dump of the thread/spawn/join structure (one node per
/// abstract thread; spawn edges solid, join edges dashed).
void printSHBDot(const SHBGraph &SHB, OutputStream &OS);

} // namespace o2

#endif // O2_SHB_SHBGRAPH_H
