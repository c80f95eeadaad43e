//===- SHBGraph.cpp - Static happens-before graph -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/SHB/SHBGraph.h"

#include "o2/Support/Casting.h"
#include "o2/Support/OutputStream.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_set>

using namespace o2;

//===----------------------------------------------------------------------===//
// SHBGraph queries
//===----------------------------------------------------------------------===//

uint64_t SHBGraph::numAccessEvents() const {
  uint64_t N = 0;
  for (const ThreadInfo &T : Threads)
    N += T.Accesses.size();
  return N;
}

bool SHBGraph::locksetsIntersect(LocksetId A, LocksetId B) const {
  if (A == InternTable::Empty || B == InternTable::Empty)
    return false;
  // Elements are interned in sorted order: linear merge.
  ArrayRef<uint32_t> EA = Locksets.get(A);
  ArrayRef<uint32_t> EB = Locksets.get(B);
  size_t I = 0, J = 0;
  while (I < EA.size() && J < EB.size()) {
    if (EA[I] == EB[J])
      return true;
    if (EA[I] < EB[J])
      ++I;
    else
      ++J;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// SHB construction
//===----------------------------------------------------------------------===//

namespace o2 {

class SHBBuilder {
public:
  SHBBuilder(const PTAResult &PTA, const SHBOptions &Opts)
      : PTA(PTA), Opts(Opts) {}

  SHBGraph build() {
    // Main thread.
    const Function *Main = PTA.module().getMain();
    if (!Main) {
      // Only reachable when the caller skipped verification (the
      // verifier rejects main-less modules up front). An empty graph is
      // sound — no threads means nothing executes and no races — and
      // beats aborting a release-build fleet.
      G.EntryMissing = true;
      return std::move(G);
    }
    G.Threads.emplace_back();
    G.Threads[0].Entry = Main;
    Queue.push_back(0);

    while (!Queue.empty() && !G.Cancelled) {
      unsigned T = Queue.front();
      Queue.pop_front();
      traceThread(T);
    }
    resolveJoins();
    return std::move(G);
  }

private:
  struct WalkState {
    unsigned Thread;
    uint32_t Pos = 0;
    /// Lock elements per open acquire, innermost last.
    std::vector<SmallVector<uint32_t, 2>> LockStack;
    /// Implicit base lock elements (event-handler serialization).
    SmallVector<uint32_t, 1> BaseLocks;
    LocksetId CurLockset = InternTable::Empty;
    std::vector<uint32_t> RegionStack;
    std::unordered_set<uint64_t> Inlined;
    bool Truncated = false;
  };

  /// Joins recorded during tracing, resolved once all threads exist.
  struct JoinRecord {
    unsigned Thread;
    uint32_t Pos;
    BitVector RecvObjs;
  };

  void traceThread(unsigned T) {
    WalkState S;
    S.Thread = T;
    if (Opts.SerializeEventHandlers &&
        G.Threads[T].Kind == OriginKind::Event)
      S.BaseLocks.push_back(SHBGraph::UILockElem);
    recomputeLockset(S);
    const Function *Entry = G.Threads[T].Entry;
    Ctx EntryCtx = G.Threads[T].EntryCtx;
    visit(Entry, EntryCtx, S);
    G.Threads[T].NumEvents = S.Pos;
    G.Threads[T].Truncated = S.Truncated;
    // Retroactively flag accesses whose region saw a spawn/join.
    for (AccessEvent &A : G.Threads[T].Accesses)
      if (A.LockRegion != 0 && SyncRegions.count(A.LockRegion))
        A.RegionHasSync = true;
  }

  void recomputeLockset(WalkState &S) {
    SmallVector<uint32_t, 8> Elems(S.BaseLocks.begin(), S.BaseLocks.end());
    for (const auto &Held : S.LockStack)
      Elems.append(Held.begin(), Held.end());
    std::sort(Elems.begin(), Elems.end());
    Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
    S.CurLockset = G.Locksets.intern(Elems);
  }

  void markOpenRegionsSynced(const WalkState &S) {
    for (uint32_t Region : S.RegionStack)
      SyncRegions.insert(Region);
  }

  void recordAccess(WalkState &S, const Stmt &Stm, const Variable *Base,
                    FieldKey FK, Ctx C, bool IsWrite) {
    const BitVector *Pts = PTA.pts(Base, C);
    if (!Pts || Pts->none())
      return;
    AccessEvent E;
    E.Pos = S.Pos;
    E.Thread = S.Thread;
    E.S = &Stm;
    E.Lockset = S.CurLockset;
    E.LockRegion = S.RegionStack.empty() ? 0 : S.RegionStack.back();
    E.IsWrite = IsWrite;
    for (unsigned Obj : *Pts)
      E.Locs.push_back(MemLoc::field(Obj, FK));
    G.Threads[S.Thread].Accesses.push_back(std::move(E));
  }

  void recordGlobalAccess(WalkState &S, const Stmt &Stm, const Global *Gl,
                          bool IsWrite) {
    AccessEvent E;
    E.Pos = S.Pos;
    E.Thread = S.Thread;
    E.S = &Stm;
    E.Lockset = S.CurLockset;
    E.LockRegion = S.RegionStack.empty() ? 0 : S.RegionStack.back();
    E.IsWrite = IsWrite;
    E.Locs.push_back(MemLoc::global(Gl->getId()));
    G.Threads[S.Thread].Accesses.push_back(std::move(E));
  }

  void visit(const Function *F, Ctx C, WalkState &S) {
    if (S.Truncated || S.Pos >= Opts.MaxEventsPerThread) {
      S.Truncated = true;
      return;
    }
    if (!S.Inlined.insert((uint64_t(F->getId()) << 32) | C).second)
      return;

    for (const auto &StmtPtr : F->body()) {
      const Stmt &Stm = *StmtPtr;
      if (pollCancelled(Opts.Cancel)) {
        G.Cancelled = true;
        S.Truncated = true;
        return;
      }
      if (S.Pos >= Opts.MaxEventsPerThread) {
        S.Truncated = true;
        return;
      }
      switch (Stm.getKind()) {
      case Stmt::SK_FieldLoad: {
        const auto &L = cast<FieldLoadStmt>(Stm);
        recordAccess(S, Stm, L.getBase(), fieldKeyOf(L.getField()), C,
                     /*IsWrite=*/false);
        break;
      }
      case Stmt::SK_FieldStore: {
        const auto &St = cast<FieldStoreStmt>(Stm);
        recordAccess(S, Stm, St.getBase(), fieldKeyOf(St.getField()), C,
                     /*IsWrite=*/true);
        break;
      }
      case Stmt::SK_ArrayLoad:
        recordAccess(S, Stm, cast<ArrayLoadStmt>(Stm).getBase(), ArrayElemKey,
                     C, /*IsWrite=*/false);
        break;
      case Stmt::SK_ArrayStore:
        recordAccess(S, Stm, cast<ArrayStoreStmt>(Stm).getBase(),
                     ArrayElemKey, C, /*IsWrite=*/true);
        break;
      case Stmt::SK_GlobalLoad:
        recordGlobalAccess(S, Stm, cast<GlobalLoadStmt>(Stm).getGlobal(),
                           /*IsWrite=*/false);
        break;
      case Stmt::SK_GlobalStore:
        recordGlobalAccess(S, Stm, cast<GlobalStoreStmt>(Stm).getGlobal(),
                           /*IsWrite=*/true);
        break;
      case Stmt::SK_Acquire: {
        const auto &A = cast<AcquireStmt>(Stm);
        SmallVector<uint32_t, 2> Elems;
        if (const BitVector *Pts = PTA.pts(A.getLock(), C))
          for (unsigned Obj : *Pts)
            Elems.push_back(Obj);
        AcquireEvent AE;
        AE.Pos = S.Pos;
        AE.Thread = S.Thread;
        AE.S = &Stm;
        AE.HeldBefore = S.CurLockset;
        AE.Acquired = Elems;
        AE.Region = ++NextRegion;
        G.Threads[S.Thread].Acquires.push_back(std::move(AE));
        S.LockStack.push_back(std::move(Elems));
        S.RegionStack.push_back(NextRegion);
        recomputeLockset(S);
        break;
      }
      case Stmt::SK_Release:
        // The verifier guarantees balance per function body.
        if (!S.LockStack.empty()) {
          S.LockStack.pop_back();
          S.RegionStack.pop_back();
          recomputeLockset(S);
        }
        break;
      case Stmt::SK_Alloc:
      case Stmt::SK_Call:
        for (const CallTarget &T : PTA.callTargets(&Stm, C)) {
          ++S.Pos; // the call node itself
          visit(T.Callee, T.CalleeCtx, S);
        }
        break;
      case Stmt::SK_Spawn: {
        markOpenRegionsSynced(S);
        const auto &Sp = cast<SpawnStmt>(Stm);
        const auto &Targets = PTA.callTargets(&Stm, C);
        // Origin loop-duplication already models this spawn's parallelism
        // when any target receiver is a duplicated origin object.
        bool TargetsDuplicated = false;
        for (const CallTarget &T : Targets)
          TargetsDuplicated |= isAlreadyDuplicated(T);
        for (const CallTarget &T : Targets) {
          unsigned NumDups = 1;
          if (Opts.DuplicateLoopSpawns && Sp.isInLoop() && !TargetsDuplicated)
            NumDups = 2;
          for (unsigned Dup = 0; Dup != NumDups; ++Dup) {
            unsigned Child = getOrCreateThread(&Sp, C, T, Dup);
            if (Child == ~0u)
              continue;
            G.Threads[S.Thread].SpawnEdges.emplace_back(S.Pos, Child);
            G.Threads[Child].Starts.emplace_back(S.Thread, S.Pos);
          }
        }
        break;
      }
      case Stmt::SK_Join: {
        markOpenRegionsSynced(S);
        const auto &J = cast<JoinStmt>(Stm);
        if (const BitVector *Pts = PTA.pts(J.getReceiver(), C)) {
          JoinRecord Rec;
          Rec.Thread = S.Thread;
          Rec.Pos = S.Pos;
          Rec.RecvObjs = *Pts;
          JoinRecords.push_back(std::move(Rec));
        }
        break;
      }
      case Stmt::SK_ArrayAlloc:
      case Stmt::SK_Assign:
      case Stmt::SK_Return:
        break;
      }
      ++S.Pos;
    }
  }

  /// Origin-duplicated receiver objects already model loop parallelism;
  /// don't duplicate the spawn a second time.
  bool isAlreadyDuplicated(const CallTarget &T) const {
    return T.ReceiverObj != ~0u &&
           PTA.object(T.ReceiverObj).DupIndex > 0;
  }

  unsigned getOrCreateThread(const SpawnStmt *Sp, Ctx SpawnCtx,
                             const CallTarget &T, unsigned Dup) {
    std::tuple<unsigned, Ctx, const Function *, Ctx, unsigned, unsigned> Key{
        Sp->getId(), SpawnCtx, T.Callee, T.CalleeCtx, T.ReceiverObj, Dup};
    auto It = ThreadKeys.find(Key);
    if (It != ThreadKeys.end())
      return It->second;
    if (G.Threads.size() >= Opts.MaxThreads)
      return ~0u;
    unsigned Id = static_cast<unsigned>(G.Threads.size());
    G.Threads.emplace_back();
    ThreadInfo &TI = G.Threads.back();
    TI.Id = Id;
    TI.Kind = kindOfEntry(Sp->getEntryName());
    TI.Entry = T.Callee;
    TI.EntryCtx = T.CalleeCtx;
    TI.Spawn = Sp;
    TI.RecvObj = T.ReceiverObj;
    TI.Dup = Dup;
    ThreadKeys.emplace(Key, Id);
    Queue.push_back(Id);
    return Id;
  }

  OriginKind kindOfEntry(const std::string &EntryName) const {
    const OriginSpec &Spec = PTA.options().Spec;
    return Spec.isEntry(EntryName) ? Spec.kindOf(EntryName)
                                   : OriginKind::Thread;
  }

  void resolveJoins() {
    for (const JoinRecord &Rec : JoinRecords)
      for (ThreadInfo &T : G.Threads)
        if (T.RecvObj != ~0u && Rec.RecvObjs.test(T.RecvObj))
          T.Joins.emplace_back(Rec.Thread, Rec.Pos);
  }

  const PTAResult &PTA;
  SHBOptions Opts;
  SHBGraph G;
  std::deque<unsigned> Queue;
  std::map<std::tuple<unsigned, Ctx, const Function *, Ctx, unsigned, unsigned>,
           unsigned>
      ThreadKeys;
  std::vector<JoinRecord> JoinRecords;
  std::unordered_set<uint32_t> SyncRegions;
  uint32_t NextRegion = 0;
};

} // namespace o2

SHBGraph o2::buildSHBGraph(const PTAResult &PTA, const SHBOptions &Opts) {
  return SHBBuilder(PTA, Opts).build();
}

void o2::printSHBDot(const SHBGraph &SHB, OutputStream &OS) {
  OS << "digraph shb {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const ThreadInfo &T : SHB.threads()) {
    OS << "  t" << T.Id << " [label=\"T" << T.Id << ": ";
    if (T.Entry) {
      if (T.Entry->getClass())
        OS << T.Entry->getClass()->getName() << "::";
      OS << T.Entry->getName();
    }
    switch (T.Kind) {
    case OriginKind::Main:
      OS << "\\n(main)";
      break;
    case OriginKind::Thread:
      OS << "\\n(thread)";
      break;
    case OriginKind::Event:
      OS << "\\n(event)";
      break;
    }
    OS << "\\n" << uint64_t(T.Accesses.size()) << " accesses\"];\n";
  }
  for (const ThreadInfo &T : SHB.threads()) {
    for (const auto &[Pos, Child] : T.SpawnEdges)
      OS << "  t" << T.Id << " -> t" << Child << " [label=\"spawn@" << Pos
         << "\"];\n";
    for (const auto &[Joiner, Pos] : T.Joins)
      OS << "  t" << T.Id << " -> t" << Joiner << " [style=dashed, label=\"join@"
         << Pos << "\"];\n";
  }
  OS << "}\n";
}
