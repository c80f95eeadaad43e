//===- PointerAnalysis.cpp - Context-sensitive pointer analysis -------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Andersen-style inclusion-constraint solver over ⟨variable, context⟩
// nodes with an on-the-fly call graph. The context abstraction is selected
// by PTAOptions::Kind; under ContextKind::Origin this implements the
// paper's OPA (Table 2), including the inter-origin context switches at
// origin allocations (rule ❽) and origin entry invocations (rule ❾), the
// 1-call-site wrapper extension, and loop duplication of origins.
//
// Solving alternates two steps until fixpoint:
//
//   propagate  — close the current copy-edge graph (engine-specific):
//                  Worklist: FIFO worklist, object-at-a-time (baseline);
//                  Wave: collapse copy-edge SCCs via union-find, then push
//                  each node's delta once in topological order with
//                  word-level merges of sparse points-to sets.
//   applyRound — against the closed (schedule-independent) state, freeze
//                every use node's outstanding ⟨objects × loads/stores/
//                calls⟩ work, then apply it in node order, deriving new
//                edges, objects, contexts, and call targets.
//
// Because a closure of a fixed inclusion system is its unique least
// solution, the frozen state each round — and hence the whole discovery
// sequence (node, object, context, origin, and call-target creation
// order) — is independent of the propagation engine. Both engines
// therefore produce bit-identical PTAResults, which the solver-equivalence
// test (tests/pta/SolverEquivalenceTest.cpp) checks end to end.
//
//===----------------------------------------------------------------------===//

#include "o2/PTA/PointerAnalysis.h"

#include "o2/Support/Casting.h"
#include "o2/Support/SmallVector.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace o2;

std::string PTAOptions::name() const {
  switch (Kind) {
  case ContextKind::Insensitive:
    return "0-ctx";
  case ContextKind::KCallsite:
    return std::to_string(K) + "-cfa";
  case ContextKind::KObject:
    return std::to_string(K) + "-obj";
  case ContextKind::Origin:
    return std::to_string(K) + "-origin";
  }
  O2_UNREACHABLE("covered switch");
}

OriginSpec OriginSpec::standard() {
  OriginSpec Spec;
  // Paper Table 1. Thread entry points...
  Spec.addEntry("run", OriginKind::Thread);
  Spec.addEntry("call", OriginKind::Thread);
  // ... and event-handler entry points.
  Spec.addEntry("handleEvent", OriginKind::Event);
  Spec.addEntry("onReceive", OriginKind::Event);
  Spec.addEntry("actionPerformed", OriginKind::Event);
  Spec.addEntry("onMessageEvent", OriginKind::Event);
  return Spec;
}

namespace {

/// Wrapper-extension context elements carry the high bit (origin IDs and
/// call-site encodings stay below it).
constexpr uint32_t WrapperElemBit = 0x80000000u;

} // namespace

namespace o2 {
/// The constraint solver. Lives in namespace o2 (not file-local) because
/// it is the befriended builder of PTAResult.
class PTASolver {
public:
  PTASolver(const Module &M, const PTAOptions &Opts)
      : M(M), Opts(Opts), Spec(Opts.Spec) {
    R = std::make_unique<PTAResult>();
    R->M = &M;
    R->Opts = Opts;
    R->GlobalNodes.assign(M.numGlobals(), -1);
    R->OriginCtxs.push_back(InternTable::Empty); // main origin
    augmentSpecWithSpawnEntries();
    computeWrapperFunctions();
  }

  std::unique_ptr<PTAResult> run() {
    const Function *Main = M.getMain();
    if (!Main) {
      // The verifier reports a missing main() as a verify-error before
      // any analysis runs; this path only triggers for callers that skip
      // verification. An empty result is trivially sound — nothing
      // executes — and beats aborting a release-build fleet.
      R->EntryMissing = true;
      finalizeStats();
      R->Stats.set("pta.no-entry", 1);
      return std::move(R);
    }
    // Main's own statements go in before the first poll, so a deadline
    // that expired during setup still leaves a partial result holding the
    // root's nodes (callees poll as usual).
    processFunction(Main, InternTable::Empty, /*Poll=*/false);
    do {
      propagate();
    } while (applyRound());
    // A budget stop still brings the partial result to a closure for
    // finalize; a cancellation unwinds immediately with whatever exists.
    if (Stopped && !R->Cancelled)
      propagate();
    finalizeStats();
    return std::move(R);
  }

private:
  //===--------------------------------------------------------------------===//
  // Graph storage
  //===--------------------------------------------------------------------===//

  struct Node {
    /// Full points-to set. Under the wave engine only the SCC
    /// representative's set is authoritative; collapsed members are
    /// rebuilt from their representative at finalization.
    SparseBitVector Pts;
    /// Bits not yet pushed along outgoing copy edges (rep-owned).
    SparseBitVector PropDelta;
    /// Bits already handed to this node's Loads/Stores/Calls by earlier
    /// discovery rounds. Maintained per original node, never merged.
    SparseBitVector Applied;
    std::vector<unsigned> Succs;
    /// Field loads/stores waiting on base objects: (field key, other node).
    std::vector<std::pair<FieldKey, unsigned>> Loads;
    std::vector<std::pair<FieldKey, unsigned>> Stores;
    /// Virtual calls / spawns waiting on receiver objects.
    std::vector<std::pair<const Stmt *, Ctx>> Calls;
    /// Prefix of Loads/Stores/Calls that already caught up with Applied;
    /// uses registered after the last round instead receive the full
    /// frozen set in the next one.
    unsigned OldLoads = 0;
    unsigned OldStores = 0;
    unsigned OldCalls = 0;
    bool HasUses = false;
    bool Queued = false;
  };

  std::vector<Node> Nodes;
  /// Union-find forest over nodes; the wave engine collapses copy-edge
  /// SCCs by uniting members into the minimum member index. Stays the
  /// identity under the worklist engine.
  std::vector<unsigned> UnionFind;
  std::unordered_set<uint64_t> EdgeSet;
  std::deque<unsigned> Worklist;
  /// Wave-engine scratch: SCC representatives in topological order.
  std::vector<unsigned> TopoOrder;
  uint64_t NumCollapsed = 0;
  uint64_t NumWaves = 0;
  uint64_t NumPropWords = 0;

  const Module &M;
  PTAOptions Opts;
  OriginSpec Spec;
  std::unique_ptr<PTAResult> R;
  std::unordered_set<uint64_t> ProcessedInstances;
  std::unordered_map<uint64_t, unsigned> ObjMap;
  /// Return statements per function, for return-value binding.
  std::unordered_map<const Function *, std::vector<const ReturnStmt *>>
      ReturnsOf;
  std::unordered_set<const Function *> WrapperFns;
  std::unordered_map<uint64_t, std::vector<unsigned>> OriginsPerSite;
  bool Stopped = false;

  /// Polls the cancellation token; once it fires, the solver behaves like
  /// a budget stop (Stopped) with the result additionally flagged.
  bool checkCancelled() {
    if (R->Cancelled)
      return true;
    if (!pollCancelled(Opts.Cancel))
      return false;
    Stopped = true;
    R->Cancelled = true;
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Setup
  //===--------------------------------------------------------------------===//

  /// Entry names used by spawn statements are origin entries even when the
  /// configuration does not list them (custom thread abstractions).
  void augmentSpecWithSpawnEntries() {
    for (const auto &F : M.functions())
      for (const auto &S : F->body())
        if (const auto *Sp = dyn_cast<SpawnStmt>(S.get()))
          if (!Spec.isEntry(Sp->getEntryName()))
            Spec.addEntry(Sp->getEntryName(), OriginKind::Thread);
  }

  /// A wrapper function directly contains an origin allocation or a spawn;
  /// OPA extends origins created inside them with one call-site
  /// (Section 3.2, "Wrapper Functions and Loops").
  void computeWrapperFunctions() {
    if (Opts.Kind != ContextKind::Origin)
      return;
    const Function *Main = M.getMain();
    for (const auto &F : M.functions()) {
      if (F.get() == Main)
        continue; // main is the root; no wrapper treatment
      for (const auto &S : F->body()) {
        bool IsOriginSite = false;
        if (const auto *A = dyn_cast<AllocStmt>(S.get()))
          IsOriginSite = Spec.isOriginClass(A->getAllocType());
        else if (isa<SpawnStmt>(S.get()))
          IsOriginSite = true;
        if (IsOriginSite) {
          WrapperFns.insert(F.get());
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Context manipulation
  //===--------------------------------------------------------------------===//

  SmallVector<uint32_t, 8> elemsOf(Ctx C) const {
    ArrayRef<uint32_t> E = R->Ctxs.get(C);
    return SmallVector<uint32_t, 8>(E.begin(), E.end());
  }

  Ctx intern(ArrayRef<uint32_t> Elems) { return R->Ctxs.intern(Elems); }

  /// Appends \p Elem and keeps the last \p K elements.
  Ctx pushLimited(Ctx C, uint32_t Elem, unsigned K) {
    SmallVector<uint32_t, 8> E = elemsOf(C);
    E.push_back(Elem);
    size_t Keep = std::min<size_t>(E.size(), K);
    return intern(ArrayRef<uint32_t>(E.data() + (E.size() - Keep), Keep));
  }

  /// Origin chain of an OPA context (wrapper elements stripped).
  SmallVector<uint32_t, 8> originChainOf(Ctx C) const {
    SmallVector<uint32_t, 8> Chain;
    for (uint32_t E : R->Ctxs.get(C))
      if (!(E & WrapperElemBit))
        Chain.push_back(E);
    return Chain;
  }

  static uint32_t callSiteElem(unsigned Site) { return Site << 1; }
  static uint32_t allocSiteElem(unsigned Site) { return (Site << 1) | 1; }

  /// Callee context for a non-origin-entry call (rule ❻ keeps the origin;
  /// other abstractions push call sites / receiver objects).
  Ctx calleeCtx(Ctx CallerCtx, uint32_t SiteElem, unsigned RecvObj,
                const Function *Callee) {
    switch (Opts.Kind) {
    case ContextKind::Insensitive:
      return InternTable::Empty;
    case ContextKind::KCallsite:
      return pushLimited(CallerCtx, SiteElem, Opts.K);
    case ContextKind::KObject: {
      // Receiver-object sensitivity with standard k-limiting over
      // allocation sites: the method context is the receiver's site
      // followed by its heap context; static calls inherit the caller.
      if (RecvObj == ~0u)
        return CallerCtx;
      const ObjInfo &Recv = R->Objects[RecvObj];
      SmallVector<uint32_t, 8> Elems;
      Elems.push_back(allocSiteElem(Recv.Site));
      for (uint32_t E : R->Ctxs.get(Recv.HeapCtx)) {
        if (Elems.size() >= Opts.K)
          break;
        Elems.push_back(E);
      }
      return intern(Elems);
    }
    case ContextKind::Origin: {
      // Same origin as the caller. Wrapper callees additionally get the
      // call site so origins created inside them stay separate.
      SmallVector<uint32_t, 8> Chain = originChainOf(CallerCtx);
      if (Callee && WrapperFns.count(Callee))
        Chain.push_back(WrapperElemBit | SiteElem);
      return intern(Chain);
    }
    }
    O2_UNREACHABLE("covered switch");
  }

  /// Heap context for an allocation executed under \p AllocCtx.
  Ctx heapCtx(Ctx AllocCtx) {
    switch (Opts.Kind) {
    case ContextKind::Insensitive:
      return InternTable::Empty;
    case ContextKind::KObject: {
      // k-obj + heap: the heap context keeps the first k elements of the
      // allocating method's context (Doop's kobjH convention).
      ArrayRef<uint32_t> E = R->Ctxs.get(AllocCtx);
      size_t Keep = std::min<size_t>(E.size(), Opts.K);
      return intern(E.slice(0, Keep));
    }
    case ContextKind::KCallsite:
    case ContextKind::Origin:
      return AllocCtx;
    }
    O2_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Nodes and objects
  //===--------------------------------------------------------------------===//

  unsigned newNode() {
    Nodes.emplace_back();
    UnionFind.push_back(static_cast<unsigned>(Nodes.size() - 1));
    if (Nodes.size() > Opts.NodeBudget && !Stopped) {
      Stopped = true;
      R->HitBudget = true;
    }
    return static_cast<unsigned>(Nodes.size() - 1);
  }

  /// SCC representative of \p N (with path halving).
  unsigned find(unsigned N) {
    while (UnionFind[N] != N) {
      UnionFind[N] = UnionFind[UnionFind[N]];
      N = UnionFind[N];
    }
    return N;
  }

  unsigned varNode(const Variable *V, Ctx C) {
    uint64_t Key = (uint64_t(V->getId()) << 32) | C;
    auto [It, Inserted] = R->VarNodes.try_emplace(Key, 0);
    if (Inserted)
      It->second = newNode();
    return It->second;
  }

  unsigned globalNode(const Global *G) {
    int &Slot = R->GlobalNodes[G->getId()];
    if (Slot < 0)
      Slot = static_cast<int>(newNode());
    return static_cast<unsigned>(Slot);
  }

  unsigned fieldNode(unsigned Obj, FieldKey FK) {
    uint64_t Key = (uint64_t(Obj) << 32) | FK;
    auto [It, Inserted] = R->FieldNodes.try_emplace(Key, 0);
    if (Inserted)
      It->second = newNode();
    return It->second;
  }

  unsigned objectFor(unsigned Site, Ctx HCtx, unsigned Dup, const Type *Ty,
                     const Stmt *AllocS) {
    uint64_t Key = (uint64_t(Site) << 34) | (uint64_t(Dup) << 32) | HCtx;
    auto [It, Inserted] = ObjMap.try_emplace(Key, 0);
    if (Inserted) {
      ObjInfo Info;
      Info.Id = static_cast<unsigned>(R->Objects.size());
      Info.Site = Site;
      Info.HeapCtx = HCtx;
      Info.AllocatedType = Ty;
      Info.Alloc = AllocS;
      Info.DupIndex = Dup;
      R->Objects.push_back(Info);
      R->ObjOrigin.push_back(~0u);
      It->second = Info.Id;
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Constraint primitives (shared by both engines)
  //===--------------------------------------------------------------------===//

  void schedule(unsigned Rep) {
    if (Opts.Solver != SolverKind::Worklist)
      return; // the wave engine scans representatives for pending deltas
    if (!Nodes[Rep].Queued) {
      Nodes[Rep].Queued = true;
      Worklist.push_back(Rep);
    }
  }

  void addPts(unsigned N, unsigned Obj) {
    unsigned Rep = find(N);
    if (Nodes[Rep].Pts.set(Obj)) {
      Nodes[Rep].PropDelta.set(Obj);
      schedule(Rep);
    }
  }

  void addPtsSet(unsigned N, const SparseBitVector &Objs) {
    unsigned Rep = find(N);
    if (unionIntoPts(Rep, Objs))
      schedule(Rep);
  }

  /// Pts(Rep) |= Objs; the newly added bits join Rep's pending delta and
  /// are counted as propagated words. Returns true if any bit was added.
  bool unionIntoPts(unsigned Rep, const SparseBitVector &Objs) {
    Node &Nd = Nodes[Rep];
    SparseBitVector New;
    if (!Nd.Pts.unionWithDiff(Objs, New))
      return false; // includes the self-union inside a collapsed SCC
    NumPropWords += New.numSetWords();
    if (Nd.PropDelta.none())
      Nd.PropDelta = std::move(New);
    else
      Nd.PropDelta.unionWith(New);
    return true;
  }

  void addCopyEdge(unsigned Src, unsigned Dst) {
    if (Src == Dst)
      return;
    // Dedup on the original node IDs so the set of registered edges (and
    // the pta.copy-edges statistic) is identical across engines regardless
    // of SCC collapse.
    uint64_t Key = (uint64_t(Src) << 32) | Dst;
    if (!EdgeSet.insert(Key).second)
      return;
    unsigned SrcRep = find(Src);
    unsigned DstRep = find(Dst);
    if (SrcRep != DstRep)
      Nodes[SrcRep].Succs.push_back(DstRep);
    addPtsSet(Dst, Nodes[SrcRep].Pts);
  }

  /// Use registration only records the constraint; the next discovery
  /// round hands it the full frozen points-to set of its base. Applying
  /// at registration time would leak the engine's propagation schedule
  /// into the discovery order and break cross-engine equivalence.
  void registerLoad(unsigned Base, FieldKey FK, unsigned Dst) {
    Nodes[Base].HasUses = true;
    Nodes[Base].Loads.emplace_back(FK, Dst);
  }

  void registerStore(unsigned Base, FieldKey FK, unsigned Src) {
    Nodes[Base].HasUses = true;
    Nodes[Base].Stores.emplace_back(FK, Src);
  }

  void registerCallUse(unsigned Recv, const Stmt *S, Ctx C) {
    Nodes[Recv].HasUses = true;
    Nodes[Recv].Calls.emplace_back(S, C);
  }

  //===--------------------------------------------------------------------===//
  // Discovery rounds
  //===--------------------------------------------------------------------===//

  /// One unit of frozen discovery work: a use node, the objects its
  /// already-seen uses still owe (Delta), and — when uses were registered
  /// since the last round — the full closure set those must catch up on.
  struct WorkItem {
    unsigned NodeId = 0;
    SmallVector<unsigned, 8> Delta;
    SmallVector<unsigned, 8> Full;
    unsigned LoadsEnd = 0;
    unsigned StoresEnd = 0;
    unsigned CallsEnd = 0;
  };

  /// Freezes every use node's outstanding work against the propagated
  /// closure, then applies it in ascending node order. Returns true if
  /// another propagate/apply round is needed. The freeze-then-apply split
  /// makes the application sequence a pure function of the closure, which
  /// is the unique least solution of the current constraints and hence
  /// engine-independent.
  bool applyRound() {
    if (Stopped)
      return false;
    std::vector<WorkItem> Work;
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      Node &Nd = Nodes[N];
      if (!Nd.HasUses)
        continue;
      bool NewUses = Nd.Loads.size() > Nd.OldLoads ||
                     Nd.Stores.size() > Nd.OldStores ||
                     Nd.Calls.size() > Nd.OldCalls;
      const SparseBitVector &Closure = Nodes[find(N)].Pts;
      SparseBitVector DeltaBits = Closure.diff(Nd.Applied);
      if (DeltaBits.none() && !NewUses)
        continue;
      WorkItem W;
      W.NodeId = N;
      for (unsigned Obj : DeltaBits)
        W.Delta.push_back(Obj);
      if (NewUses)
        for (unsigned Obj : Closure)
          W.Full.push_back(Obj);
      W.LoadsEnd = static_cast<unsigned>(Nd.Loads.size());
      W.StoresEnd = static_cast<unsigned>(Nd.Stores.size());
      W.CallsEnd = static_cast<unsigned>(Nd.Calls.size());
      Nd.Applied.unionWith(Closure);
      Work.push_back(std::move(W));
    }
    if (Work.empty())
      return false;
    for (const WorkItem &W : Work) {
      if (Stopped || checkCancelled())
        return false;
      applyUses(W);
    }
    return true;
  }

  void applyUses(const WorkItem &W) {
    const unsigned N = W.NodeId;
    const unsigned OldL = Nodes[N].OldLoads;
    const unsigned OldS = Nodes[N].OldStores;
    const unsigned OldC = Nodes[N].OldCalls;
    // Uses from earlier rounds receive only the new objects... (indexed
    // accesses throughout: handlers create nodes and reallocate Nodes).
    for (unsigned Obj : W.Delta) {
      for (unsigned I = 0; I != OldL; ++I) {
        auto [FK, Dst] = Nodes[N].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = 0; I != OldS; ++I) {
        auto [FK, Src] = Nodes[N].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = 0; I != OldC; ++I) {
        auto [S, C] = Nodes[N].Calls[I];
        applyCallToObj(S, C, Obj);
      }
    }
    // ... while uses registered since the last round catch up on the full
    // frozen set. Uses registered during this very application (beyond
    // the frozen *End marks) wait for the next round.
    for (unsigned Obj : W.Full) {
      for (unsigned I = OldL; I != W.LoadsEnd; ++I) {
        auto [FK, Dst] = Nodes[N].Loads[I];
        addCopyEdge(fieldNode(Obj, FK), Dst);
      }
      for (unsigned I = OldS; I != W.StoresEnd; ++I) {
        auto [FK, Src] = Nodes[N].Stores[I];
        addCopyEdge(Src, fieldNode(Obj, FK));
      }
      for (unsigned I = OldC; I != W.CallsEnd; ++I) {
        auto [S, C] = Nodes[N].Calls[I];
        applyCallToObj(S, C, Obj);
      }
    }
    Nodes[N].OldLoads = W.LoadsEnd;
    Nodes[N].OldStores = W.StoresEnd;
    Nodes[N].OldCalls = W.CallsEnd;
  }

  //===--------------------------------------------------------------------===//
  // Propagation engines
  //===--------------------------------------------------------------------===//

  /// Closes the current copy-edge graph: afterwards every node's
  /// (representative's) Pts is the least solution of the registered
  /// edges and direct facts, and no deltas are pending.
  void propagate() {
    if (Opts.Solver == SolverKind::Worklist)
      propagateWorklist();
    else
      propagateWave();
  }

  /// Baseline engine: FIFO worklist, forwarding each node's pending delta
  /// object-by-object.
  void propagateWorklist() {
    while (!Worklist.empty()) {
      if (checkCancelled()) {
        for (unsigned N : Worklist)
          Nodes[N].Queued = false;
        Worklist.clear();
        return;
      }
      unsigned N = Worklist.front();
      Worklist.pop_front();
      Nodes[N].Queued = false;
      SmallVector<unsigned, 16> Delta;
      for (unsigned Obj : Nodes[N].PropDelta)
        Delta.push_back(Obj);
      Nodes[N].PropDelta.clear();
      for (size_t I = 0, E = Nodes[N].Succs.size(); I != E; ++I) {
        unsigned S = Nodes[N].Succs[I];
        for (unsigned Obj : Delta)
          addPts(S, Obj);
      }
    }
  }

  /// Wave engine: collapse copy-edge SCCs into their minimum member via
  /// union-find, then push every pending delta exactly once along the
  /// condensation in topological order with word-level unions.
  void propagateWave() {
    while (true) {
      bool Pending = false;
      for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size());
           N != E && !Pending; ++N)
        Pending = UnionFind[N] == N && Nodes[N].PropDelta.any();
      if (!Pending)
        return;
      ++NumWaves;
      collapseSCCs();
      for (unsigned Rep : TopoOrder) {
        if (checkCancelled())
          return;
        SparseBitVector Delta = std::move(Nodes[Rep].PropDelta);
        Nodes[Rep].PropDelta = SparseBitVector();
        if (Delta.none())
          continue;
        for (size_t I = 0, E = Nodes[Rep].Succs.size(); I != E; ++I) {
          unsigned S = find(Nodes[Rep].Succs[I]);
          if (S != Rep)
            unionIntoPts(S, Delta);
        }
      }
      // One topological pass consumes every delta of a DAG, so the next
      // scan terminates the loop; the outer while is a safety net.
    }
  }

  /// Iterative Tarjan over the representatives' condensation. Emits SCCs
  /// in reverse topological order (every SCC after all SCCs reachable from
  /// it), collapses multi-node components on the fly, and leaves
  /// TopoOrder holding the surviving representatives sources-first.
  void collapseSCCs() {
    const unsigned N = static_cast<unsigned>(Nodes.size());
    std::vector<uint32_t> Index(N, 0);
    std::vector<uint32_t> Low(N, 0);
    std::vector<bool> OnStack(N, false);
    std::vector<unsigned> SCCStack;
    struct Frame {
      unsigned Node;
      size_t SuccIdx;
    };
    std::vector<Frame> DFS;
    uint32_t NextIndex = 1;
    TopoOrder.clear();

    for (unsigned Root = 0; Root != N; ++Root) {
      if (UnionFind[Root] != Root || Index[Root])
        continue;
      Index[Root] = Low[Root] = NextIndex++;
      SCCStack.push_back(Root);
      OnStack[Root] = true;
      DFS.push_back({Root, 0});
      while (!DFS.empty()) {
        Frame &F = DFS.back();
        unsigned V = F.Node;
        if (F.SuccIdx != Nodes[V].Succs.size()) {
          unsigned S = find(Nodes[V].Succs[F.SuccIdx++]);
          if (S == V)
            continue;
          if (!Index[S]) {
            Index[S] = Low[S] = NextIndex++;
            SCCStack.push_back(S);
            OnStack[S] = true;
            DFS.push_back({S, 0}); // invalidates F; re-fetched next spin
          } else if (OnStack[S]) {
            Low[V] = std::min(Low[V], Index[S]);
          }
          continue;
        }
        DFS.pop_back();
        if (!DFS.empty())
          Low[DFS.back().Node] = std::min(Low[DFS.back().Node], Low[V]);
        if (Low[V] == Index[V]) {
          SmallVector<unsigned, 4> Comp;
          unsigned W;
          do {
            W = SCCStack.back();
            SCCStack.pop_back();
            OnStack[W] = false;
            Comp.push_back(W);
          } while (W != V);
          if (Comp.size() > 1)
            mergeSCC(Comp);
          TopoOrder.push_back(find(V));
        }
      }
    }
    std::reverse(TopoOrder.begin(), TopoOrder.end());
  }

  /// Unites an SCC into its minimum member (so representatives always
  /// precede their members, which finalizeStats relies on). The
  /// representative takes over the merged points-to set, pending delta,
  /// and successor list; members keep their use lists and Applied state,
  /// which discovery reads through find().
  void mergeSCC(ArrayRef<unsigned> Comp) {
    unsigned Rep = *std::min_element(Comp.begin(), Comp.end());
    for (unsigned M : Comp) {
      if (M == Rep)
        continue;
      Node &Mem = Nodes[M];
      Node &RepNode = Nodes[Rep];
      // Bits one side lacks must (re)flow to the merged successor list:
      // the other side's former successors never saw them.
      SparseBitVector RepOnly = RepNode.Pts.diff(Mem.Pts);
      unionIntoPts(Rep, Mem.Pts);
      RepNode.PropDelta.unionWith(RepOnly);
      RepNode.PropDelta.unionWith(Mem.PropDelta);
      RepNode.Succs.insert(RepNode.Succs.end(), Mem.Succs.begin(),
                           Mem.Succs.end());
      Mem.Pts = SparseBitVector();
      Mem.PropDelta = SparseBitVector();
      Mem.Succs.clear();
      Mem.Succs.shrink_to_fit();
      UnionFind[M] = Rep;
      ++NumCollapsed;
    }
    // Canonicalize and dedup the merged successor list; internal edges
    // collapse to self-loops and drop out.
    auto &Succs = Nodes[Rep].Succs;
    for (unsigned &S : Succs)
      S = find(S);
    std::sort(Succs.begin(), Succs.end());
    Succs.erase(std::unique(Succs.begin(), Succs.end()), Succs.end());
    Succs.erase(std::remove(Succs.begin(), Succs.end(), Rep), Succs.end());
  }

  //===--------------------------------------------------------------------===//
  // Call binding
  //===--------------------------------------------------------------------===//

  std::vector<CallTarget> &targetsSlot(const Stmt *S, Ctx C) {
    uint64_t Key = (uint64_t(S->getId()) << 32) | C;
    return R->CallTargets[Key];
  }

  bool recordTarget(const Stmt *S, Ctx C, const CallTarget &T) {
    auto &Vec = targetsSlot(S, C);
    for (const CallTarget &Existing : Vec)
      if (Existing == T)
        return false;
    Vec.push_back(T);
    return true;
  }

  /// Binds actuals to formals and the callee's returns to the target.
  void bindCall(const Function *Callee, Ctx CalleeC, unsigned RecvObj,
                ArrayRef<const Variable *> Actuals, Ctx CallerC,
                const Variable *Target) {
    const auto &Params = Callee->params();
    size_t ParamBase = RecvObj != ~0u ? 1 : 0;
    if (RecvObj != ~0u && !Params.empty())
      addPts(varNode(Params[0], CalleeC), RecvObj);
    for (size_t I = 0; I < Actuals.size() && ParamBase + I < Params.size();
         ++I) {
      if (!Actuals[I]->getType()->isReference())
        continue;
      addCopyEdge(varNode(Actuals[I], CallerC),
                  varNode(Params[ParamBase + I], CalleeC));
    }
    if (Target && Target->getType()->isReference())
      for (const ReturnStmt *Ret : returnsOf(Callee))
        if (Ret->getValue() && Ret->getValue()->getType()->isReference())
          addCopyEdge(varNode(Ret->getValue(), CalleeC),
                      varNode(Target, CallerC));
    processFunction(Callee, CalleeC);
  }

  const std::vector<const ReturnStmt *> &returnsOf(const Function *F) {
    auto [It, Inserted] = ReturnsOf.try_emplace(F);
    if (Inserted)
      for (const auto &S : F->body())
        if (const auto *Ret = dyn_cast<ReturnStmt>(S.get()))
          It->second.push_back(Ret);
    return It->second;
  }

  /// Resolves one receiver object for a virtual call or spawn.
  void applyCallToObj(const Stmt *S, Ctx CallerC, unsigned Obj) {
    const auto *Cls = dyn_cast<ClassType>(R->Objects[Obj].AllocatedType);
    if (!Cls)
      return; // arrays have no methods

    if (const auto *Call = dyn_cast<CallStmt>(S)) {
      const Function *Callee = Cls->findMethod(Call->getMethodName());
      if (!Callee)
        return;
      Ctx CalleeC =
          calleeCtx(CallerC, callSiteElem(Call->getSite()), Obj, Callee);
      if (!recordTarget(S, CallerC, {Callee, CalleeC, Obj}))
        return;
      SmallVector<const Variable *, 4> Actuals(Call->getArgs().begin(),
                                               Call->getArgs().end());
      bindCall(Callee, CalleeC, Obj, Actuals, CallerC, Call->getTarget());
      return;
    }

    const auto *Spawn = cast<SpawnStmt>(S);
    const Function *Entry = Cls->findMethod(Spawn->getEntryName());
    if (!Entry)
      return;
    Ctx EntryC;
    if (Opts.Kind == ContextKind::Origin) {
      // Rule ❾: the entry runs under the origin created for the receiver
      // object at its (origin) allocation.
      unsigned Origin = R->ObjOrigin[Obj];
      EntryC = Origin != ~0u ? R->OriginCtxs[Origin]
                             : calleeCtx(CallerC, callSiteElem(Spawn->getSite()),
                                         Obj, Entry);
    } else {
      EntryC =
          calleeCtx(CallerC, callSiteElem(Spawn->getSite()), Obj, Entry);
    }
    if (!recordTarget(S, CallerC, {Entry, EntryC, Obj}))
      return;
    SmallVector<const Variable *, 4> Actuals(Spawn->getArgs().begin(),
                                             Spawn->getArgs().end());
    bindCall(Entry, EntryC, Obj, Actuals, CallerC, /*Target=*/nullptr);
  }

  //===--------------------------------------------------------------------===//
  // Statement processing
  //===--------------------------------------------------------------------===//

  /// Processes one ⟨function, context⟩ instance, polling the token on
  /// entry and before each statement unless \p Poll is false.
  void processFunction(const Function *F, Ctx C, bool Poll = true) {
    if (Stopped || (Poll && checkCancelled()))
      return;
    uint64_t Key = (uint64_t(F->getId()) << 32) | C;
    if (!ProcessedInstances.insert(Key).second)
      return;
    R->Instances.emplace_back(F, C);
    for (const auto &S : F->body()) {
      if (Poll && checkCancelled())
        return;
      processStmt(*S, F, C);
    }
  }

  void processAlloc(const AllocStmt &A, Ctx C) {
    ClassType *Cls = A.getAllocType();
    bool IsOriginAlloc =
        Opts.Kind == ContextKind::Origin && Spec.isOriginClass(Cls);
    unsigned NumDups = IsOriginAlloc && A.isInLoop() ? 2 : 1;

    for (unsigned Dup = 0; Dup != NumDups; ++Dup) {
      Ctx ObjCtx;
      Ctx InitCtx;
      unsigned Obj;
      if (IsOriginAlloc) {
        // Rule ❽: switch to a fresh origin; the object, its constructor,
        // and (later) its entry all live in the new origin.
        OriginKind Kind = OriginKind::Thread;
        auto Entries = Spec.entriesOf(Cls);
        if (!Entries.empty())
          Kind = Spec.kindOf(Entries.front());
        for (const std::string &E : Entries)
          if (Spec.kindOf(E) == OriginKind::Thread)
            Kind = OriginKind::Thread;
        // Recursion collapse: an origin that (transitively) re-allocates
        // its own allocation site folds back onto the ancestor origin,
        // so recursive spawning reaches a fixpoint (the k-limiting
        // analogue for origin chains).
        unsigned OriginId = ~0u;
        for (uint32_t Ancestor : originChainOf(C)) {
          const OriginInfo &Info = R->Origins.info(Ancestor);
          if (Info.AllocSite == A.getSite() && Info.DupIndex == Dup) {
            OriginId = Ancestor;
            break;
          }
        }
        // Backstop for mutual recursion between origin classes: bound
        // the origins per allocation site, folding the overflow onto the
        // first one.
        constexpr unsigned MaxOriginsPerSite = 8;
        uint64_t SiteKey = (uint64_t(A.getSite()) << 1) | Dup;
        if (OriginId == ~0u) {
          auto &PerSite = OriginsPerSite[SiteKey];
          if (PerSite.size() >= MaxOriginsPerSite) {
            OriginId = PerSite.front();
          } else {
            OriginId = R->Origins.getOrCreate(A.getSite(), C, Dup, Kind, Cls);
            if (OriginId == R->OriginCtxs.size())
              PerSite.push_back(OriginId);
          }
        }
        if (OriginId == R->OriginCtxs.size()) {
          SmallVector<uint32_t, 8> Chain = originChainOf(C);
          Chain.push_back(OriginId);
          size_t Keep = std::min<size_t>(Chain.size(), Opts.K);
          R->OriginCtxs.push_back(intern(ArrayRef<uint32_t>(
              Chain.data() + (Chain.size() - Keep), Keep)));
        }
        ObjCtx = R->OriginCtxs[OriginId];
        InitCtx = ObjCtx;
        Obj = objectFor(A.getSite(), ObjCtx, Dup, Cls, &A);
        R->ObjOrigin[Obj] = OriginId;
      } else {
        ObjCtx = heapCtx(C);
        Obj = objectFor(A.getSite(), ObjCtx, Dup, Cls, &A);
        if (Opts.Kind == ContextKind::Origin) {
          // Owner origin: the origin executing this allocation.
          SmallVector<uint32_t, 8> Chain = originChainOf(C);
          R->ObjOrigin[Obj] =
              Chain.empty() ? OriginTable::MainOrigin : Chain.back();
        }
        InitCtx = ~0u; // computed below per context kind
      }

      addPts(varNode(A.getTarget(), C), Obj);

      if (const Function *Init = Cls->findMethod("init")) {
        if (InitCtx == ~0u)
          InitCtx =
              calleeCtx(C, allocSiteElem(A.getSite()), Obj, Init);
        if (recordTarget(&A, C, {Init, InitCtx, Obj})) {
          SmallVector<const Variable *, 4> Actuals(A.getArgs().begin(),
                                                   A.getArgs().end());
          bindCall(Init, InitCtx, Obj, Actuals, C, /*Target=*/nullptr);
        }
      }
    }
  }

  void processStmt(const Stmt &S, const Function *F, Ctx C) {
    switch (S.getKind()) {
    case Stmt::SK_Alloc:
      processAlloc(cast<AllocStmt>(S), C);
      return;
    case Stmt::SK_ArrayAlloc: {
      const auto &A = cast<ArrayAllocStmt>(S);
      unsigned Obj =
          objectFor(A.getSite(), heapCtx(C), 0, A.getAllocType(), &A);
      if (Opts.Kind == ContextKind::Origin && R->ObjOrigin[Obj] == ~0u) {
        SmallVector<uint32_t, 8> Chain = originChainOf(C);
        R->ObjOrigin[Obj] =
            Chain.empty() ? OriginTable::MainOrigin : Chain.back();
      }
      addPts(varNode(A.getTarget(), C), Obj);
      return;
    }
    case Stmt::SK_Assign: {
      const auto &A = cast<AssignStmt>(S);
      if (A.getSource()->getType()->isReference() &&
          A.getTarget()->getType()->isReference())
        addCopyEdge(varNode(A.getSource(), C), varNode(A.getTarget(), C));
      return;
    }
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      if (L.getField()->getType()->isReference())
        registerLoad(varNode(L.getBase(), C), fieldKeyOf(L.getField()),
                     varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      if (St.getField()->getType()->isReference())
        registerStore(varNode(St.getBase(), C), fieldKeyOf(St.getField()),
                      varNode(St.getSource(), C));
      return;
    }
    case Stmt::SK_ArrayLoad: {
      const auto &L = cast<ArrayLoadStmt>(S);
      if (L.getTarget()->getType()->isReference())
        registerLoad(varNode(L.getBase(), C), ArrayElemKey,
                     varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_ArrayStore: {
      const auto &St = cast<ArrayStoreStmt>(S);
      if (St.getSource()->getType()->isReference())
        registerStore(varNode(St.getBase(), C), ArrayElemKey,
                      varNode(St.getSource(), C));
      return;
    }
    case Stmt::SK_GlobalLoad: {
      const auto &L = cast<GlobalLoadStmt>(S);
      if (L.getGlobal()->getType()->isReference())
        addCopyEdge(globalNode(L.getGlobal()), varNode(L.getTarget(), C));
      return;
    }
    case Stmt::SK_GlobalStore: {
      const auto &St = cast<GlobalStoreStmt>(S);
      if (St.getGlobal()->getType()->isReference())
        addCopyEdge(varNode(St.getSource(), C), globalNode(St.getGlobal()));
      return;
    }
    case Stmt::SK_Call: {
      const auto &Call = cast<CallStmt>(S);
      if (Call.isVirtual()) {
        registerCallUse(varNode(Call.getReceiver(), C), &Call, C);
        return;
      }
      const Function *Callee = Call.getDirectCallee();
      Ctx CalleeC =
          calleeCtx(C, callSiteElem(Call.getSite()), ~0u, Callee);
      if (recordTarget(&Call, C, {Callee, CalleeC, ~0u})) {
        SmallVector<const Variable *, 4> Actuals(Call.getArgs().begin(),
                                                 Call.getArgs().end());
        bindCall(Callee, CalleeC, ~0u, Actuals, C, Call.getTarget());
      }
      return;
    }
    case Stmt::SK_Spawn:
      registerCallUse(varNode(cast<SpawnStmt>(S).getReceiver(), C), &S, C);
      return;
    case Stmt::SK_Join:
      // Joins only matter for happens-before; ensure the receiver node
      // exists so SHB can query its points-to set.
      varNode(cast<JoinStmt>(S).getReceiver(), C);
      return;
    case Stmt::SK_Acquire:
      varNode(cast<AcquireStmt>(S).getLock(), C);
      return;
    case Stmt::SK_Release:
      varNode(cast<ReleaseStmt>(S).getLock(), C);
      return;
    case Stmt::SK_Return:
      // Return values are wired at call-binding time.
      (void)F;
      return;
    }
    O2_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Finalization
  //===--------------------------------------------------------------------===//

  void finalizeStats() {
    R->NodePts.reserve(Nodes.size());
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      unsigned Rep = find(N);
      if (Rep == N) {
        R->NodePts.push_back(std::move(Nodes[N].Pts));
      } else {
        // SCCs unite into their minimum member, so the representative's
        // final set is already in place.
        assert(Rep < N && "representative must precede its members");
        R->NodePts.push_back(R->NodePts[Rep]);
      }
    }
    R->Stats.set("pta.pointer-nodes", Nodes.size());
    R->Stats.set("pta.objects", R->Objects.size());
    R->Stats.set("pta.copy-edges", EdgeSet.size());
    R->Stats.set("pta.instances", R->Instances.size());
    R->Stats.set("pta.contexts", R->Ctxs.size());
    R->Stats.set("pta.origins",
                 Opts.Kind == ContextKind::Origin ? R->Origins.size() : 0);
    R->Stats.set("pta.scc-collapsed", NumCollapsed);
    R->Stats.set("pta.waves", NumWaves);
    R->Stats.set("pta.propagated-words", NumPropWords);
    if (R->Cancelled)
      R->Stats.set("pta.cancelled", 1);
  }
};

} // namespace o2

//===----------------------------------------------------------------------===//
// PTAResult queries
//===----------------------------------------------------------------------===//

const SparseBitVector *PTAResult::pts(const Variable *V, Ctx C) const {
  auto It = VarNodes.find((uint64_t(V->getId()) << 32) | C);
  if (It == VarNodes.end())
    return nullptr;
  return &NodePts[It->second];
}

const SparseBitVector *PTAResult::ptsGlobal(const Global *G) const {
  int Slot = GlobalNodes[G->getId()];
  return Slot < 0 ? nullptr : &NodePts[static_cast<unsigned>(Slot)];
}

const SparseBitVector *PTAResult::ptsField(unsigned Obj, FieldKey FK) const {
  auto It = FieldNodes.find((uint64_t(Obj) << 32) | FK);
  return It == FieldNodes.end() ? nullptr : &NodePts[It->second];
}

const std::vector<CallTarget> &PTAResult::callTargets(const Stmt *S,
                                                      Ctx C) const {
  static const std::vector<CallTarget> None;
  auto It = CallTargets.find((uint64_t(S->getId()) << 32) | C);
  return It == CallTargets.end() ? None : It->second;
}

std::vector<unsigned> PTAResult::originAttributes(unsigned OriginId) const {
  std::vector<unsigned> Attrs;
  if (OriginId == OriginTable::MainOrigin)
    return Attrs;
  const OriginInfo &Info = Origins.info(OriginId);
  // Find the origin's receiver object to recover its allocation stmt.
  const AllocStmt *Alloc = nullptr;
  for (const ObjInfo &O : Objects)
    if (O.Site == Info.AllocSite && originOfObject(O.Id) == OriginId)
      if ((Alloc = dyn_cast<AllocStmt>(O.Alloc)))
        break;
  if (!Alloc)
    return Attrs;
  for (const Variable *Arg : Alloc->getArgs()) {
    if (!Arg->getType()->isReference())
      continue;
    if (const SparseBitVector *P = pts(Arg, Info.ParentCtx))
      for (unsigned Obj : *P)
        Attrs.push_back(Obj);
  }
  std::sort(Attrs.begin(), Attrs.end());
  Attrs.erase(std::unique(Attrs.begin(), Attrs.end()), Attrs.end());
  return Attrs;
}

std::string PTAResult::ctxToString(Ctx C) const {
  std::string Out = "[";
  bool First = true;
  for (uint32_t E : Ctxs.get(C)) {
    if (!First)
      Out += ",";
    First = false;
    if (Opts.Kind == ContextKind::Origin) {
      Out += (E & 0x80000000u) ? 'w' : 'O';
      Out += std::to_string(E & 0x7fffffffu);
    } else {
      Out += std::to_string(E);
    }
  }
  Out += "]";
  return Out;
}

std::unique_ptr<PTAResult> o2::runPointerAnalysis(const Module &M,
                                                  const PTAOptions &Opts) {
  return PTASolver(M, Opts).run();
}
