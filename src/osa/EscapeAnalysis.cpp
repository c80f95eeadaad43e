//===- EscapeAnalysis.cpp - Thread-escape baseline -----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/EscapeAnalysis.h"

#include "o2/Support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace o2;

namespace o2 {

class EscapeAnalysis {
public:
  EscapeAnalysis(const PTAResult &PTA, const CancellationToken *Cancel)
      : PTA(PTA), Cancel(Cancel) {}

  EscapeResult run() {
    seedRoots();
    if (!R.Cancelled)
      closeOverFields();
    if (!R.Cancelled)
      countSharedAccesses();
    return std::move(R);
  }

private:
  void markEscaped(const SparseBitVector *Pts) {
    if (!Pts)
      return;
    for (unsigned Obj : *Pts)
      if (R.Escaped.set(Obj))
        Worklist.push_back(Obj);
  }

  void markEscaped(unsigned Obj) {
    if (R.Escaped.set(Obj))
      Worklist.push_back(Obj);
  }

  void seedRoots() {
    // Globals (static fields) escape.
    for (const auto &G : PTA.module().globals())
      markEscaped(PTA.ptsGlobal(G.get()));

    const OriginSpec &Spec = PTA.options().Spec;
    for (const auto &[F, C] : PTA.instances()) {
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        // Origin (thread/handler) objects and everything passed into
        // their constructors escapes to the child.
        if (const auto *A = dyn_cast<AllocStmt>(&S)) {
          if (!Spec.isOriginClass(A->getAllocType()))
            continue;
          markEscaped(PTA.pts(A->getTarget(), C));
          for (const Variable *Arg : A->getArgs())
            if (Arg->getType()->isReference())
              markEscaped(PTA.pts(Arg, C));
          continue;
        }
        // Spawn receivers and arguments escape.
        if (const auto *Sp = dyn_cast<SpawnStmt>(&S)) {
          markEscaped(PTA.pts(Sp->getReceiver(), C));
          for (const Variable *Arg : Sp->getArgs())
            if (Arg->getType()->isReference())
              markEscaped(PTA.pts(Arg, C));
        }
      }
    }
  }

  void closeOverFields() {
    // Anything reachable through a field of an escaped object escapes.
    // Iterate to a fixpoint: the field points-to relation is fixed, so one
    // worklist pass over (escaped object -> field pts) suffices.
    std::vector<std::pair<unsigned, const SparseBitVector *>> FieldPtsByObj;
    PTA.forEachFieldPts(
        [&](unsigned Obj, FieldKey, const SparseBitVector &Pts) {
          FieldPtsByObj.emplace_back(Obj, &Pts);
        });
    // Index: object -> its field points-to sets.
    std::sort(FieldPtsByObj.begin(), FieldPtsByObj.end());
    while (!Worklist.empty()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      unsigned Obj = Worklist.back();
      Worklist.pop_back();
      auto It = std::lower_bound(
          FieldPtsByObj.begin(), FieldPtsByObj.end(), Obj,
          [](const auto &Entry, unsigned O) { return Entry.first < O; });
      for (; It != FieldPtsByObj.end() && It->first == Obj; ++It)
        markEscaped(It->second);
    }
  }

  /// Base objects of an access statement under one context.
  void countAccess(const Variable *Base, Ctx C, bool &Shared) {
    const SparseBitVector *Pts = PTA.pts(Base, C);
    if (Pts && Pts->intersects(R.Escaped))
      Shared = true;
  }

  void countSharedAccesses() {
    // Statement IDs are dense per module, so one mark per statement (1 =
    // access, 2 = shared access) counts each statement once.
    std::vector<uint8_t> Seen(PTA.module().numStmts());
    unsigned NumAccess = 0, NumShared = 0;
    for (const auto &[F, C] : PTA.instances()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        bool IsAccess = true;
        bool Shared = false;
        switch (S.getKind()) {
        case Stmt::SK_FieldLoad:
          countAccess(cast<FieldLoadStmt>(S).getBase(), C, Shared);
          break;
        case Stmt::SK_FieldStore:
          countAccess(cast<FieldStoreStmt>(S).getBase(), C, Shared);
          break;
        case Stmt::SK_ArrayLoad:
          countAccess(cast<ArrayLoadStmt>(S).getBase(), C, Shared);
          break;
        case Stmt::SK_ArrayStore:
          countAccess(cast<ArrayStoreStmt>(S).getBase(), C, Shared);
          break;
        case Stmt::SK_GlobalLoad:
        case Stmt::SK_GlobalStore:
          // Statics are always thread-escaped in this baseline.
          Shared = true;
          break;
        default:
          IsAccess = false;
          break;
        }
        if (IsAccess) {
          uint8_t &Mark = Seen[S.getId()];
          NumAccess += Mark == 0;
          NumShared += Shared && Mark < 2;
          Mark = std::max<uint8_t>(Mark, Shared ? 2 : 1);
        }
      }
    }
    R.NumAccessStmts = NumAccess;
    R.NumSharedAccessStmts = NumShared;
  }

  const PTAResult &PTA;
  const CancellationToken *Cancel;
  EscapeResult R;
  std::vector<unsigned> Worklist;
};

} // namespace o2

EscapeResult o2::runEscapeAnalysis(const PTAResult &PTA,
                                   const CancellationToken *Cancel) {
  return EscapeAnalysis(PTA, Cancel).run();
}
