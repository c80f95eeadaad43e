//===- SharingAnalysis.cpp - Origin-sharing analysis --------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/OSA/SharingAnalysis.h"

#include "o2/Support/Casting.h"

#include <algorithm>
#include <set>
#include <vector>

using namespace o2;

std::string MemLoc::toString(const PTAResult &PTA) const {
  if (isGlobal())
    return "@" + PTA.module().globals()[globalId()]->getName();
  std::string Out = "obj" + std::to_string(object());
  FieldKey FK = fieldKey();
  if (FK == ArrayElemKey)
    return Out + "[*]";
  // Locate the field's name through the object's class.
  const ObjInfo &O = PTA.object(object());
  if (const auto *Cls = dyn_cast<ClassType>(O.AllocatedType)) {
    for (const ClassType *C = Cls; C; C = C->getSuper())
      for (const auto &F : C->fields())
        if (fieldKeyOf(F.get()) == FK)
          return Out + "." + F->getName();
  }
  return Out + ".f" + std::to_string(FK - 1);
}

namespace o2 {

/// Implements Algorithm 1. The traversal over visitedMethods is the
/// pointer analysis's reachable-instance list; FindPointsToOrigins is the
/// points-to query on the access's base pointer.
class SharingAnalysis {
public:
  SharingAnalysis(const PTAResult &PTA, const CancellationToken *Cancel)
      : PTA(PTA), Cancel(Cancel) {
    assert(PTA.options().Kind == ContextKind::Origin &&
           "OSA runs on origin-sensitive points-to results");
  }

  SharingResult run() {
    for (const auto &[F, C] : PTA.instances()) {
      unsigned Origin = PTA.originOfCtx(C);
      for (const auto &S : F->body()) {
        if (pollCancelled(Cancel)) {
          R.Cancelled = true;
          finalize();
          return std::move(R);
        }
        visitStmt(*S, C, Origin);
      }
    }
    finalize();
    return std::move(R);
  }

private:
  void recordAccess(const Stmt &S, MemLoc Loc, unsigned Origin,
                    bool IsWrite) {
    LocAccessSets &Sets = R.Locs[Loc];
    if (IsWrite)
      Sets.WriteOrigins.set(Origin);
    else
      Sets.ReadOrigins.set(Origin);
    StmtLocs.emplace_back(S.getId(), Loc);
  }

  /// Records one base-pointer access: the location per pointed-to object.
  void recordFieldAccess(const Stmt &S, const Variable *Base, FieldKey FK,
                         unsigned Origin, bool IsWrite, Ctx C) {
    AccessStmts.push_back(S.getId());
    const SparseBitVector *Pts = PTA.pts(Base, C);
    if (!Pts)
      return;
    for (unsigned Obj : *Pts)
      recordAccess(S, MemLoc::field(Obj, FK), Origin, IsWrite);
  }

  void visitStmt(const Stmt &S, Ctx C, unsigned Origin) {
    switch (S.getKind()) {
    case Stmt::SK_FieldLoad: {
      const auto &L = cast<FieldLoadStmt>(S);
      recordFieldAccess(S, L.getBase(), fieldKeyOf(L.getField()), Origin,
                        /*IsWrite=*/false, C);
      return;
    }
    case Stmt::SK_FieldStore: {
      const auto &St = cast<FieldStoreStmt>(S);
      recordFieldAccess(S, St.getBase(), fieldKeyOf(St.getField()), Origin,
                        /*IsWrite=*/true, C);
      return;
    }
    case Stmt::SK_ArrayLoad:
      recordFieldAccess(S, cast<ArrayLoadStmt>(S).getBase(), ArrayElemKey,
                        Origin, /*IsWrite=*/false, C);
      return;
    case Stmt::SK_ArrayStore:
      recordFieldAccess(S, cast<ArrayStoreStmt>(S).getBase(), ArrayElemKey,
                        Origin, /*IsWrite=*/true, C);
      return;
    case Stmt::SK_GlobalLoad:
      AccessStmts.push_back(S.getId());
      recordAccess(S, MemLoc::global(cast<GlobalLoadStmt>(S).getGlobal()->getId()),
                   Origin, /*IsWrite=*/false);
      return;
    case Stmt::SK_GlobalStore:
      AccessStmts.push_back(S.getId());
      recordAccess(S,
                   MemLoc::global(cast<GlobalStoreStmt>(S).getGlobal()->getId()),
                   Origin, /*IsWrite=*/true);
      return;
    default:
      return;
    }
  }

  void finalize() {
    std::set<unsigned> SharedObjs;
    for (const auto &[Loc, Sets] : R.Locs)
      if (Sets.isShared()) {
        R.Shared.push_back(Loc);
        if (!Loc.isGlobal())
          SharedObjs.insert(Loc.object());
      }
    std::sort(R.Shared.begin(), R.Shared.end());
    R.NumSharedObjects = static_cast<unsigned>(SharedObjs.size());
    std::sort(AccessStmts.begin(), AccessStmts.end());
    R.NumAccessStmts = static_cast<unsigned>(
        std::unique(AccessStmts.begin(), AccessStmts.end()) -
        AccessStmts.begin());
    std::sort(StmtLocs.begin(), StmtLocs.end());
    StmtLocs.erase(std::unique(StmtLocs.begin(), StmtLocs.end()),
                   StmtLocs.end());
    for (size_t I = 0, E = StmtLocs.size(); I != E;) {
      unsigned StmtId = StmtLocs[I].first;
      bool Shared = false;
      for (; I != E && StmtLocs[I].first == StmtId; ++I)
        Shared = Shared || R.isShared(StmtLocs[I].second);
      if (Shared) {
        R.SharedStmts.set(StmtId);
        ++R.NumSharedAccessStmts;
      }
    }
  }

  const PTAResult &PTA;
  const CancellationToken *Cancel;
  SharingResult R;
  /// (statement ID, location) per recorded access; sorted and
  /// deduplicated once in finalize.
  std::vector<std::pair<unsigned, MemLoc>> StmtLocs;
  /// ID of each access statement visited, per visit; sorted and
  /// deduplicated once in finalize.
  std::vector<unsigned> AccessStmts;
};

} // namespace o2

SharingResult o2::runSharingAnalysis(const PTAResult &PTA,
                                     const CancellationToken *Cancel) {
  return SharingAnalysis(PTA, Cancel).run();
}
