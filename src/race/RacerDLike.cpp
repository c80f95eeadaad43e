//===- RacerDLike.cpp - Syntactic race detector baseline ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/RacerDLike.h"

#include "o2/IR/Printer.h"
#include "o2/Support/Casting.h"
#include "o2/Support/OutputStream.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace o2;

namespace o2 {

class RacerDLikeDetector {
public:
  RacerDLikeDetector(const Module &M, const CancellationToken *Cancel)
      : M(M), Cancel(Cancel) {}

  RacerDReport run() {
    buildCallGraph();
    computeRootReachability();
    if (!R.Cancelled)
      collectAccesses();
    if (!R.Cancelled)
      emitWarnings();
    return std::move(R);
  }

private:
  /// The root-set id of a function no root reaches (dead code), and the
  /// empty value of the dense stamp arrays.
  static constexpr unsigned None = ~0u;

  /// Functions are identified by their dense `Function::getId()`.
  struct Access {
    const Stmt *S;
    unsigned Fn;
    unsigned LockSet; ///< interned syntactic lockset; 0 is the empty set
    bool IsWrite;
  };

  /// Deduplicated callee lists. Calls resolve by name: the detector has
  /// no pointer information, so a virtual call can reach any
  /// equally-named method (RacerD-style name-based resolution).
  void buildCallGraph() {
    const auto &Fns = M.functions();
    for (const auto &F : Fns)
      if (F->isMethod())
        MethodsByName[F->getName()].push_back(F->getId());

    Callees.resize(Fns.size());
    std::vector<unsigned> AddedBy(Fns.size(), None);
    for (const auto &F : Fns) {
      const unsigned Caller = F->getId();
      assert(Caller < Fns.size() && "function ids must be dense");
      auto Add = [&](unsigned Callee) {
        if (AddedBy[Callee] != Caller) {
          AddedBy[Callee] = Caller;
          Callees[Caller].push_back(Callee);
        }
      };
      for (const auto &SPtr : F->body()) {
        if (const auto *Call = dyn_cast<CallStmt>(SPtr.get())) {
          if (Call->isVirtual()) {
            auto It = MethodsByName.find(Call->getMethodName());
            if (It != MethodsByName.end())
              for (unsigned Callee : It->second)
                Add(Callee);
          } else {
            Add(Call->getDirectCallee()->getId());
          }
        } else if (const auto *A = dyn_cast<AllocStmt>(SPtr.get())) {
          if (const Function *Init = A->getAllocType()->findMethod("init"))
            Add(Init->getId());
        }
      }
    }
  }

  /// Reachability from each concurrency root (main + each spawned entry
  /// name instance). A function's root set tells whether two accesses can
  /// run on different threads; equal root sets share one interned id.
  void computeRootReachability() {
    std::vector<unsigned> Roots;
    if (const Function *Main = M.getMain())
      Roots.push_back(Main->getId());
    std::set<std::string> SpawnEntryNames;
    for (const auto &F : M.functions())
      for (const auto &SPtr : F->body())
        if (const auto *Sp = dyn_cast<SpawnStmt>(SPtr.get()))
          SpawnEntryNames.insert(Sp->getEntryName());
    for (const std::string &Name : SpawnEntryNames) {
      auto It = MethodsByName.find(Name);
      if (It == MethodsByName.end())
        continue;
      Roots.insert(Roots.end(), It->second.begin(), It->second.end());
    }

    const size_t NumFns = Callees.size();
    std::vector<std::vector<unsigned>> RootsOf(NumFns);
    std::vector<unsigned> Visited(NumFns, None);
    std::vector<unsigned> Stack;
    for (unsigned RootIdx = 0; RootIdx != Roots.size(); ++RootIdx) {
      Visited[Roots[RootIdx]] = RootIdx;
      Stack.push_back(Roots[RootIdx]);
      while (!Stack.empty()) {
        if (pollCancelled(Cancel)) {
          R.Cancelled = true;
          return;
        }
        unsigned F = Stack.back();
        Stack.pop_back();
        RootsOf[F].push_back(RootIdx);
        for (unsigned Callee : Callees[F])
          if (Visited[Callee] != RootIdx) {
            Visited[Callee] = RootIdx;
            Stack.push_back(Callee);
          }
      }
    }

    // Roots are visited in index order, so each list is ascending and its
    // last element tells whether it holds a non-main root.
    std::map<std::vector<unsigned>, unsigned> Ids;
    RootSetOf.assign(NumFns, None);
    for (size_t F = 0; F != NumFns; ++F) {
      if (RootsOf[F].empty())
        continue;
      auto [It, Inserted] =
          Ids.try_emplace(std::move(RootsOf[F]), unsigned(NonMain.size()));
      if (Inserted)
        NonMain.push_back(It->first.back() != 0);
      RootSetOf[F] = It->second;
    }
  }

  static std::string fieldKeyName(const Field *Fld) {
    return Fld->getParent()->getName() + "." + Fld->getName();
  }

  /// RacerD's ownership reasoning, intraprocedural flavor: a variable
  /// holding a locally allocated object that is never overwritten from
  /// elsewhere is owned, and accesses through it cannot race.
  static std::set<const Variable *> ownedVariables(const Function *F) {
    std::set<const Variable *> Owned;
    std::set<const Variable *> Tainted;
    for (const auto &SPtr : F->body()) {
      const Stmt &S = *SPtr;
      if (const auto *A = dyn_cast<AllocStmt>(&S)) {
        Owned.insert(A->getTarget());
      } else if (const auto *A = dyn_cast<ArrayAllocStmt>(&S)) {
        Owned.insert(A->getTarget());
      } else if (const auto *A = dyn_cast<AssignStmt>(&S)) {
        Tainted.insert(A->getTarget());
      } else if (const auto *L = dyn_cast<FieldLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *L = dyn_cast<ArrayLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *L = dyn_cast<GlobalLoadStmt>(&S)) {
        Tainted.insert(L->getTarget());
      } else if (const auto *C = dyn_cast<CallStmt>(&S)) {
        if (C->getTarget())
          Tainted.insert(C->getTarget());
      }
    }
    for (const Variable *V : Tainted)
      Owned.erase(V);
    return Owned;
  }

  /// Interns the set of lock names on \p LockStack; the empty set is 0.
  unsigned internLockSet(const std::vector<std::string> &LockStack) {
    std::vector<std::string> Names = LockStack;
    std::sort(Names.begin(), Names.end());
    Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
    auto [It, Inserted] =
        LockSetIds.try_emplace(std::move(Names), unsigned(LockSets.size()));
    if (Inserted)
      LockSets.push_back(&It->first);
    return It->second;
  }

  void collectAccesses() {
    internLockSet({});
    for (const auto &FPtr : M.functions()) {
      if (pollCancelled(Cancel)) {
        R.Cancelled = true;
        return;
      }
      const Function *F = FPtr.get();
      if (RootSetOf[F->getId()] == None)
        continue; // dead code
      std::set<const Variable *> Owned = ownedVariables(F);
      std::vector<std::string> LockStack;
      unsigned LockSet = 0;
      for (const auto &SPtr : F->body()) {
        const Stmt &S = *SPtr;
        std::string Key;
        bool IsWrite = false;
        switch (S.getKind()) {
        case Stmt::SK_FieldLoad:
          if (Owned.count(cast<FieldLoadStmt>(S).getBase()))
            continue;
          Key = fieldKeyName(cast<FieldLoadStmt>(S).getField());
          break;
        case Stmt::SK_FieldStore:
          if (Owned.count(cast<FieldStoreStmt>(S).getBase()))
            continue;
          Key = fieldKeyName(cast<FieldStoreStmt>(S).getField());
          IsWrite = true;
          break;
        case Stmt::SK_ArrayLoad:
          if (Owned.count(cast<ArrayLoadStmt>(S).getBase()))
            continue;
          Key = "[]";
          break;
        case Stmt::SK_ArrayStore:
          if (Owned.count(cast<ArrayStoreStmt>(S).getBase()))
            continue;
          Key = "[]";
          IsWrite = true;
          break;
        case Stmt::SK_GlobalLoad:
          Key = "@" + cast<GlobalLoadStmt>(S).getGlobal()->getName();
          break;
        case Stmt::SK_GlobalStore:
          Key = "@" + cast<GlobalStoreStmt>(S).getGlobal()->getName();
          IsWrite = true;
          break;
        case Stmt::SK_Acquire:
          LockStack.push_back(cast<AcquireStmt>(S).getLock()->getName());
          LockSet = internLockSet(LockStack);
          continue;
        case Stmt::SK_Release:
          if (!LockStack.empty()) {
            LockStack.pop_back();
            LockSet = internLockSet(LockStack);
          }
          continue;
        default:
          continue;
        }
        AccessesByKey[Key].push_back({&S, F->getId(), LockSet, IsWrite});
      }
    }
  }

  /// Two accesses may run on different threads if their functions' root
  /// sets differ, or a shared root set contains a non-main root (entry
  /// methods can be spawned more than once).
  bool mayRunConcurrently(const Access &A, const Access &B) const {
    unsigned RA = RootSetOf[A.Fn], RB = RootSetOf[B.Fn];
    return RA != RB || NonMain[RA];
  }

  /// A function reachable from a non-main root may run on several threads
  /// at once (entry methods can be spawned repeatedly).
  bool canSelfRace(const Access &A) const { return NonMain[RootSetOf[A.Fn]]; }

  /// Lockset disjointness, computed once per pair of lockset ids.
  bool locksDisjoint(unsigned LA, unsigned LB) {
    if (LA == 0 || LB == 0)
      return true;
    if (LA == LB)
      return false;
    auto [It, Inserted] = DisjointCache.try_emplace(
        uint64_t(std::min(LA, LB)) << 32 | std::max(LA, LB), true);
    if (Inserted) {
      const std::vector<std::string> &A = *LockSets[LA], &B = *LockSets[LB];
      for (auto I = A.begin(), J = B.begin(); I != A.end() && J != B.end();) {
        int Cmp = I->compare(*J);
        if (Cmp == 0) {
          It->second = false;
          break;
        }
        if (Cmp < 0)
          ++I;
        else
          ++J;
      }
    }
    return It->second;
  }

  /// Accesses of one key that agree on (function, is-write, lockset) pass
  /// or fail every pairing condition together, so the scan runs over the
  /// first member of each class, in access order. The first valid access
  /// pair of a function pair is always a pair of class representatives
  /// (see docs/ANALYSES.md), so the warnings, their order and their
  /// representatives match a scan over every access pair.
  void emitWarnings() {
    std::vector<unsigned> FnSeen(Callees.size(), None);
    unsigned KeyIdx = 0;
    for (const auto &[Key, Accesses] : AccessesByKey) {
      std::vector<const Access *> Reps;
      std::unordered_set<uint64_t> Classes;
      bool AnyLocked = false;
      unsigned NumFns = 0;
      for (const Access &A : Accesses) {
        AnyLocked |= A.LockSet != 0;
        if (FnSeen[A.Fn] != KeyIdx) {
          FnSeen[A.Fn] = KeyIdx;
          ++NumFns;
        }
        if (Classes.insert(uint64_t(A.Fn) << 32 | uint64_t(A.LockSet) << 1 |
                           A.IsWrite)
                .second)
          Reps.push_back(&A);
      }
      ++KeyIdx;

      // Category 1: read/write race pairs, deduplicated the way RacerD
      // reports them — one warning per (location, function pair). A write
      // may also race with itself (I == J) when its function can run on
      // more than one thread and the access is unsynchronized.
      std::unordered_set<uint64_t> Reported;
      for (size_t I = 0; I < Reps.size(); ++I) {
        if (pollCancelled(Cancel)) {
          R.Cancelled = true;
          return;
        }
        const Access &A = *Reps[I];
        for (size_t J = I; J < Reps.size(); ++J) {
          const Access &B = *Reps[J];
          if (!A.IsWrite && !B.IsWrite)
            continue;
          if (I == J) {
            if (A.LockSet != 0 || !canSelfRace(A))
              continue;
          } else {
            if (!mayRunConcurrently(A, B))
              continue;
            if (!locksDisjoint(A.LockSet, B.LockSet))
              continue;
          }
          uint64_t FnPair = A.Fn < B.Fn ? uint64_t(A.Fn) << 32 | B.Fn
                                        : uint64_t(B.Fn) << 32 | A.Fn;
          if (!Reported.insert(FnPair).second)
            continue;
          R.Warnings.push_back({RacerDWarning::Kind::ReadWriteRace, Key, A.S,
                                B.S});
          ++R.NumPotentialRaces;
        }
      }

      // Category 2: unprotected writes in mixed-synchronization fields.
      if (!AnyLocked)
        continue;
      for (const Access &A : Accesses) {
        if (!A.IsWrite || A.LockSet != 0)
          continue;
        R.Warnings.push_back(
            {RacerDWarning::Kind::UnprotectedWrite, Key, A.S, nullptr});
        // The paper translates each unprotected-write report into its
        // implied conflicting-access pairs (one per other function that
        // touches the same location).
        R.NumPotentialRaces += NumFns - 1;
      }
    }
  }

  const Module &M;
  const CancellationToken *Cancel;
  RacerDReport R;
  std::map<std::string, std::vector<unsigned>> MethodsByName;
  std::vector<std::vector<unsigned>> Callees;
  std::vector<unsigned> RootSetOf; ///< per function; None if dead
  std::vector<bool> NonMain;       ///< per root set: holds a non-main root
  std::map<std::vector<std::string>, unsigned> LockSetIds;
  std::vector<const std::vector<std::string> *> LockSets; ///< by id
  std::unordered_map<uint64_t, bool> DisjointCache;
  std::map<std::string, std::vector<Access>> AccessesByKey;
};

} // namespace o2

void RacerDReport::print(OutputStream &OS) const {
  OS << "==== RacerD-like: " << Warnings.size() << " warning(s), "
     << NumPotentialRaces << " potential race(s) ====\n";
  for (const RacerDWarning &W : Warnings) {
    if (W.WarningKind == RacerDWarning::Kind::ReadWriteRace)
      OS << "read/write race on " << W.Location << ": '" << printStmt(*W.A)
         << "' vs '" << printStmt(*W.B) << "'\n";
    else
      OS << "unprotected write to " << W.Location << ": '" << printStmt(*W.A)
         << "'\n";
  }
}

RacerDReport o2::runRacerDLike(const Module &M,
                               const CancellationToken *Cancel) {
  return RacerDLikeDetector(M, Cancel).run();
}
