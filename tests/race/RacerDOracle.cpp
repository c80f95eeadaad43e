//===- RacerDOracle.cpp - Pairwise reference for the RacerD-like baseline -===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "RacerDOracle.h"

#include "o2/Support/Casting.h"

#include <deque>
#include <map>
#include <set>
#include <string>

using namespace o2;
using namespace o2::test;

namespace {

class PairwiseRacerD {
public:
  explicit PairwiseRacerD(const Module &M) : M(M) {}

  RacerDOracleResult run() {
    buildNameIndex();
    computeRootReachability();
    collectAccesses();
    emitWarnings();
    return std::move(R);
  }

private:
  struct Access {
    const Stmt *S;
    const Function *F;
    bool IsWrite;
    std::set<std::string> LockNames; ///< syntactic locks held
  };

  /// Map method name -> every method with that name anywhere: the
  /// detector has no pointer information, so a virtual call can reach any
  /// equally-named method (RacerD-style name-based resolution).
  void buildNameIndex() {
    for (const auto &F : M.functions())
      if (F->isMethod())
        MethodsByName[F->getName()].push_back(F.get());
  }

  void callees(const Function *F, std::vector<const Function *> &Out) {
    for (const auto &SPtr : F->body()) {
      if (const auto *Call = dyn_cast<CallStmt>(SPtr.get())) {
        if (Call->isVirtual()) {
          auto It = MethodsByName.find(Call->getMethodName());
          if (It != MethodsByName.end())
            Out.insert(Out.end(), It->second.begin(), It->second.end());
        } else {
          Out.push_back(Call->getDirectCallee());
        }
      } else if (const auto *A = dyn_cast<AllocStmt>(SPtr.get())) {
        if (const Function *Init = A->getAllocType()->findMethod("init"))
          Out.push_back(Init);
      }
    }
  }

  /// Reachability from each concurrency root (main + each spawned entry
  /// name instance). A function's root set tells whether two accesses can
  /// run on different threads.
  void computeRootReachability() {
    std::vector<const Function *> Roots;
    if (const Function *Main = M.getMain())
      Roots.push_back(Main);
    std::set<std::string> SpawnEntryNames;
    for (const auto &F : M.functions())
      for (const auto &SPtr : F->body())
        if (const auto *Sp = dyn_cast<SpawnStmt>(SPtr.get()))
          SpawnEntryNames.insert(Sp->getEntryName());
    for (const std::string &Name : SpawnEntryNames) {
      auto It = MethodsByName.find(Name);
      if (It == MethodsByName.end())
        continue;
      for (const Function *Entry : It->second)
        Roots.push_back(Entry);
    }

    for (size_t RootIdx = 0; RootIdx != Roots.size(); ++RootIdx) {
      std::deque<const Function *> Queue{Roots[RootIdx]};
      std::set<const Function *> Visited;
      while (!Queue.empty()) {
        const Function *F = Queue.front();
        Queue.pop_front();
        if (!Visited.insert(F).second)
          continue;
        RootsOf[F].insert(static_cast<unsigned>(RootIdx));
        std::vector<const Function *> Out;
        callees(F, Out);
        for (const Function *Callee : Out)
          Queue.push_back(Callee);
      }
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

  void collectAccesses() {
    for (const auto &FPtr : M.functions()) {
      const Function *F = FPtr.get();
      if (!RootsOf.count(F))
        continue; // dead code
      std::set<const Variable *> Owned = ownedVariables(F);
      std::vector<std::string> LockStack;
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
          continue;
        case Stmt::SK_Release:
          if (!LockStack.empty())
            LockStack.pop_back();
          continue;
        default:
          continue;
        }
        Access A;
        A.S = &S;
        A.F = F;
        A.IsWrite = IsWrite;
        A.LockNames.insert(LockStack.begin(), LockStack.end());
        AccessesByKey[Key].push_back(std::move(A));
      }
    }
  }

  /// Two accesses may run on different threads if their functions' root
  /// sets differ, or a shared root set contains a non-main root (entry
  /// methods can be spawned more than once).
  bool mayRunConcurrently(const Access &A, const Access &B) const {
    const std::set<unsigned> &RA = RootsOf.at(A.F);
    const std::set<unsigned> &RB = RootsOf.at(B.F);
    if (RA != RB)
      return true;
    for (unsigned Root : RA)
      if (Root != 0) // root 0 is main; entry roots may self-parallelize
        return true;
    return false;
  }

  /// A function reachable from a non-main root may run on several threads
  /// at once (entry methods can be spawned repeatedly).
  bool canSelfRace(const Access &A) const {
    for (unsigned Root : RootsOf.at(A.F))
      if (Root != 0)
        return true;
    return false;
  }

  static bool locksDisjoint(const Access &A, const Access &B) {
    for (const std::string &L : A.LockNames)
      if (B.LockNames.count(L))
        return false;
    return true;
  }

  void emitWarnings() {
    for (const auto &[Key, Accesses] : AccessesByKey) {
      bool AnyLocked = false;
      for (const Access &A : Accesses)
        AnyLocked |= !A.LockNames.empty();

      // Category 1: read/write race pairs, deduplicated the way RacerD
      // reports them — one warning per (location, function pair). A write
      // may also race with itself (I == J) when its function can run on
      // more than one thread and the access is unsynchronized.
      std::set<std::pair<const Function *, const Function *>> Reported;
      for (size_t I = 0; I < Accesses.size(); ++I) {
        for (size_t J = I; J < Accesses.size(); ++J) {
          const Access &A = Accesses[I];
          const Access &B = Accesses[J];
          if (!A.IsWrite && !B.IsWrite)
            continue;
          if (I == J) {
            if (!A.IsWrite || !A.LockNames.empty() || !canSelfRace(A))
              continue;
          } else {
            if (!mayRunConcurrently(A, B))
              continue;
            if (!locksDisjoint(A, B))
              continue;
          }
          auto FnPair = A.F < B.F ? std::make_pair(A.F, B.F)
                                  : std::make_pair(B.F, A.F);
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
      std::set<const Function *> AccessingFns;
      for (const Access &A : Accesses)
        AccessingFns.insert(A.F);
      for (const Access &A : Accesses) {
        if (!A.IsWrite || !A.LockNames.empty())
          continue;
        R.Warnings.push_back(
            {RacerDWarning::Kind::UnprotectedWrite, Key, A.S, nullptr});
        // The paper translates each unprotected-write report into its
        // implied conflicting-access pairs (one per other function that
        // touches the same location).
        R.NumPotentialRaces +=
            static_cast<unsigned>(AccessingFns.size()) - 1;
      }
    }
  }

  const Module &M;
  RacerDOracleResult R;
  std::map<std::string, std::vector<const Function *>> MethodsByName;
  std::map<const Function *, std::set<unsigned>> RootsOf;
  std::map<std::string, std::vector<Access>> AccessesByKey;
};

} // namespace

RacerDOracleResult o2::test::runRacerDOracle(const Module &M) {
  return PairwiseRacerD(M).run();
}
