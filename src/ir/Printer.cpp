//===- Printer.cpp - Textual OIR printer -----------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Printer.h"

#include "o2/IR/Module.h"
#include "o2/Support/ArrayRef.h"
#include "o2/Support/Casting.h"
#include "o2/Support/OutputStream.h"

using namespace o2;

static void printArgs(ArrayRef<Variable *> Args, OutputStream &OS) {
  OS << '(';
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (I)
      OS << ", ";
    OS << Args[I]->getName();
  }
  OS << ')';
}

void o2::printStmt(const Stmt &S, OutputStream &OS) {
  switch (S.getKind()) {
  case Stmt::SK_Alloc: {
    const auto &A = cast<AllocStmt>(S);
    OS << A.getTarget()->getName() << " = new "
       << A.getAllocType()->getName();
    if (!A.getArgs().empty())
      printArgs(ArrayRef<Variable *>(A.getArgs().data(), A.getArgs().size()),
                OS);
    return;
  }
  case Stmt::SK_ArrayAlloc: {
    const auto &A = cast<ArrayAllocStmt>(S);
    OS << A.getTarget()->getName() << " = newarray "
       << A.getAllocType()->getElementType()->getName();
    return;
  }
  case Stmt::SK_Assign: {
    const auto &A = cast<AssignStmt>(S);
    OS << A.getTarget()->getName() << " = " << A.getSource()->getName();
    return;
  }
  case Stmt::SK_FieldLoad: {
    const auto &L = cast<FieldLoadStmt>(S);
    OS << L.getTarget()->getName() << " = " << L.getBase()->getName() << '.'
       << L.getField()->getName();
    return;
  }
  case Stmt::SK_FieldStore: {
    const auto &St = cast<FieldStoreStmt>(S);
    OS << St.getBase()->getName() << '.' << St.getField()->getName() << " = "
       << St.getSource()->getName();
    return;
  }
  case Stmt::SK_ArrayLoad: {
    const auto &L = cast<ArrayLoadStmt>(S);
    OS << L.getTarget()->getName() << " = " << L.getBase()->getName()
       << "[*]";
    return;
  }
  case Stmt::SK_ArrayStore: {
    const auto &St = cast<ArrayStoreStmt>(S);
    OS << St.getBase()->getName() << "[*] = " << St.getSource()->getName();
    return;
  }
  case Stmt::SK_GlobalLoad: {
    const auto &L = cast<GlobalLoadStmt>(S);
    OS << L.getTarget()->getName() << " = @" << L.getGlobal()->getName();
    return;
  }
  case Stmt::SK_GlobalStore: {
    const auto &St = cast<GlobalStoreStmt>(S);
    OS << '@' << St.getGlobal()->getName() << " = "
       << St.getSource()->getName();
    return;
  }
  case Stmt::SK_Call: {
    const auto &C = cast<CallStmt>(S);
    if (C.getTarget())
      OS << C.getTarget()->getName() << " = ";
    if (C.isVirtual())
      OS << C.getReceiver()->getName() << '.' << C.getMethodName();
    else
      OS << C.getDirectCallee()->getName();
    printArgs(ArrayRef<Variable *>(C.getArgs().data(), C.getArgs().size()),
              OS);
    return;
  }
  case Stmt::SK_Spawn: {
    const auto &Sp = cast<SpawnStmt>(S);
    OS << "spawn " << Sp.getReceiver()->getName() << '.' << Sp.getEntryName();
    printArgs(ArrayRef<Variable *>(Sp.getArgs().data(), Sp.getArgs().size()),
              OS);
    return;
  }
  case Stmt::SK_Join:
    OS << "join " << cast<JoinStmt>(S).getReceiver()->getName();
    return;
  case Stmt::SK_Acquire:
    OS << "acquire " << cast<AcquireStmt>(S).getLock()->getName();
    return;
  case Stmt::SK_Release:
    OS << "release " << cast<ReleaseStmt>(S).getLock()->getName();
    return;
  case Stmt::SK_Return: {
    const auto &R = cast<ReturnStmt>(S);
    OS << "return";
    if (R.getValue())
      OS << ' ' << R.getValue()->getName();
    return;
  }
  }
  O2_UNREACHABLE("covered switch");
}

std::string o2::printStmt(const Stmt &S) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printStmt(S, OS);
  return Buf;
}

/// True if a statement needs a `loop { }` wrapper to round-trip its
/// in-loop flag.
static bool isInLoop(const Stmt &S) {
  if (const auto *A = dyn_cast<AllocStmt>(&S))
    return A->isInLoop();
  if (const auto *A = dyn_cast<ArrayAllocStmt>(&S))
    return A->isInLoop();
  if (const auto *Sp = dyn_cast<SpawnStmt>(&S))
    return Sp->isInLoop();
  return false;
}

static void printBody(const Function &F, OutputStream &OS) {
  OS << " {\n";
  for (const auto &V : F.variables()) {
    if (V->isParam())
      continue;
    OS.indent(4) << "var " << V->getName() << ": " << V->getType()->getName()
                 << ";\n";
  }
  for (const auto &S : F.body()) {
    bool Loop = isInLoop(*S);
    OS.indent(4);
    if (Loop)
      OS << "loop { ";
    printStmt(*S, OS);
    OS << ';';
    if (Loop)
      OS << " }";
    OS << '\n';
  }
  OS.indent(2) << "}\n";
}

static void printSignature(const Function &F, OutputStream &OS) {
  OS << F.getName() << '(';
  bool FirstParam = true;
  for (const Variable *P : F.params()) {
    if (F.isMethod() && P == F.params().front())
      continue; // 'this' is implicit
    if (!FirstParam)
      OS << ", ";
    FirstParam = false;
    OS << P->getName() << ": " << P->getType()->getName();
  }
  OS << ')';
  if (F.getReturnType())
    OS << ": " << F.getReturnType()->getName();
}

void o2::printModule(const Module &M, OutputStream &OS) {
  for (const auto &G : M.globals()) {
    OS << "global " << G->getName() << ": " << G->getType()->getName();
    if (G->isAtomic())
      OS << " atomic";
    OS << ";\n";
  }
  if (!M.globals().empty())
    OS << '\n';

  for (const auto &C : M.classes()) {
    OS << "class " << C->getName();
    if (C->getSuper())
      OS << " extends " << C->getSuper()->getName();
    OS << " {\n";
    for (const auto &Fld : C->fields()) {
      OS.indent(2) << "field " << Fld->getName() << ": "
                   << Fld->getType()->getName();
      if (Fld->isAtomic())
        OS << " atomic";
      OS << ";\n";
    }
    for (const Function *Method : C->methods()) {
      OS.indent(2) << "method ";
      printSignature(*Method, OS);
      printBody(*Method, OS);
    }
    OS << "}\n\n";
  }

  for (const auto &F : M.functions()) {
    if (F->isMethod())
      continue;
    OS << "func ";
    printSignature(*F, OS);
    OS << " {\n";
    for (const auto &V : F->variables()) {
      if (V->isParam())
        continue;
      OS.indent(4) << "var " << V->getName() << ": "
                   << V->getType()->getName() << ";\n";
    }
    for (const auto &S : F->body()) {
      bool Loop = isInLoop(*S);
      OS.indent(4);
      if (Loop)
        OS << "loop { ";
      printStmt(*S, OS);
      OS << ';';
      if (Loop)
        OS << " }";
      OS << '\n';
    }
    OS << "}\n\n";
  }
}

std::string o2::printModule(const Module &M) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printModule(M, OS);
  return Buf;
}
