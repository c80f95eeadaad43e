//===- Module.cpp - OIR module, types, and functions ----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Module.h"

#include "o2/Support/Compiler.h"

using namespace o2;

//===----------------------------------------------------------------------===//
// ClassType
//===----------------------------------------------------------------------===//

Field *ClassType::addField(const std::string &FieldName, Type *Ty,
                           bool IsAtomic) {
  assert(!findField(FieldName) && "field redeclared along superclass chain");
  Fields.push_back(std::make_unique<Field>(
      FieldName, Ty, this, ParentModule.takeFieldId(), IsAtomic));
  return Fields.back().get();
}

void ClassType::addMethod(Function *Method) {
  assert(Method && "null method");
  assert(!Method->isMethod() && "function already attached to a class");
  Method->Class = this;
  Methods.push_back(Method);
  ParentModule.unindexMethod(Method);
}

Field *ClassType::findField(std::string_view FieldName) const {
  for (const ClassType *C = this; C; C = C->Super)
    for (const auto &F : C->Fields)
      if (F->getName() == FieldName)
        return F.get();
  return nullptr;
}

Function *ClassType::findMethod(std::string_view MethodName) const {
  for (const ClassType *C = this; C; C = C->Super)
    for (Function *M : C->Methods)
      if (M->getName() == MethodName)
        return M;
  return nullptr;
}

bool ClassType::isSubclassOf(const ClassType *Other) const {
  for (const ClassType *C = this; C; C = C->Super)
    if (C == Other)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Variable *Function::addParam(const std::string &ParamName, Type *Ty) {
  assert(!findVariable(ParamName) && "parameter name already in use");
  Vars.push_back(std::make_unique<Variable>(
      ParamName, Ty, this, ParentModule.takeVarId(), /*IsParam=*/true));
  Params.push_back(Vars.back().get());
  return Vars.back().get();
}

Variable *Function::addLocal(const std::string &LocalName, Type *Ty) {
  assert(!findVariable(LocalName) && "local name already in use");
  Vars.push_back(std::make_unique<Variable>(
      LocalName, Ty, this, ParentModule.takeVarId(), /*IsParam=*/false));
  return Vars.back().get();
}

Variable *Function::findVariable(std::string_view VarName) const {
  for (const auto &V : Vars)
    if (V->getName() == VarName)
      return V.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

ClassType *Module::addClass(const std::string &ClassName, ClassType *Super) {
  assert(!findClass(ClassName) && "class name already in use");
  Classes.push_back(std::make_unique<ClassType>(ClassName, Super, *this));
  ClassByName.emplace(Classes.back()->getName(), Classes.back().get());
  return Classes.back().get();
}

ArrayType *Module::getArrayType(Type *Elem) {
  auto &Slot = ArrayTypes[Elem];
  if (!Slot)
    Slot = std::make_unique<ArrayType>(Elem);
  return Slot.get();
}

Global *Module::addGlobal(const std::string &GlobalName, Type *Ty,
                          bool IsAtomic) {
  assert(!findGlobal(GlobalName) && "global name already in use");
  Globals.push_back(std::make_unique<Global>(
      GlobalName, Ty, static_cast<unsigned>(Globals.size()), IsAtomic));
  GlobalByName.emplace(Globals.back()->getName(), Globals.back().get());
  return Globals.back().get();
}

Function *Module::addFunction(const std::string &FuncName, Type *RetTy) {
  Functions.push_back(
      std::make_unique<Function>(FuncName, RetTy, *this, NextFuncId++));
  Function *F = Functions.back().get();
  // A new function is free; it is indexed unless an older free one has
  // its name.
  FunctionByName.emplace(F->getName(), F);
  return F;
}

void Module::unindexMethod(Function *Method) {
  assert(Functions[Method->getId()].get() == Method && "ID is the index");
  auto It = FunctionByName.find(Method->getName());
  if (It == FunctionByName.end() || It->second != Method)
    return;
  // Every older function of this name is a method, so the first newer free
  // one, if any, takes its place. A method is usually attached right after
  // it is created, which leaves nothing to scan.
  for (size_t I = Method->getId() + 1; I < Functions.size(); ++I)
    if (!Functions[I]->isMethod() && Functions[I]->getName() == It->first) {
      It->second = Functions[I].get();
      return;
    }
  FunctionByName.erase(It);
}

template <typename MapT>
static auto lookup(const MapT &Map, std::string_view Name) {
  auto It = Map.find(Name);
  return It == Map.end() ? nullptr : It->second;
}

ClassType *Module::findClass(std::string_view ClassName) const {
  return lookup(ClassByName, ClassName);
}

Global *Module::findGlobal(std::string_view GlobalName) const {
  return lookup(GlobalByName, GlobalName);
}

Function *Module::findFunction(std::string_view FuncName) const {
  return lookup(FunctionByName, FuncName);
}

unsigned Module::numProgramStmts() const {
  unsigned N = 0;
  for (const auto &F : Functions)
    N += static_cast<unsigned>(F->size());
  return N;
}
