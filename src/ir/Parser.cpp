//===- Parser.cpp - Textual OIR parser -------------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The parser runs in three passes over a pre-lexed token stream:
//   1. register every class name (with its super's name) and skip bodies;
//   2. parse globals, class fields, and method/function signatures;
//   3. parse method/function bodies.
// This allows forward references between all top-level entities.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/IRBuilder.h"
#include "o2/Support/Casting.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <vector>

using namespace o2;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind : uint8_t {
  Ident,
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Colon,
  Semi,
  Comma,
  Dot,
  Equal,
  At,
  Star,
  Eof,
};

struct Token {
  TokKind Kind;
  std::string_view Text;
  unsigned Line;
  unsigned Col;
};

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) {}

  /// Lexes the whole input; returns false and sets \p Error on a bad char.
  bool lexAll(std::vector<Token> &Out, std::string &Error) {
    while (true) {
      skipWhitespaceAndComments();
      if (Pos >= Src.size()) {
        Out.push_back({TokKind::Eof, "", Line, Col});
        return true;
      }
      char C = Src[Pos];
      if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
          C == '$') {
        Out.push_back(lexIdent());
        continue;
      }
      TokKind Kind;
      switch (C) {
      case '{': Kind = TokKind::LBrace; break;
      case '}': Kind = TokKind::RBrace; break;
      case '(': Kind = TokKind::LParen; break;
      case ')': Kind = TokKind::RParen; break;
      case '[': Kind = TokKind::LBracket; break;
      case ']': Kind = TokKind::RBracket; break;
      case ':': Kind = TokKind::Colon; break;
      case ';': Kind = TokKind::Semi; break;
      case ',': Kind = TokKind::Comma; break;
      case '.': Kind = TokKind::Dot; break;
      case '=': Kind = TokKind::Equal; break;
      case '@': Kind = TokKind::At; break;
      case '*': Kind = TokKind::Star; break;
      default:
        Error = std::to_string(Line) + ":" + std::to_string(Col) +
                ": unexpected character '" + std::string(1, C) + "'";
        return false;
      }
      Out.push_back({Kind, Src.substr(Pos, 1), Line, Col});
      advance();
    }
  }

private:
  void advance() {
    if (Src[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  void skipWhitespaceAndComments() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (std::isspace(static_cast<unsigned char>(C))) {
        advance();
        continue;
      }
      if (C == '/' && Pos + 1 < Src.size() && Src[Pos + 1] == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          advance();
        continue;
      }
      return;
    }
  }

  Token lexIdent() {
    size_t Start = Pos;
    unsigned StartLine = Line, StartCol = Col;
    while (Pos < Src.size() &&
           (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
            Src[Pos] == '_' || Src[Pos] == '$'))
      advance();
    return {TokKind::Ident, Src.substr(Start, Pos - Start), StartLine,
            StartCol};
  }

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::string &Error)
      : Tokens(std::move(Tokens)), Error(Error) {}

  std::unique_ptr<Module> run(const std::string &ModuleName) {
    M = std::make_unique<Module>(ModuleName);
    if (!passRegisterClasses() || !passSignatures() || !passBodies())
      return nullptr;
    return std::move(M);
  }

private:
  // -- Token-stream helpers -------------------------------------------------

  const Token &peek(unsigned Ahead = 0) const {
    size_t Idx = Cursor + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }

  const Token &take() {
    const Token &T = peek();
    if (T.Kind != TokKind::Eof)
      ++Cursor;
    return T;
  }

  bool at(TokKind K) const { return peek().Kind == K; }

  bool atKeyword(std::string_view KW) const {
    return peek().Kind == TokKind::Ident && peek().Text == KW;
  }

  bool consumeIf(TokKind K) {
    if (!at(K))
      return false;
    take();
    return true;
  }

  bool expect(TokKind K, const char *What) {
    if (consumeIf(K))
      return true;
    return fail(std::string("expected ") + What);
  }

  bool expectKeyword(std::string_view KW) {
    if (atKeyword(KW)) {
      take();
      return true;
    }
    return fail("expected keyword '" + std::string(KW) + "'");
  }

  bool fail(const std::string &Msg) {
    const Token &T = peek();
    failAt(T, Msg);
    if (T.Kind == TokKind::Ident)
      Error += " (got '" + std::string(T.Text) + "')";
    return false;
  }

  /// Reports \p Msg positioned at \p T, without echoing the token.
  bool failAt(const Token &T, const std::string &Msg) {
    Error = std::to_string(T.Line) + ":" + std::to_string(T.Col) + ": " + Msg;
    return false;
  }

  /// Skips a balanced { ... } block; the cursor must be at '{'.
  bool skipBlock() {
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    unsigned Depth = 1;
    while (Depth > 0) {
      if (at(TokKind::Eof))
        return fail("unterminated block");
      TokKind K = take().Kind;
      if (K == TokKind::LBrace)
        ++Depth;
      else if (K == TokKind::RBrace)
        --Depth;
    }
    return true;
  }

  /// Skips tokens up to and including the next ';'.
  bool skipToSemi() {
    while (!at(TokKind::Eof))
      if (take().Kind == TokKind::Semi)
        return true;
    return fail("unterminated declaration");
  }

  // -- Pass 1: class names --------------------------------------------------

  bool passRegisterClasses() {
    Cursor = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword("class")) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected class name");
        std::string Name(take().Text);
        if (M->findClass(Name))
          return fail("duplicate class '" + Name + "'");
        std::string SuperName;
        if (atKeyword("extends")) {
          take();
          if (!at(TokKind::Ident))
            return fail("expected superclass name");
          SuperName = std::string(take().Text);
        }
        M->addClass(Name);
        PendingSupers.emplace_back(Name, SuperName);
        if (!skipBlock())
          return false;
        continue;
      }
      if (atKeyword("global")) {
        if (!skipToSemi())
          return false;
        continue;
      }
      if (atKeyword("func")) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected function name");
        take();
        if (!skipSignatureThenBlock())
          return false;
        continue;
      }
      return fail("expected 'class', 'global', or 'func'");
    }
    // Link superclasses now that every class exists.
    for (const auto &[Name, SuperName] : PendingSupers) {
      if (SuperName.empty())
        continue;
      ClassType *Super = M->findClass(SuperName);
      if (!Super) {
        Error = "unknown superclass '" + SuperName + "' of class '" + Name +
                "'";
        return false;
      }
      Supers[Name] = Super;
    }
    return true;
  }

  bool skipSignatureThenBlock() {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (!at(TokKind::RParen)) {
      if (at(TokKind::Eof))
        return fail("unterminated parameter list");
      take();
    }
    take(); // ')'
    if (consumeIf(TokKind::Colon))
      if (!skipType())
        return false;
    return skipBlock();
  }

  bool skipType() {
    if (!at(TokKind::Ident))
      return fail("expected type");
    take();
    while (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    return true;
  }

  // -- Type resolution ------------------------------------------------------

  Type *parseType() {
    if (!at(TokKind::Ident)) {
      fail("expected type");
      return nullptr;
    }
    std::string Name(take().Text);
    Type *Ty = nullptr;
    if (Name == "int") {
      Ty = M->getIntType();
    } else {
      Ty = M->findClass(Name);
      if (!Ty) {
        fail("unknown type '" + Name + "'");
        return nullptr;
      }
    }
    while (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::RBracket, "']'"))
        return nullptr;
      Ty = M->getArrayType(Ty);
    }
    return Ty;
  }

  // -- Pass 2: globals, fields, signatures ----------------------------------

  bool passSignatures() {
    Cursor = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword("class")) {
        take();
        ClassType *C = M->findClass(std::string(take().Text));
        assert(C && "class registered in pass 1");
        // Re-create the super link made in pass 1.
        if (auto It = Supers.find(C->getName()); It != Supers.end())
          linkSuper(C, It->second);
        if (atKeyword("extends")) {
          take();
          take();
        }
        if (!expect(TokKind::LBrace, "'{'"))
          return false;
        while (!consumeIf(TokKind::RBrace)) {
          if (atKeyword("field")) {
            if (!parseFieldDecl(C))
              return false;
          } else if (atKeyword("method")) {
            if (!parseCallableSignature(C))
              return false;
          } else {
            return fail("expected 'field' or 'method'");
          }
        }
        continue;
      }
      if (atKeyword("global")) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected global name");
        std::string Name(take().Text);
        if (M->findGlobal(Name))
          return fail("duplicate global '" + Name + "'");
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Type *Ty = parseType();
        if (!Ty)
          return false;
        bool IsAtomic = false;
        if (atKeyword("atomic")) {
          take();
          IsAtomic = true;
        }
        M->addGlobal(Name, Ty, IsAtomic);
        if (!expect(TokKind::Semi, "';'"))
          return false;
        continue;
      }
      if (atKeyword("func")) {
        if (!parseCallableSignature(nullptr))
          return false;
        continue;
      }
      O2_UNREACHABLE("pass 1 validated top-level structure");
    }
    return true;
  }

  void linkSuper(ClassType *C, ClassType *Super) {
    // ClassType's super is set at construction; pass 1 could not know it
    // yet, so Module::addClass created the class with a null super and we
    // patch it here through a friend-free back door: recreate field/method
    // lookup via an explicit map consulted by this parser only.
    //
    // To keep the IR immutable-after-construction, Module::addClass is
    // instead called with the resolved super here in pass 2 -- but the
    // class already exists. The clean solution is a setter; see
    // ClassType::setSuperForParser.
    C->setSuperForParser(Super);
  }

  bool parseFieldDecl(ClassType *C) {
    expectKeyword("field");
    if (!at(TokKind::Ident))
      return fail("expected field name");
    std::string Name(take().Text);
    if (C->findField(Name))
      return fail("duplicate field '" + Name + "'");
    if (!expect(TokKind::Colon, "':'"))
      return false;
    Type *Ty = parseType();
    if (!Ty)
      return false;
    bool IsAtomic = false;
    if (atKeyword("atomic")) {
      take();
      IsAtomic = true;
    }
    C->addField(Name, Ty, IsAtomic);
    return expect(TokKind::Semi, "';'");
  }

  /// Parses a 'method' or 'func' signature, creating the Function with its
  /// parameters, then skips the body (parsed in pass 3).
  bool parseCallableSignature(ClassType *C) {
    take(); // 'method' or 'func'
    if (!at(TokKind::Ident))
      return fail("expected function name");
    std::string Name(take().Text);
    if (!C && M->findFunction(Name))
      return fail("duplicate function '" + Name + "'");
    if (C)
      for (Function *Existing : C->methods())
        if (Existing->getName() == Name)
          return fail("duplicate method '" + Name + "'");

    if (!expect(TokKind::LParen, "'('"))
      return false;
    struct Param {
      std::string Name;
      Type *Ty;
    };
    std::vector<Param> Params;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected parameter name");
        const Token &PTok = take();
        std::string PName(PTok.Text);
        // Methods declare 'this' implicitly, so it is taken already.
        if ((C && PName == "this") ||
            std::any_of(Params.begin(), Params.end(),
                        [&](const Param &P) { return P.Name == PName; }))
          return failAt(PTok, "duplicate parameter '" + PName + "'");
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Type *PTy = parseType();
        if (!PTy)
          return false;
        Params.push_back({std::move(PName), PTy});
      } while (consumeIf(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    Type *RetTy = nullptr;
    if (consumeIf(TokKind::Colon)) {
      RetTy = parseType();
      if (!RetTy)
        return false;
    }

    Function *F = M->addFunction(Name, RetTy);
    if (C) {
      C->addMethod(F);
      F->addParam("this", C);
    }
    for (const Param &P : Params)
      F->addParam(P.Name, P.Ty);
    BodyOrder.push_back(F);
    return skipBlock();
  }

  // -- Pass 3: bodies -------------------------------------------------------

  bool passBodies() {
    Cursor = 0;
    size_t NextBody = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword("class")) {
        take();
        take(); // name
        if (atKeyword("extends")) {
          take();
          take();
        }
        if (!expect(TokKind::LBrace, "'{'"))
          return false;
        while (!consumeIf(TokKind::RBrace)) {
          if (atKeyword("field")) {
            if (!skipToSemi())
              return false;
          } else {
            if (!skipCallableHead())
              return false;
            if (!parseBody(BodyOrder[NextBody++]))
              return false;
          }
        }
        continue;
      }
      if (atKeyword("global")) {
        if (!skipToSemi())
          return false;
        continue;
      }
      // func
      if (!skipCallableHead())
        return false;
      if (!parseBody(BodyOrder[NextBody++]))
        return false;
    }
    return true;
  }

  /// Skips 'method'/'func' NAME (params) [: type], stopping at '{'.
  bool skipCallableHead() {
    take(); // 'method' or 'func'
    take(); // name
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (!at(TokKind::RParen))
      take();
    take();
    if (consumeIf(TokKind::Colon))
      if (!skipType())
        return false;
    return true;
  }

  bool parseBody(Function *F) {
    IRBuilder B(*M, F);
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    return parseStmtsUntilRBrace(B, F);
  }

  bool parseStmtsUntilRBrace(IRBuilder &B, Function *F) {
    while (!consumeIf(TokKind::RBrace)) {
      if (at(TokKind::Eof))
        return fail("unterminated body");
      if (!parseStmt(B, F))
        return false;
    }
    return true;
  }

  Variable *lookupVar(Function *F, const Token &T) {
    Variable *V = F->findVariable(std::string(T.Text));
    if (!V)
      failAt(T, "unknown variable '" + std::string(T.Text) + "'");
    return V;
  }

  /// Parses "(a, b, c)" into variables of \p F.
  bool parseArgs(Function *F, SmallVectorImpl<Variable *> &Args) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected argument variable");
        Variable *V = lookupVar(F, take());
        if (!V)
          return false;
        Args.push_back(V);
      } while (consumeIf(TokKind::Comma));
    }
    return expect(TokKind::RParen, "')'");
  }

  bool parseStmt(IRBuilder &B, Function *F) {
    // Keyword statements.
    if (atKeyword("var")) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected variable name");
      std::string Name(take().Text);
      if (F->findVariable(Name))
        return fail("duplicate variable '" + Name + "'");
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type *Ty = parseType();
      if (!Ty)
        return false;
      F->addLocal(Name, Ty);
      return expect(TokKind::Semi, "';'");
    }
    if (atKeyword("loop")) {
      take();
      if (!expect(TokKind::LBrace, "'{'"))
        return false;
      B.beginLoop();
      if (!parseStmtsUntilRBrace(B, F))
        return false;
      B.endLoop();
      return true;
    }
    if (atKeyword("spawn")) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected spawn receiver");
      Variable *Recv = lookupVar(F, take());
      if (!Recv)
        return false;
      if (!expect(TokKind::Dot, "'.'"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected entry method name");
      std::string Entry(take().Text);
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(F, Args))
        return false;
      B.spawn(Recv, Entry, Args);
      return expect(TokKind::Semi, "';'");
    }
    if (atKeyword("join")) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected join receiver");
      Variable *Recv = lookupVar(F, take());
      if (!Recv)
        return false;
      B.join(Recv);
      return expect(TokKind::Semi, "';'");
    }
    if (atKeyword("acquire") || atKeyword("release")) {
      bool IsAcquire = peek().Text == "acquire";
      take();
      if (!at(TokKind::Ident))
        return fail("expected lock variable");
      Variable *L = lookupVar(F, take());
      if (!L)
        return false;
      if (IsAcquire)
        B.acquire(L);
      else
        B.release(L);
      return expect(TokKind::Semi, "';'");
    }
    if (atKeyword("return")) {
      take();
      Variable *V = nullptr;
      if (at(TokKind::Ident)) {
        V = lookupVar(F, take());
        if (!V)
          return false;
      }
      B.ret(V);
      return expect(TokKind::Semi, "';'");
    }
    // Global store: @g = x;
    if (at(TokKind::At)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected global name");
      std::string GName(take().Text);
      Global *G = M->findGlobal(GName);
      if (!G)
        return fail("unknown global '" + GName + "'");
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      B.globalStore(G, Src);
      return expect(TokKind::Semi, "';'");
    }

    // Remaining forms start with an identifier.
    if (!at(TokKind::Ident))
      return fail("expected statement");
    Token First = take();

    // ID . ID ( ... ) ;     virtual call, result dropped
    // ID . ID = ID ;        field store
    // ID . ID missing '='   error
    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      Token Member = take();
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(F, Args))
          return false;
        if (!makeVirtualCall(B, nullptr, Base, std::string(Member.Text), Args))
          return false;
        return expect(TokKind::Semi, "';'");
      }
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      Field *Fld = resolveFieldOrFail(Base, Member);
      if (!Fld)
        return false;
      B.fieldStore(Base, Fld, Src);
      return expect(TokKind::Semi, "';'");
    }

    // ID [ * ] = ID ;       array store
    if (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::Star, "'*'") || !expect(TokKind::RBracket, "']'") ||
          !expect(TokKind::Equal, "'='"))
        return false;
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(F, take());
      if (!Src)
        return false;
      B.arrayStore(Base, Src);
      return expect(TokKind::Semi, "';'");
    }

    // ID ( ... ) ;           direct call, result dropped
    if (at(TokKind::LParen)) {
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(F, Args))
        return false;
      Function *Callee = M->findFunction(std::string(First.Text));
      if (!Callee)
        return fail("unknown function '" + std::string(First.Text) + "'");
      B.callDirect(nullptr, Callee, Args);
      return expect(TokKind::Semi, "';'");
    }

    // ID = rhs ;
    if (!expect(TokKind::Equal, "'='"))
      return false;
    Variable *Target = lookupVar(F, First);
    if (!Target)
      return false;
    if (!parseRhs(B, F, Target))
      return false;
    return expect(TokKind::Semi, "';'");
  }

  Field *resolveFieldOrFail(Variable *Base, const Token &Member) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C) {
      Error = std::to_string(Member.Line) + ":" + std::to_string(Member.Col) +
              ": field access on non-class variable '" + Base->getName() +
              "'";
      return nullptr;
    }
    Field *Fld = C->findField(std::string(Member.Text));
    if (!Fld) {
      Error = std::to_string(Member.Line) + ":" + std::to_string(Member.Col) +
              ": class '" + C->getName() + "' has no field '" +
              std::string(Member.Text) + "'";
    }
    return Fld;
  }

  bool makeVirtualCall(IRBuilder &B, Variable *Target, Variable *Base,
                       const std::string &MethodName,
                       const SmallVectorImpl<Variable *> &Args) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C)
      return fail("virtual call on non-class variable '" + Base->getName() +
                  "'");
    B.call(Target, Base,
           MethodName, ArrayRef<Variable *>(Args.data(), Args.size()));
    return true;
  }

  bool parseRhs(IRBuilder &B, Function *F, Variable *Target) {
    if (atKeyword("new")) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected class name after 'new'");
      std::string CName(take().Text);
      ClassType *C = M->findClass(CName);
      if (!C)
        return fail("unknown class '" + CName + "'");
      SmallVector<Variable *, 4> Args;
      if (at(TokKind::LParen))
        if (!parseArgs(F, Args))
          return false;
      B.alloc(Target, C, ArrayRef<Variable *>(Args.data(), Args.size()));
      return true;
    }
    if (atKeyword("newarray")) {
      take();
      Type *Elem = parseType();
      if (!Elem)
        return false;
      B.allocArray(Target, M->getArrayType(Elem));
      return true;
    }
    if (at(TokKind::At)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected global name");
      std::string GName(take().Text);
      Global *G = M->findGlobal(GName);
      if (!G)
        return fail("unknown global '" + GName + "'");
      B.globalLoad(Target, G);
      return true;
    }
    if (!at(TokKind::Ident))
      return fail("expected expression");
    Token First = take();

    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      Token Member = take();
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(F, Args))
          return false;
        return makeVirtualCall(B, Target, Base, std::string(Member.Text),
                               Args);
      }
      Field *Fld = resolveFieldOrFail(Base, Member);
      if (!Fld)
        return false;
      B.fieldLoad(Target, Base, Fld);
      return true;
    }
    if (at(TokKind::LBracket)) {
      take();
      if (!expect(TokKind::Star, "'*'") || !expect(TokKind::RBracket, "']'"))
        return false;
      Variable *Base = lookupVar(F, First);
      if (!Base)
        return false;
      B.arrayLoad(Target, Base);
      return true;
    }
    if (at(TokKind::LParen)) {
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(F, Args))
        return false;
      Function *Callee = M->findFunction(std::string(First.Text));
      if (!Callee)
        return fail("unknown function '" + std::string(First.Text) + "'");
      B.callDirect(Target, Callee,
                   ArrayRef<Variable *>(Args.data(), Args.size()));
      return true;
    }
    // Plain copy.
    Variable *Src = lookupVar(F, First);
    if (!Src)
      return false;
    B.assign(Target, Src);
    return true;
  }

  std::vector<Token> Tokens;
  std::string &Error;
  size_t Cursor = 0;
  std::unique_ptr<Module> M;
  std::vector<std::pair<std::string, std::string>> PendingSupers;
  std::map<std::string, ClassType *> Supers;
  std::vector<Function *> BodyOrder;
};

} // namespace

std::unique_ptr<Module> o2::parseModule(std::string_view Source,
                                        std::string &Error,
                                        const std::string &ModuleName) {
  Lexer L(Source);
  std::vector<Token> Tokens;
  if (!L.lexAll(Tokens, Error))
    return nullptr;
  Parser P(std::move(Tokens), Error);
  return P.run(ModuleName);
}
