//===- Parser.cpp - Textual OIR parser -------------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The lexer makes one pass over the source and writes a flat array of
// 12-byte token records. The parser then runs three passes over it:
//   1. register every class name (with its super's name) and skip bodies;
//   2. parse globals, class fields, and method/function signatures;
//   3. parse method/function bodies.
// This allows forward references between all top-level entities. Every '{'
// record holds the index of its matching '}', so passes 1 and 2 skip a body
// in one step. Records hold byte offsets, not positions: a diagnostic's
// line:col is computed from its offset when the diagnostic is rendered.
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/IRBuilder.h"
#include "o2/Support/Casting.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
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

/// Marks a '{' that no '}' closes.
constexpr uint32_t NoMatch = UINT32_MAX;

/// One token. Data is the token's length in bytes, except that a '{' holds
/// the index of its matching '}' (or NoMatch).
struct Tok {
  uint32_t Offset;
  uint32_t Data;
  TokKind Kind;
};
static_assert(sizeof(Tok) == 12, "token records are 12 bytes");

/// The class of each byte. A punctuation byte's class is its own TokKind;
/// every other byte has one of the classes below, numbered past the kinds.
enum CharClass : uint8_t {
  CC_Space = uint8_t(TokKind::Eof) + 1, ///< " \t\n\v\f\r"
  CC_IdentStart,                        ///< letters, '_' and '$'
  CC_Digit,                             ///< continues an identifier only
  CC_Slash,                             ///< starts a "//" comment
  CC_Bad,
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (uint8_t &C : T)
    C = CC_Bad;
  for (char C : std::string_view(" \t\n\v\f\r"))
    T[uint8_t(C)] = CC_Space;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = CC_IdentStart;
  T['_'] = T['$'] = CC_IdentStart;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = CC_Digit;
  T['/'] = CC_Slash;
  constexpr std::string_view Punct = "{}()[]:;,.=@*";
  for (size_t I = 0; I < Punct.size(); ++I)
    T[uint8_t(Punct[I])] = uint8_t(uint8_t(TokKind::LBrace) + I);
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool isIdentChar(char C) {
  uint8_t Class = CharClasses[uint8_t(C)];
  return Class == CC_IdentStart || Class == CC_Digit;
}

/// "line:col" of byte \p Offset of \p Src. A column counts the bytes since
/// the last '\n', plus 1, so a tab or a '\r' is one column.
std::string position(std::string_view Src, uint32_t Offset) {
  std::string_view Before = Src.substr(0, Offset);
  size_t Line = 1 + std::count(Before.begin(), Before.end(), '\n');
  size_t LastNL = Before.rfind('\n');
  size_t Col = LastNL == std::string_view::npos ? Offset + 1 : Offset - LastNL;
  return std::to_string(Line) + ":" + std::to_string(Col);
}

/// The token records of one source, ending with an Eof record. They are
/// allocated once, for the most records a source can need (one per byte,
/// plus Eof), and left uninitialized, so only the records written are ever
/// touched.
struct TokenArray {
  std::unique_ptr<Tok[]> Records;
  size_t Size = 0;

  const Tok *begin() const { return Records.get(); }
  const Tok *eof() const { return Records.get() + Size - 1; }
};

/// Lexes all of \p Src into \p Toks. Returns false and sets \p Error on a
/// bad character or on an input too large for 32-bit offsets.
bool lex(std::string_view Src, TokenArray &Toks, std::string &Error) {
  if (Src.size() > UINT32_MAX) {
    Error = "1:1: input of 4 GiB or more is not supported";
    return false;
  }
  Toks.Records = std::make_unique_for_overwrite<Tok[]>(Src.size() + 1);
  Tok *const First = Toks.Records.get();
  Tok *Out = First;
  std::vector<uint32_t> Open; // indices of the '{'s not yet closed
  const char *Begin = Src.data(), *End = Begin + Src.size();
  for (const char *P = Begin; P != End;) {
    uint8_t Class = CharClasses[uint8_t(*P)];
    if (Class == CC_Space) {
      ++P;
      continue;
    }
    uint32_t Offset = uint32_t(P - Begin);
    if (Class == CC_IdentStart) {
      const char *Start = P;
      do
        ++P;
      while (P != End && isIdentChar(*P));
      *Out++ = {Offset, uint32_t(P - Start), TokKind::Ident};
      continue;
    }
    if (Class < CC_Space) {
      auto Kind = TokKind(Class);
      uint32_t Data = 1;
      if (Kind == TokKind::LBrace) {
        Open.push_back(uint32_t(Out - First));
        Data = NoMatch;
      } else if (Kind == TokKind::RBrace && !Open.empty()) {
        First[Open.back()].Data = uint32_t(Out - First);
        Open.pop_back();
      }
      *Out++ = {Offset, Data, Kind};
      ++P;
      continue;
    }
    if (Class == CC_Slash && P + 1 != End && P[1] == '/') {
      const void *NL = std::memchr(P, '\n', size_t(End - P));
      P = NL ? static_cast<const char *>(NL) : End;
      continue;
    }
    Error = position(Src, Offset) + ": unexpected character '" +
            std::string(1, *P) + "'";
    return false;
  }
  *Out++ = {uint32_t(Src.size()), 0, TokKind::Eof};
  Toks.Size = size_t(Out - First);
  return true;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

/// The variables of the body being parsed, by name: linear probing over a
/// power-of-two slot array kept at most half full. A slot is live only if
/// it carries the current generation, so clear() is O(1) and the slots are
/// reused from body to body. Keys view the source or a parameter's name,
/// both of which outlive the parse.
class VarTable {
public:
  Variable *find(std::string_view Name) const {
    const Slot &S = Slots[probe(Name)];
    return S.Gen == Gen ? S.V : nullptr;
  }

  /// Adds \p V under \p Name, which must not be in the table.
  void insert(std::string_view Name, Variable *V) {
    if (2 * (Size + 1) > Slots.size()) {
      std::vector<Slot> Old(Slots.size() * 2);
      Old.swap(Slots);
      for (const Slot &S : Old)
        if (S.Gen == Gen)
          Slots[probe(S.Name)] = S;
    }
    Slots[probe(Name)] = {Name, V, Gen};
    ++Size;
  }

  void clear() {
    Size = 0;
    if (++Gen == 0) { // the generation wrapped: stale slots could match it
      Slots.assign(Slots.size(), Slot());
      Gen = 1;
    }
  }

private:
  struct Slot {
    std::string_view Name;
    Variable *V = nullptr;
    uint32_t Gen = 0;
  };

  /// The slot that holds \p Name, or the free slot where it would go.
  size_t probe(std::string_view Name) const {
    uint64_t H = 0xcbf29ce484222325; // 64-bit FNV-1a
    for (char C : Name)
      H = (H ^ uint8_t(C)) * 0x100000001b3;
    size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 32)) & Mask;; I = (I + 1) & Mask)
      if (Slots[I].Gen != Gen || Slots[I].Name == Name)
        return I;
  }

  std::vector<Slot> Slots = std::vector<Slot>(64);
  uint32_t Gen = 1;
  size_t Size = 0;
};

class Parser {
public:
  Parser(std::string_view Src, TokenArray Toks, std::string &Error)
      : Src(Src), Toks(std::move(Toks)), Error(Error) {}

  std::unique_ptr<Module> run(const std::string &ModuleName) {
    M = std::make_unique<Module>(ModuleName);
    if (!passRegisterClasses() || !passSignatures() || !passBodies())
      return nullptr;
    return std::move(M);
  }

private:
  // -- Token-stream helpers -------------------------------------------------

  // The last record is Eof and take() never steps past it, so the cursor
  // always points at a record.
  const Tok &peek() const { return *Cursor; }

  const Tok &take() {
    const Tok &T = *Cursor;
    if (T.Kind != TokKind::Eof)
      ++Cursor;
    return T;
  }

  std::string_view text(const Tok &T) const {
    assert(T.Kind == TokKind::Ident && "only identifiers have text");
    return std::string_view(Src.data() + T.Offset, T.Data);
  }

  bool at(TokKind K) const { return peek().Kind == K; }

  bool atKeyword(std::string_view KW) const {
    return at(TokKind::Ident) && text(peek()) == KW;
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
    const Tok &T = peek();
    failAt(T, Msg);
    if (T.Kind == TokKind::Ident)
      Error += " (got '" + std::string(text(T)) + "')";
    return false;
  }

  /// Reports \p Msg positioned at \p T, without echoing the token.
  bool failAt(const Tok &T, const std::string &Msg) {
    Error = position(Src, T.Offset) + ": " + Msg;
    return false;
  }

  /// Skips a balanced { ... } block; the cursor must be at '{'.
  bool skipBlock() {
    if (!at(TokKind::LBrace))
      return fail("expected '{'");
    uint32_t Match = peek().Data;
    if (Match == NoMatch) {
      Cursor = Toks.eof();
      return fail("unterminated block");
    }
    assert(Match < Toks.Size - 1 && "a '}' precedes Eof");
    Cursor = Toks.begin() + Match + 1;
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
    Cursor = Toks.begin();
    // Each class's name and super's name, in declaration order.
    std::vector<std::pair<std::string_view, std::string_view>> Pending;
    while (!at(TokKind::Eof)) {
      if (atKeyword("class")) {
        take();
        if (!at(TokKind::Ident))
          return fail("expected class name");
        std::string_view Name = text(take());
        if (M->findClass(Name))
          return fail("duplicate class '" + std::string(Name) + "'");
        std::string_view SuperName;
        if (atKeyword("extends")) {
          take();
          if (!at(TokKind::Ident))
            return fail("expected superclass name");
          SuperName = text(take());
        }
        M->addClass(std::string(Name));
        Pending.emplace_back(Name, SuperName);
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
    // Resolve superclasses now that every class exists.
    for (const auto &[Name, SuperName] : Pending) {
      ClassType *Super = nullptr;
      if (!SuperName.empty() && !(Super = M->findClass(SuperName))) {
        Error = "unknown superclass '" + std::string(SuperName) +
                "' of class '" + std::string(Name) + "'";
        return false;
      }
      Supers.push_back(Super);
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
    std::string_view Name = text(take());
    Type *Ty = nullptr;
    if (Name == "int") {
      Ty = M->getIntType();
    } else {
      Ty = M->findClass(Name);
      if (!Ty) {
        fail("unknown type '" + std::string(Name) + "'");
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
    Cursor = Toks.begin();
    size_t NextClass = 0;
    while (!at(TokKind::Eof)) {
      if (atKeyword("class")) {
        take();
        take(); // name
        // Classes were added in declaration order in pass 1. The super is
        // linked here, just before the class's members are added, and not
        // at the end of pass 1: the duplicate-field check walks the super
        // chain, and linking every class up front would change the chains
        // it sees.
        ClassType *C = M->classes()[NextClass].get();
        if (ClassType *Super = Supers[NextClass++])
          C->setSuperForParser(Super);
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
        std::string_view Name = text(take());
        if (M->findGlobal(Name))
          return fail("duplicate global '" + std::string(Name) + "'");
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
        M->addGlobal(std::string(Name), Ty, IsAtomic);
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

  bool parseFieldDecl(ClassType *C) {
    expectKeyword("field");
    if (!at(TokKind::Ident))
      return fail("expected field name");
    std::string_view Name = text(take());
    if (C->findField(Name))
      return fail("duplicate field '" + std::string(Name) + "'");
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
    C->addField(std::string(Name), Ty, IsAtomic);
    return expect(TokKind::Semi, "';'");
  }

  /// Parses a 'method' or 'func' signature, creating the Function with its
  /// parameters, then skips the body (parsed in pass 3).
  bool parseCallableSignature(ClassType *C) {
    take(); // 'method' or 'func'
    if (!at(TokKind::Ident))
      return fail("expected function name");
    std::string_view Name = text(take());
    if (!C && M->findFunction(Name))
      return fail("duplicate function '" + std::string(Name) + "'");
    if (C)
      for (Function *Existing : C->methods())
        if (Existing->getName() == Name)
          return fail("duplicate method '" + std::string(Name) + "'");

    if (!expect(TokKind::LParen, "'('"))
      return false;
    struct Param {
      std::string_view Name;
      Type *Ty;
    };
    std::vector<Param> Params;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected parameter name");
        const Tok &PTok = take();
        std::string_view PName = text(PTok);
        // Methods declare 'this' implicitly, so it is taken already.
        if ((C && PName == "this") ||
            std::any_of(Params.begin(), Params.end(),
                        [&](const Param &P) { return P.Name == PName; }))
          return failAt(PTok,
                        "duplicate parameter '" + std::string(PName) + "'");
        if (!expect(TokKind::Colon, "':'"))
          return false;
        Type *PTy = parseType();
        if (!PTy)
          return false;
        Params.push_back({PName, PTy});
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

    Function *F = M->addFunction(std::string(Name), RetTy);
    if (C) {
      C->addMethod(F);
      F->addParam("this", C);
    }
    for (const Param &P : Params)
      F->addParam(std::string(P.Name), P.Ty);
    BodyOrder.push_back(F);
    return skipBlock();
  }

  // -- Pass 3: bodies -------------------------------------------------------

  bool passBodies() {
    Cursor = Toks.begin();
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
    Vars.clear();
    for (const auto &V : F->variables())
      Vars.insert(V->getName(), V.get());
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

  Variable *lookupVar(const Tok &T) {
    Variable *V = Vars.find(text(T));
    if (!V)
      failAt(T, "unknown variable '" + std::string(text(T)) + "'");
    return V;
  }

  /// Parses "(a, b, c)" into variables of the current body.
  bool parseArgs(SmallVectorImpl<Variable *> &Args) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Ident))
          return fail("expected argument variable");
        Variable *V = lookupVar(take());
        if (!V)
          return false;
        Args.push_back(V);
      } while (consumeIf(TokKind::Comma));
    }
    return expect(TokKind::RParen, "')'");
  }

  /// The current token's text if it is an identifier, else "".
  std::string_view peekWord() const {
    return at(TokKind::Ident) ? text(peek()) : std::string_view();
  }

  bool parseStmt(IRBuilder &B, Function *F) {
    // Keyword statements.
    std::string_view Word = peekWord();
    if (Word == "var") {
      take();
      if (!at(TokKind::Ident))
        return fail("expected variable name");
      std::string_view Name = text(take());
      if (Vars.find(Name))
        return fail("duplicate variable '" + std::string(Name) + "'");
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type *Ty = parseType();
      if (!Ty)
        return false;
      Vars.insert(Name, F->addLocal(std::string(Name), Ty));
      return expect(TokKind::Semi, "';'");
    }
    if (Word == "loop") {
      take();
      if (!expect(TokKind::LBrace, "'{'"))
        return false;
      B.beginLoop();
      if (!parseStmtsUntilRBrace(B, F))
        return false;
      B.endLoop();
      return true;
    }
    if (Word == "spawn") {
      take();
      if (!at(TokKind::Ident))
        return fail("expected spawn receiver");
      Variable *Recv = lookupVar(take());
      if (!Recv)
        return false;
      if (!expect(TokKind::Dot, "'.'"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected entry method name");
      std::string_view Entry = text(take());
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(Args))
        return false;
      B.spawn(Recv, Entry, Args);
      return expect(TokKind::Semi, "';'");
    }
    if (Word == "join") {
      take();
      if (!at(TokKind::Ident))
        return fail("expected join receiver");
      Variable *Recv = lookupVar(take());
      if (!Recv)
        return false;
      B.join(Recv);
      return expect(TokKind::Semi, "';'");
    }
    if (Word == "acquire" || Word == "release") {
      bool IsAcquire = Word == "acquire";
      take();
      if (!at(TokKind::Ident))
        return fail("expected lock variable");
      Variable *L = lookupVar(take());
      if (!L)
        return false;
      if (IsAcquire)
        B.acquire(L);
      else
        B.release(L);
      return expect(TokKind::Semi, "';'");
    }
    if (Word == "return") {
      take();
      Variable *V = nullptr;
      if (at(TokKind::Ident)) {
        V = lookupVar(take());
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
      std::string_view GName = text(take());
      Global *G = M->findGlobal(GName);
      if (!G)
        return fail("unknown global '" + std::string(GName) + "'");
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(take());
      if (!Src)
        return false;
      B.globalStore(G, Src);
      return expect(TokKind::Semi, "';'");
    }

    // Remaining forms start with an identifier.
    if (!at(TokKind::Ident))
      return fail("expected statement");
    Tok First = take();

    // ID . ID ( ... ) ;     virtual call, result dropped
    // ID . ID = ID ;        field store
    // ID . ID missing '='   error
    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      Tok Member = take();
      Variable *Base = lookupVar(First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(Args))
          return false;
        if (!makeVirtualCall(B, nullptr, Base, text(Member), Args))
          return false;
        return expect(TokKind::Semi, "';'");
      }
      if (!expect(TokKind::Equal, "'='"))
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(take());
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
      Variable *Base = lookupVar(First);
      if (!Base)
        return false;
      if (!at(TokKind::Ident))
        return fail("expected source variable");
      Variable *Src = lookupVar(take());
      if (!Src)
        return false;
      B.arrayStore(Base, Src);
      return expect(TokKind::Semi, "';'");
    }

    // ID ( ... ) ;           direct call, result dropped
    if (at(TokKind::LParen)) {
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(Args))
        return false;
      Function *Callee = M->findFunction(text(First));
      if (!Callee)
        return fail("unknown function '" + std::string(text(First)) + "'");
      B.callDirect(nullptr, Callee, Args);
      return expect(TokKind::Semi, "';'");
    }

    // ID = rhs ;
    if (!expect(TokKind::Equal, "'='"))
      return false;
    Variable *Target = lookupVar(First);
    if (!Target)
      return false;
    if (!parseRhs(B, Target))
      return false;
    return expect(TokKind::Semi, "';'");
  }

  Field *resolveFieldOrFail(Variable *Base, const Tok &Member) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C) {
      failAt(Member,
             "field access on non-class variable '" + Base->getName() + "'");
      return nullptr;
    }
    Field *Fld = C->findField(text(Member));
    if (!Fld)
      failAt(Member, "class '" + C->getName() + "' has no field '" +
                         std::string(text(Member)) + "'");
    return Fld;
  }

  bool makeVirtualCall(IRBuilder &B, Variable *Target, Variable *Base,
                       std::string_view MethodName,
                       const SmallVectorImpl<Variable *> &Args) {
    auto *C = dyn_cast<ClassType>(Base->getType());
    if (!C)
      return fail("virtual call on non-class variable '" + Base->getName() +
                  "'");
    B.call(Target, Base, MethodName,
           ArrayRef<Variable *>(Args.data(), Args.size()));
    return true;
  }

  bool parseRhs(IRBuilder &B, Variable *Target) {
    std::string_view Word = peekWord();
    if (Word == "new") {
      take();
      if (!at(TokKind::Ident))
        return fail("expected class name after 'new'");
      std::string_view CName = text(take());
      ClassType *C = M->findClass(CName);
      if (!C)
        return fail("unknown class '" + std::string(CName) + "'");
      SmallVector<Variable *, 4> Args;
      if (at(TokKind::LParen))
        if (!parseArgs(Args))
          return false;
      B.alloc(Target, C, ArrayRef<Variable *>(Args.data(), Args.size()));
      return true;
    }
    if (Word == "newarray") {
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
      std::string_view GName = text(take());
      Global *G = M->findGlobal(GName);
      if (!G)
        return fail("unknown global '" + std::string(GName) + "'");
      B.globalLoad(Target, G);
      return true;
    }
    if (!at(TokKind::Ident))
      return fail("expected expression");
    Tok First = take();

    if (at(TokKind::Dot)) {
      take();
      if (!at(TokKind::Ident))
        return fail("expected member name");
      Tok Member = take();
      Variable *Base = lookupVar(First);
      if (!Base)
        return false;
      if (at(TokKind::LParen)) {
        SmallVector<Variable *, 4> Args;
        if (!parseArgs(Args))
          return false;
        return makeVirtualCall(B, Target, Base, text(Member), Args);
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
      Variable *Base = lookupVar(First);
      if (!Base)
        return false;
      B.arrayLoad(Target, Base);
      return true;
    }
    if (at(TokKind::LParen)) {
      SmallVector<Variable *, 4> Args;
      if (!parseArgs(Args))
        return false;
      Function *Callee = M->findFunction(text(First));
      if (!Callee)
        return fail("unknown function '" + std::string(text(First)) + "'");
      B.callDirect(Target, Callee,
                   ArrayRef<Variable *>(Args.data(), Args.size()));
      return true;
    }
    // Plain copy.
    Variable *Src = lookupVar(First);
    if (!Src)
      return false;
    B.assign(Target, Src);
    return true;
  }

  std::string_view Src;
  TokenArray Toks;
  std::string &Error;
  const Tok *Cursor = nullptr;
  std::unique_ptr<Module> M;
  /// Each class's resolved superclass (or null), in declaration order.
  std::vector<ClassType *> Supers;
  std::vector<Function *> BodyOrder;
  VarTable Vars;
};

} // namespace

std::unique_ptr<Module> o2::parseModule(std::string_view Source,
                                        std::string &Error,
                                        const std::string &ModuleName) {
  TokenArray Toks;
  if (!lex(Source, Toks, Error))
    return nullptr;
  Parser P(Source, std::move(Toks), Error);
  return P.run(ModuleName);
}
