//===- ParserTest.cpp - Textual OIR parser unit tests -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"

#include "o2/IR/Module.h"
#include "o2/Support/Casting.h"
#include "o2/Workload/BugModels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> parseOk(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  return M;
}

std::string parseErr(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_FALSE(M) << "expected parse failure";
  return Err;
}

TEST(ParserTest, EmptyModule) {
  auto M = parseOk("");
  EXPECT_TRUE(M->classes().empty());
  EXPECT_TRUE(M->functions().empty());
}

TEST(ParserTest, GlobalsAndComments) {
  auto M = parseOk(R"(
    // a shared counter
    global counter: int;
    global table: Data; // forward type reference
    class Data { }
  )");
  ASSERT_TRUE(M->findGlobal("counter"));
  EXPECT_EQ(M->findGlobal("counter")->getType(), M->getIntType());
  EXPECT_EQ(M->findGlobal("table")->getType(), M->findClass("Data"));
}

TEST(ParserTest, ClassWithFieldsAndMethods) {
  auto M = parseOk(R"(
    class Task extends Base {
      field state: int;
      field next: Task;
      method run() {
        var s: int;
        s = this.state;
        this.state = s;
      }
    }
    class Base { field owner: int; }
  )");
  ClassType *Task = M->findClass("Task");
  ClassType *Base = M->findClass("Base");
  ASSERT_TRUE(Task && Base);
  EXPECT_EQ(Task->getSuper(), Base);
  EXPECT_TRUE(Task->findField("state"));
  EXPECT_TRUE(Task->findField("owner")); // inherited
  Function *Run = Task->findMethod("run");
  ASSERT_TRUE(Run);
  ASSERT_EQ(Run->params().size(), 1u);
  EXPECT_EQ(Run->params()[0]->getName(), "this");
  EXPECT_EQ(Run->params()[0]->getType(), Task);
  EXPECT_EQ(Run->size(), 2u);
}

TEST(ParserTest, AllStatementForms) {
  auto M = parseOk(R"(
    global g: Obj;
    class Obj {
      field f: Obj;
      method init(a: Obj) { }
      method run() { }
      method get(): Obj { return this; }
    }
    func helper(p: Obj): Obj {
      return p;
    }
    func main() {
      var x: Obj;
      var y: Obj;
      var arr: Obj[];
      x = new Obj;
      y = new Obj(x);
      loop { x = new Obj; }
      arr = newarray Obj;
      arr[*] = x;
      y = arr[*];
      x = y;
      x.f = y;
      y = x.f;
      @g = x;
      y = @g;
      y = helper(x);
      helper(x);
      y = x.get();
      x.run();
      acquire x;
      release x;
      spawn x.run();
      join x;
      return;
    }
  )");
  Function *Main = M->getMain();
  ASSERT_TRUE(Main);
  EXPECT_EQ(Main->size(), 20u);

  // Spot-check a few statement kinds in order.
  const auto &Body = Main->body();
  EXPECT_TRUE(isa<AllocStmt>(Body[0].get()));
  auto *WithCtor = cast<AllocStmt>(Body[1].get());
  EXPECT_EQ(WithCtor->getArgs().size(), 1u);
  auto *InLoop = cast<AllocStmt>(Body[2].get());
  EXPECT_TRUE(InLoop->isInLoop());
  EXPECT_TRUE(isa<ArrayAllocStmt>(Body[3].get()));
  EXPECT_TRUE(isa<ArrayStoreStmt>(Body[4].get()));
  EXPECT_TRUE(isa<ArrayLoadStmt>(Body[5].get()));
  EXPECT_TRUE(isa<AssignStmt>(Body[6].get()));
  EXPECT_TRUE(isa<FieldStoreStmt>(Body[7].get()));
  EXPECT_TRUE(isa<FieldLoadStmt>(Body[8].get()));
  EXPECT_TRUE(isa<GlobalStoreStmt>(Body[9].get()));
  EXPECT_TRUE(isa<GlobalLoadStmt>(Body[10].get()));
  auto *Direct = cast<CallStmt>(Body[11].get());
  EXPECT_FALSE(Direct->isVirtual());
  EXPECT_TRUE(Direct->getTarget());
  auto *DirectDrop = cast<CallStmt>(Body[12].get());
  EXPECT_EQ(DirectDrop->getTarget(), nullptr);
  auto *Virt = cast<CallStmt>(Body[13].get());
  EXPECT_TRUE(Virt->isVirtual());
  EXPECT_TRUE(isa<CallStmt>(Body[14].get()));
  EXPECT_TRUE(isa<AcquireStmt>(Body[15].get()));
  EXPECT_TRUE(isa<ReleaseStmt>(Body[16].get()));
  EXPECT_TRUE(isa<SpawnStmt>(Body[17].get()));
  EXPECT_TRUE(isa<JoinStmt>(Body[18].get()));
  EXPECT_TRUE(isa<ReturnStmt>(Body[19].get()));
}

TEST(ParserTest, ForwardFunctionReference) {
  auto M = parseOk(R"(
    func main() {
      var x: int;
      x = late();
    }
    func late(): int {
      return;
    }
  )");
  EXPECT_TRUE(M->findFunction("late"));
}

TEST(ParserTest, ArrayOfArrays) {
  auto M = parseOk(R"(
    func main() {
      var m: int[][];
      m = newarray int[];
    }
  )");
  Variable *V = M->getMain()->findVariable("m");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getType()->getName(), "int[][]");
}

TEST(ParserTest, ErrorUnknownVariable) {
  std::string Err = parseErr(R"(
    func main() {
      x = y;
    }
  )");
  EXPECT_NE(Err.find("unknown variable"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownClass) {
  std::string Err = parseErr(R"(
    func main() {
      var x: Missing;
    }
  )");
  EXPECT_NE(Err.find("unknown type"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownField) {
  std::string Err = parseErr(R"(
    class A { }
    func main() {
      var a: A;
      var b: A;
      a = new A;
      b = a.nope;
    }
  )");
  EXPECT_NE(Err.find("no field"), std::string::npos);
}

TEST(ParserTest, ErrorDuplicateClass) {
  std::string Err = parseErr("class A { } class A { }");
  EXPECT_NE(Err.find("duplicate class"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownSuper) {
  std::string Err = parseErr("class A extends Nope { }");
  EXPECT_NE(Err.find("unknown superclass"), std::string::npos);
}

TEST(ParserTest, ErrorBadToken) {
  std::string Err = parseErr("class A { field f % int; }");
  EXPECT_NE(Err.find("unexpected character"), std::string::npos);
}

TEST(ParserTest, ErrorHasLineInfo) {
  std::string Err = parseErr("\n\nclass A {\n  junk\n}");
  EXPECT_EQ(Err.substr(0, 2), "4:");
}

// Columns count bytes since the last '\n', so a tab and a '\r' are one
// column each. Inline, so that no checkout can rewrite the line ends.
TEST(ParserTest, ErrorColumnsCountTabsAndCarriageReturnsAsOne) {
  EXPECT_EQ(parseErr("func main() {\r\n\tvar x: int;\r\n\tx = @;\r\n}\r\n"),
            "3:7: expected global name");
}

// The brace matcher must not see braces inside comments.
TEST(ParserTest, BracesInCommentsAreIgnored) {
  auto M = parseOk(R"(
    class A { // }
      field f: int; // {
      method run() { // {{
        var x: int; // }}
        x = this.f;
      }
    }
    func main() { // }
      var a: A; // {
      a = new A;
      spawn a.run();
    }
  )");
  ASSERT_TRUE(M);
  EXPECT_EQ(M->findClass("A")->findMethod("run")->size(), 1u);
  EXPECT_EQ(M->getMain()->size(), 2u);
}

/// Reads every examples/oir source and three bug-model sources.
std::vector<std::pair<std::string, std::string>> sweepSources() {
  std::vector<std::pair<std::string, std::string>> Sources;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(O2_EXAMPLES_OIR_DIR))
    if (Entry.path().extension() == ".oir")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &P : Files) {
    std::ifstream In(P);
    std::ostringstream SS;
    SS << In.rdbuf();
    Sources.emplace_back(P.filename().string(), SS.str());
  }
  for (const char *Name : {"figure2", "linux_vsyscall", "memcached_slabs"}) {
    const BugModel *Model = findBugModel(Name);
    EXPECT_NE(Model, nullptr) << Name;
    if (Model)
      Sources.emplace_back(Name, Model->Source);
  }
  return Sources;
}

// Every prefix of a real program either parses or fails with a positioned
// diagnostic whose position lies inside the prefix (or at its end). Under
// the sanitizer build this also shows that no prefix makes the lexer or
// the parser read outside the input or the token array.
TEST(ParserTest, EveryPrefixParsesOrFailsInRange) {
  auto Sources = sweepSources();
  ASSERT_GE(Sources.size(), 10u);
  for (const auto &[Name, Source] : Sources) {
    for (size_t Len = 0; Len <= Source.size(); ++Len) {
      std::string_view Prefix = std::string_view(Source).substr(0, Len);
      std::string Err;
      if (parseModule(Prefix, Err))
        continue;
      unsigned Line = 0, Col = 0;
      char Colon1 = 0, Colon2 = 0;
      std::istringstream Pos(Err);
      Pos >> Line >> Colon1 >> Col >> Colon2;
      size_t Lines = 1 + std::count(Prefix.begin(), Prefix.end(), '\n');
      ASSERT_TRUE(Pos && Colon1 == ':' && Colon2 == ':' && Line >= 1 &&
                  Line <= Lines + 1 && Col >= 1)
          << Name << " prefix of " << Len << " bytes: '" << Err << "'";
    }
  }
}

} // namespace
