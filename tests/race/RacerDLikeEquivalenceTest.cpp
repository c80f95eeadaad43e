//===- RacerDLikeEquivalenceTest.cpp - class pairing vs pairwise scan ----------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// The RacerD-like detector pairs equivalence classes of accesses; the
// oracle checks every access pair. Both must report the same warnings
// (kind, location and both statements, in order) and the same counts on
// every bug model, example module and generated profile, and on small
// programs built around each pairing condition.
//
//===----------------------------------------------------------------------===//

#include "RacerDOracle.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Race/RacerDLike.h"
#include "o2/Workload/BugModels.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(const std::string &Src,
                                     bool Verify = true) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  if (!M || !Verify)
    return M;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

const char *kindName(RacerDWarning::Kind K) {
  return K == RacerDWarning::Kind::ReadWriteRace ? "read-write"
                                                 : "unprotected-write";
}

/// Asserts production == oracle and returns the production report.
RacerDReport expectMatchesOracle(const Module &M) {
  RacerDReport R = runRacerDLike(M);
  test::RacerDOracleResult O = test::runRacerDOracle(M);
  EXPECT_FALSE(R.cancelled());
  EXPECT_EQ(R.numWarnings(), O.numWarnings());
  EXPECT_EQ(R.numPotentialRaces(), O.NumPotentialRaces);
  size_t N = std::min(R.warnings().size(), O.Warnings.size());
  for (size_t I = 0; I != N; ++I) {
    const RacerDWarning &P = R.warnings()[I], &Q = O.Warnings[I];
    if (P.WarningKind == Q.WarningKind && P.Location == Q.Location &&
        P.A == Q.A && P.B == Q.B)
      continue;
    ADD_FAILURE() << "first difference at warning " << I << ": "
                  << kindName(P.WarningKind) << " on " << P.Location
                  << " vs oracle " << kindName(Q.WarningKind) << " on "
                  << Q.Location;
    break;
  }
  return R;
}

/// Origins and padding doubled, as in the benchmark's 2x corpus.
WorkloadProfile scaled(const WorkloadProfile &P, unsigned Factor) {
  WorkloadProfile S = P;
  S.NumThreads *= Factor;
  S.NumEventHandlers *= Factor;
  S.PaddingFunctions *= Factor;
  return S;
}

std::unique_ptr<Module> loadCase(const std::string &Name) {
  if (Name.rfind("oir_", 0) == 0) {
    std::ifstream In(std::string(O2_OIR_DIR) + "/" + Name.substr(4) + ".oir");
    EXPECT_TRUE(In.good()) << "cannot open " << Name;
    std::stringstream Buf;
    Buf << In.rdbuf();
    return parseProgram(Buf.str());
  }
  if (Name.rfind("bug_", 0) == 0) {
    const BugModel *B = findBugModel(Name.substr(4));
    EXPECT_NE(B, nullptr) << Name;
    return buildBugModel(*B);
  }
  unsigned Factor = 1;
  std::string Profile = Name;
  if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_x2") == 0) {
    Factor = 2;
    Profile = Name.substr(0, Name.size() - 3);
  }
  const WorkloadProfile *P = findProfile(Profile);
  EXPECT_NE(P, nullptr) << Name;
  return generateWorkload(scaled(*P, Factor));
}

class RacerDLikeEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RacerDLikeEquivalenceTest, MatchesPairwiseOracle) {
  auto M = loadCase(GetParam());
  ASSERT_TRUE(M);
  expectMatchesOracle(*M);
}

std::vector<std::string> corpusCases() {
  std::vector<std::string> Cases;
  for (const BugModel &B : bugModels())
    Cases.push_back("bug_" + B.Name);
  std::vector<std::string> Examples;
  for (const auto &E : std::filesystem::directory_iterator(O2_OIR_DIR))
    if (E.path().extension() == ".oir")
      Examples.push_back("oir_" + E.path().stem().string());
  std::sort(Examples.begin(), Examples.end());
  Cases.insert(Cases.end(), Examples.begin(), Examples.end());
  for (const WorkloadProfile &P : benchmarkProfiles())
    Cases.push_back(P.Name);
  Cases.push_back("telegram_x2");
  Cases.push_back("sqlite3_x2");
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, RacerDLikeEquivalenceTest,
                         ::testing::ValuesIn(corpusCases()),
                         [](const auto &Info) { return Info.param; });

TEST(RacerDLikeEquivalenceCorpusTest, CorpusExercisesBothCategories) {
  // The generated profiles must give the comparison something to compare:
  // both warning kinds, on many keys.
  unsigned ReadWrite = 0, Unprotected = 0;
  for (const char *Name : {"avrora", "telegram", "sqlite3"}) {
    auto M = generateWorkload(*findProfile(Name));
    RacerDReport R = runRacerDLike(*M);
    for (const RacerDWarning &W : R.warnings())
      ++(W.WarningKind == RacerDWarning::Kind::ReadWriteRace ? ReadWrite
                                                            : Unprotected);
  }
  EXPECT_GT(ReadWrite, 100u);
  EXPECT_GT(Unprotected, 0u);
}

//===----------------------------------------------------------------------===//
// Hand-written edge cases: each targets one pairing condition.
//===----------------------------------------------------------------------===//

/// The warnings of kind \p K on field `Obj.v` (the globals that carry
/// the object to the threads race too, and are not what these test).
std::vector<RacerDWarning> onField(const RacerDReport &R,
                                   RacerDWarning::Kind K) {
  std::vector<RacerDWarning> Out;
  for (const RacerDWarning &W : R.warnings())
    if (W.WarningKind == K && W.Location == "Obj.v")
      Out.push_back(W);
  return Out;
}

constexpr RacerDWarning::Kind RW = RacerDWarning::Kind::ReadWriteRace;
constexpr RacerDWarning::Kind UW = RacerDWarning::Kind::UnprotectedWrite;

TEST(RacerDLikeEquivalenceEdgeTest, ReadAndWriteInOneFunction) {
  // One function pair, two classes: the reported pair is the read (first
  // access) against the write, not the write against itself.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    global g: Obj;
    class T {
      method run() {
        var o: Obj;
        var x: int;
        o = @g;
        x = o.v;
        o.v = x;
      }
    }
    func main() {
      var o: Obj;
      var t: T;
      o = new Obj;
      @g = o;
      t = new T;
      spawn t.run();
    }
  )");
  ASSERT_TRUE(M);
  std::vector<RacerDWarning> Races = onField(expectMatchesOracle(*M), RW);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_NE(Races[0].A, Races[0].B);
}

TEST(RacerDLikeEquivalenceEdgeTest, SelfRacingWriteInSpawnedEntry) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    global g: Obj;
    class T {
      method run() {
        var o: Obj;
        var x: int;
        o = @g;
        o.v = x;
        o.v = x;
      }
    }
    func main() {
      var o: Obj;
      var t1: T;
      var t2: T;
      o = new Obj;
      @g = o;
      t1 = new T;
      t2 = new T;
      spawn t1.run();
      spawn t2.run();
    }
  )");
  ASSERT_TRUE(M);
  std::vector<RacerDWarning> Races = onField(expectMatchesOracle(*M), RW);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].A, Races[0].B) << "the first write against itself";
}

TEST(RacerDLikeEquivalenceEdgeTest, LockedAndUnlockedWritesInOneFunction) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class Mutex { }
    global g: Obj;
    global lock: Mutex;
    class T {
      method run() {
        var o: Obj;
        var m: Mutex;
        var x: int;
        o = @g;
        m = @lock;
        acquire m;
        o.v = x;
        x = o.v;
        release m;
        o.v = x;
        x = o.v;
        acquire m;
        o.v = x;
        release m;
      }
    }
    func main() {
      var o: Obj;
      var p: Obj;
      var m: Mutex;
      var t: T;
      var x: int;
      o = new Obj;
      m = new Mutex;
      @g = o;
      @lock = m;
      t = new T;
      spawn t.run();
      p = @g;
      acquire m;
      p.v = x;
      release m;
      x = p.v;
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesOracle(*M);
  EXPECT_EQ(onField(R, RW).size(), 2u); // run vs run, run vs main
  EXPECT_EQ(onField(R, UW).size(), 1u);
}

TEST(RacerDLikeEquivalenceEdgeTest, PartiallyOverlappingLocksets) {
  // {a,b} overlaps {a} and {b,c}; {a,b} vs {c} and {a} vs {b,c} do not,
  // and {b,c} overlaps {c}.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class Mutex { }
    global g: Obj;
    global la: Mutex;
    global lb: Mutex;
    global lc: Mutex;
    class AB {
      method run() {
        var o: Obj; var a: Mutex; var b: Mutex; var x: int;
        o = @g; a = @la; b = @lb;
        acquire a; acquire b; o.v = x; release b; release a;
        acquire a; x = o.v; release a;
      }
    }
    class BC {
      method run() {
        var o: Obj; var b: Mutex; var c: Mutex; var x: int;
        o = @g; b = @lb; c = @lc;
        acquire b; acquire c; o.v = x; release c; release b;
      }
    }
    class C {
      method run() {
        var o: Obj; var c: Mutex; var x: int;
        o = @g; c = @lc;
        acquire c; x = o.v; release c;
      }
    }
    func main() {
      var o: Obj; var m: Mutex; var ab: AB; var bc: BC; var c: C;
      o = new Obj; @g = o;
      m = new Mutex; @la = m;
      m = new Mutex; @lb = m;
      m = new Mutex; @lc = m;
      ab = new AB; bc = new BC; c = new C;
      spawn ab.run();
      spawn bc.run();
      spawn c.run();
    }
  )");
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesOracle(*M);
  EXPECT_EQ(onField(R, RW).size(), 2u);
  EXPECT_EQ(onField(R, UW).size(), 0u);
}

TEST(RacerDLikeEquivalenceEdgeTest, FunctionReachableOnlyFromMain) {
  // Main-only functions race neither with themselves nor with each
  // other; each races with the thread.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    global g: Obj;
    func setA() { var o: Obj; var x: int; o = @g; o.v = x; o.v = x; }
    func setB() { var o: Obj; var x: int; o = @g; o.v = x; }
    class T {
      method run() { var o: Obj; var x: int; o = @g; x = o.v; }
    }
    func main() {
      var o: Obj;
      var t: T;
      o = new Obj;
      @g = o;
      setA();
      setB();
      t = new T;
      spawn t.run();
    }
  )");
  ASSERT_TRUE(M);
  EXPECT_EQ(onField(expectMatchesOracle(*M), RW).size(), 2u);
}

TEST(RacerDLikeEquivalenceEdgeTest, NestedAndNonLIFORelease) {
  // The syntactic lock stack pops its top on any release, and ignores a
  // release with nothing held. The verifier rejects such regions, but the
  // detector runs on any module, so this one is left unverified: after
  // `acquire a; acquire b; release a` the detector believes `a` is held.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class Mutex { }
    global g: Obj;
    global la: Mutex;
    global lb: Mutex;
    class T {
      method run() {
        var o: Obj; var a: Mutex; var b: Mutex; var x: int;
        o = @g; a = @la; b = @lb;
        acquire a; acquire b; o.v = x;
        release a; o.v = x;
        release b; o.v = x;
        release b; o.v = x;
        acquire b; acquire a; acquire b; x = o.v; release b; x = o.v;
        release a; release b;
      }
    }
    class U {
      method run() {
        var o: Obj; var b: Mutex; var x: int;
        o = @g; b = @lb;
        acquire b; o.v = x; release b;
      }
    }
    func main() {
      var o: Obj; var m: Mutex; var t: T; var u: U;
      o = new Obj; @g = o;
      m = new Mutex; @la = m;
      m = new Mutex; @lb = m;
      t = new T; u = new U;
      spawn t.run();
      spawn u.run();
    }
  )",
                        /*Verify=*/false);
  ASSERT_TRUE(M);
  RacerDReport R = expectMatchesOracle(*M);
  EXPECT_EQ(onField(R, RW).size(), 2u); // T vs T, and {a} vs U's {b}
  EXPECT_EQ(onField(R, UW).size(), 2u);
}

} // namespace
