//===- DeadlockDetectorTest.cpp - lock-order deadlock tests ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/DeadlockDetector.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/SHB/HBIndex.h"
#include "o2/Support/OutputStream.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

DeadlockReport detect(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(M, Opts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  return detectDeadlocks(*PTA, SHB, HBIndex(SHB));
}

/// Two threads taking two locks; the acquisition order is a parameter.
std::string twoLockProgram(bool SameOrder, bool WithGate = false) {
  std::string ABody = WithGate ? "acquire g;\n" : "";
  std::string AEnd = WithGate ? "release g;\n" : "";
  std::string T2First = SameOrder ? "la" : "lb";
  std::string T2Second = SameOrder ? "lb" : "la";
  return R"(
    class Lock { }
    global ga: Lock;
    global gb: Lock;
    global gg: Lock;
    class T1 {
      method run() {
        var la: Lock;
        var lb: Lock;
        var g: Lock;
        la = @ga;
        lb = @gb;
        g = @gg;
        )" + ABody + R"(
        acquire la;
        acquire lb;
        release lb;
        release la;
        )" + AEnd + R"(
      }
    }
    class T2 {
      method run() {
        var la: Lock;
        var lb: Lock;
        var g: Lock;
        la = @ga;
        lb = @gb;
        g = @gg;
        )" + ABody + R"(
        acquire )" + T2First + R"(;
        acquire )" + T2Second + R"(;
        release )" + T2Second + R"(;
        release )" + T2First + R"(;
        )" + AEnd + R"(
      }
    }
    func main() {
      var a: Lock;
      var b: Lock;
      var g: Lock;
      var t1: T1;
      var t2: T2;
      a = new Lock;
      b = new Lock;
      g = new Lock;
      @ga = a;
      @gb = b;
      @gg = g;
      t1 = new T1;
      t2 = new T2;
      spawn t1.run();
      spawn t2.run();
    }
  )";
}

TEST(DeadlockDetectorTest, ABBADeadlockFound) {
  auto M = parseProgram(twoLockProgram(/*SameOrder=*/false));
  DeadlockReport R = detect(*M);
  ASSERT_EQ(R.numDeadlocks(), 1u);
  EXPECT_EQ(R.cycles()[0].Locks.size(), 2u);
  EXPECT_EQ(R.cycles()[0].Witnesses.size(), 2u);
  EXPECT_NE(R.cycles()[0].Witnesses[0].Thread,
            R.cycles()[0].Witnesses[1].Thread);
}

TEST(DeadlockDetectorTest, ConsistentOrderIsSafe) {
  auto M = parseProgram(twoLockProgram(/*SameOrder=*/true));
  DeadlockReport R = detect(*M);
  EXPECT_EQ(R.numDeadlocks(), 0u);
  // The ordered edges themselves are still recorded.
  EXPECT_GE(R.edges().size(), 2u);
}

TEST(DeadlockDetectorTest, GateLockSerializesCycle) {
  auto M = parseProgram(twoLockProgram(/*SameOrder=*/false,
                                       /*WithGate=*/true));
  DeadlockReport R = detect(*M);
  EXPECT_EQ(R.numDeadlocks(), 0u);
}

TEST(DeadlockDetectorTest, SingleThreadCycleNotReported) {
  // One thread that (sequentially) takes A->B then B->A cannot deadlock
  // with itself.
  auto M = parseProgram(R"(
    class Lock { }
    global ga: Lock;
    global gb: Lock;
    class T1 {
      method run() {
        var la: Lock;
        var lb: Lock;
        la = @ga;
        lb = @gb;
        acquire la;
        acquire lb;
        release lb;
        release la;
        acquire lb;
        acquire la;
        release la;
        release lb;
      }
    }
    func main() {
      var a: Lock;
      var b: Lock;
      var t: T1;
      a = new Lock;
      b = new Lock;
      @ga = a;
      @gb = b;
      t = new T1;
      spawn t.run();
    }
  )");
  DeadlockReport R = detect(*M);
  EXPECT_EQ(R.numDeadlocks(), 0u);
}

TEST(DeadlockDetectorTest, ThreeCycleFound) {
  auto M = parseProgram(R"(
    class Lock { }
    global ga: Lock;
    global gb: Lock;
    global gc: Lock;
    class TA {
      method run() {
        var x: Lock;
        var y: Lock;
        x = @ga;
        y = @gb;
        acquire x;
        acquire y;
        release y;
        release x;
      }
    }
    class TB {
      method run() {
        var x: Lock;
        var y: Lock;
        x = @gb;
        y = @gc;
        acquire x;
        acquire y;
        release y;
        release x;
      }
    }
    class TC {
      method run() {
        var x: Lock;
        var y: Lock;
        x = @gc;
        y = @ga;
        acquire x;
        acquire y;
        release y;
        release x;
      }
    }
    func main() {
      var a: Lock;
      var b: Lock;
      var c: Lock;
      var ta: TA;
      var tb: TB;
      var tc: TC;
      a = new Lock;
      b = new Lock;
      c = new Lock;
      @ga = a;
      @gb = b;
      @gc = c;
      ta = new TA;
      tb = new TB;
      tc = new TC;
      spawn ta.run();
      spawn tb.run();
      spawn tc.run();
    }
  )");
  DeadlockReport R = detect(*M);
  ASSERT_EQ(R.numDeadlocks(), 1u);
  EXPECT_EQ(R.cycles()[0].Locks.size(), 3u);
}

TEST(DeadlockDetectorTest, ForkJoinOrderingPrunesCycle) {
  // T2 only runs after T1 was joined: the inverse acquisitions can never
  // overlap.
  auto M = parseProgram(R"(
    class Lock { }
    global ga: Lock;
    global gb: Lock;
    class T1 {
      method run() {
        var la: Lock;
        var lb: Lock;
        la = @ga;
        lb = @gb;
        acquire la;
        acquire lb;
        release lb;
        release la;
      }
    }
    class T2 {
      method run() {
        var la: Lock;
        var lb: Lock;
        la = @ga;
        lb = @gb;
        acquire lb;
        acquire la;
        release la;
        release lb;
      }
    }
    func main() {
      var a: Lock;
      var b: Lock;
      var t1: T1;
      var t2: T2;
      a = new Lock;
      b = new Lock;
      @ga = a;
      @gb = b;
      t1 = new T1;
      spawn t1.run();
      join t1;
      t2 = new T2;
      spawn t2.run();
    }
  )");
  DeadlockReport R = detect(*M);
  EXPECT_EQ(R.numDeadlocks(), 0u);
}

TEST(DeadlockDetectorTest, ReportPrints) {
  auto M = parseProgram(twoLockProgram(/*SameOrder=*/false));
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(*M, Opts);
  SHBGraph SHB = buildSHBGraph(*PTA);
  DeadlockReport R = detectDeadlocks(*PTA, SHB, HBIndex(SHB));
  std::string Buf;
  StringOutputStream OS(Buf);
  R.print(OS, *PTA);
  EXPECT_NE(Buf.find("1 potential deadlock"), std::string::npos);
  EXPECT_NE(Buf.find("lock cycle"), std::string::npos);
}

} // namespace
