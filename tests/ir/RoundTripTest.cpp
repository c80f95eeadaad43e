//===- RoundTripTest.cpp - print/parse round-trip tests ------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

/// Asserts that printing, reparsing, and reprinting \p Src is a fixpoint.
void checkRoundTrip(std::string_view Src) {
  std::string Err;
  auto M1 = parseModule(Src, Err);
  ASSERT_TRUE(M1) << Err;
  std::string P1 = printModule(*M1);
  auto M2 = parseModule(P1, Err);
  ASSERT_TRUE(M2) << Err << "\nprinted module was:\n" << P1;
  std::string P2 = printModule(*M2);
  EXPECT_EQ(P1, P2);

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M2, Errors))
      << "verifier rejected round-tripped module: " << Errors.front();
}

TEST(RoundTripTest, HelloConcurrency) {
  checkRoundTrip(R"(
    class Worker {
      field data: int;
      method run() {
        var d: int;
        d = this.data;
        this.data = d;
      }
    }
    func main() {
      var w: Worker;
      w = new Worker;
      spawn w.run();
      join w;
    }
  )");
}

TEST(RoundTripTest, EveryStatementForm) {
  checkRoundTrip(R"(
    global shared: Node;
    global hits: int;
    class Node {
      field next: Node;
      field value: int;
      method init(n: Node) { this.next = n; }
      method run() {
        var v: int;
        v = this.value;
      }
      method get(): Node { return this; }
    }
    func pick(a: Node, b: Node): Node {
      return a;
    }
    func main() {
      var x: Node;
      var y: Node;
      var c: int;
      var arr: Node[];
      x = new Node(x);
      y = new Node(x);
      loop { y = new Node(x); }
      loop { spawn y.run(); }
      arr = newarray Node;
      arr[*] = x;
      y = arr[*];
      y = x;
      x.next = y;
      y = x.next;
      c = x.value;
      x.value = c;
      @shared = x;
      y = @shared;
      @hits = c;
      c = @hits;
      y = pick(x, y);
      pick(x, y);
      y = x.get();
      x.run();
      acquire x;
      release x;
      spawn x.run();
      join x;
    }
  )");
}

TEST(RoundTripTest, InheritanceHierarchy) {
  checkRoundTrip(R"(
    class A { field f: int; method m() { } }
    class B extends A { method m() { } }
    class C extends B { field g: A; }
    func main() {
      var c: C;
      var a: A;
      c = new C;
      a = c;
      a.m();
    }
  )");
}

TEST(RoundTripTest, MethodsWithParamsAndReturns) {
  checkRoundTrip(R"(
    class Box {
      field item: Box;
      method swap(other: Box, extra: int): Box {
        var tmp: Box;
        tmp = this.item;
        this.item = other;
        return tmp;
      }
    }
    func main() {
      var b: Box;
      var r: Box;
      var k: int;
      b = new Box;
      r = b.swap(b, k);
    }
  )");
}

// "$ret" is an ordinary local name: the printer must declare it like any
// other, or the reparse fails on its first use.
TEST(RoundTripTest, LocalNamedRet) {
  checkRoundTrip(R"(
    class Data { }
    func make(): Data {
      var $ret: Data;
      var d: Data;
      d = new Data;
      $ret = d;
      return $ret;
    }
    func main() {
      var x: Data;
      x = make();
    }
  )");
}

} // namespace
