//===- BitVectorTest.cpp - BitVector unit tests ------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/BitVector.h"

#include <gtest/gtest.h>

#include <set>

using o2::BitVector;

namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector BV;
  EXPECT_TRUE(BV.empty());
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_TRUE(BV.none());
  EXPECT_EQ(BV.findFirst(), -1);
}

TEST(BitVectorTest, SetGrowsAndReportsNewness) {
  BitVector BV;
  EXPECT_TRUE(BV.set(100));
  EXPECT_FALSE(BV.set(100)); // already set
  EXPECT_TRUE(BV.test(100));
  EXPECT_FALSE(BV.test(99));
  EXPECT_GE(BV.size(), 101u);
}

TEST(BitVectorTest, ResetAndClear) {
  BitVector BV(64);
  BV.set(3);
  BV.set(63);
  BV.reset(3);
  EXPECT_FALSE(BV.test(3));
  EXPECT_TRUE(BV.test(63));
  BV.clear();
  EXPECT_TRUE(BV.none());
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector BV(70, true);
  EXPECT_EQ(BV.count(), 70u);
  EXPECT_TRUE(BV.test(69));
  EXPECT_FALSE(BV.test(70)); // out of range
}

TEST(BitVectorTest, UnionWith) {
  BitVector A, B;
  A.set(1);
  A.set(65);
  B.set(2);
  B.set(65);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(65));
  EXPECT_EQ(A.count(), 3u);
  // Second union adds nothing.
  EXPECT_FALSE(A.unionWith(B));
}

TEST(BitVectorTest, UnionGrows) {
  BitVector A, B;
  A.set(0);
  B.set(200);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(200));
}

TEST(BitVectorTest, WordReadsZeroPastEnd) {
  BitVector BV;
  BV.set(0);
  BV.set(63);
  BV.set(130);
  EXPECT_EQ(BV.word(0), (BitVector::Word(1) | (BitVector::Word(1) << 63)));
  EXPECT_EQ(BV.word(1), 0u);
  EXPECT_EQ(BV.word(2), BitVector::Word(1) << 2);
  EXPECT_EQ(BV.word(3), 0u);
  EXPECT_EQ(BV.word(1000), 0u);
}

TEST(BitVectorTest, UnionCountStopsAtTheLimit) {
  BitVector A, B;
  EXPECT_EQ(BitVector::unionCount(A, B, 2), 0u);
  A.set(3);
  B.set(3);
  EXPECT_EQ(BitVector::unionCount(A, B, 2), 1u) << "a shared bit counts once";
  B.set(200); // B is wider than A
  EXPECT_EQ(BitVector::unionCount(A, B, 2), 2u);
  EXPECT_EQ(BitVector::unionCount(B, A, 2), 2u);
  A.set(70);
  EXPECT_EQ(BitVector::unionCount(A, B, 100), 3u);
  // Counting stops at the first word that reaches the limit.
  EXPECT_EQ(BitVector::unionCount(A, B, 1), 1u);
}

TEST(BitVectorTest, FindFirstAndNext) {
  BitVector BV;
  BV.set(7);
  BV.set(64);
  BV.set(128);
  EXPECT_EQ(BV.findFirst(), 7);
  EXPECT_EQ(BV.findNext(8), 64);
  EXPECT_EQ(BV.findNext(64), 64);
  EXPECT_EQ(BV.findNext(65), 128);
  EXPECT_EQ(BV.findNext(129), -1);
}

TEST(BitVectorTest, SetBitIteration) {
  BitVector BV;
  std::set<unsigned> Expected = {3, 64, 65, 200};
  for (unsigned I : Expected)
    BV.set(I);
  std::set<unsigned> Got;
  for (unsigned I : BV)
    Got.insert(I);
  EXPECT_EQ(Got, Expected);
}

TEST(BitVectorTest, EqualityIgnoresTrailingZeroWords) {
  BitVector A, B;
  A.set(3);
  B.set(3);
  B.ensureSize(1000);
  EXPECT_TRUE(A == B);
  B.set(999);
  EXPECT_FALSE(A == B);
}

TEST(BitVectorTest, ResizeWithValueTrue) {
  BitVector BV(10, true);
  BV.resize(20, true);
  EXPECT_EQ(BV.count(), 20u);
  BV.resize(5, true);
  EXPECT_EQ(BV.count(), 5u);
}

} // namespace
