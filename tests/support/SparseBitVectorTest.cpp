//===- SparseBitVectorTest.cpp - SparseBitVector unit tests ---------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/SparseBitVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

using o2::BitVector;
using o2::SparseBitVector;

namespace {

std::set<unsigned> bitsOf(const SparseBitVector &BV) {
  std::set<unsigned> Out;
  for (unsigned I : BV)
    Out.insert(I);
  return Out;
}

std::vector<unsigned> inOrder(const SparseBitVector &BV) {
  std::vector<unsigned> Out;
  for (unsigned I : BV)
    Out.push_back(I);
  return Out;
}

/// Nonzero words of the dense bitset holding \p Bits.
unsigned denseSetWords(const std::set<unsigned> &Bits) {
  BitVector Dense;
  for (unsigned I : Bits)
    Dense.set(I);
  unsigned N = 0;
  for (unsigned W = 0; W * BitVector::WordBits < Dense.size(); ++W)
    N += Dense.word(W) != 0;
  return N;
}

TEST(SparseBitVectorTest, DefaultEmpty) {
  SparseBitVector BV;
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.any());
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_EQ(BV.numSetWords(), 0u);
  EXPECT_FALSE(BV.test(0));
  EXPECT_TRUE(inOrder(BV).empty());
}

TEST(SparseBitVectorTest, SetReportsNewnessAndKeepsOrder) {
  SparseBitVector BV;
  EXPECT_TRUE(BV.set(1u << 20));
  EXPECT_TRUE(BV.set(0));
  EXPECT_TRUE(BV.set(64));
  EXPECT_FALSE(BV.set(0));
  EXPECT_TRUE(BV.set(63));
  EXPECT_FALSE(BV.set(1u << 20));
  EXPECT_EQ(inOrder(BV), (std::vector<unsigned>{0, 63, 64, 1u << 20}));
  EXPECT_EQ(BV.numSetWords(), 3u);
  EXPECT_TRUE(BV.test(63));
  EXPECT_FALSE(BV.test(62));
  EXPECT_FALSE(BV.test((1u << 20) + 1));
  BV.clear();
  EXPECT_TRUE(BV.none());
}

TEST(SparseBitVectorTest, IntersectsDenseMask) {
  SparseBitVector A;
  A.set(5);
  A.set(70);
  BitVector B;
  B.set(70);
  B.set(90);
  EXPECT_TRUE(A.intersects(B));
  BitVector C;
  C.set(4);
  EXPECT_FALSE(A.intersects(C));
  // Words past the end of the dense mask are zero.
  SparseBitVector Far;
  Far.set(1u << 20);
  EXPECT_FALSE(Far.intersects(B));
  EXPECT_FALSE(A.intersects(BitVector()));
}

TEST(SparseBitVectorTest, UnionWithReportsChange) {
  SparseBitVector A, B;
  A.set(0);
  A.set(63);
  B.set(64);
  B.set(130);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.count(), 4u);
  EXPECT_FALSE(A.unionWith(B));
  // Self-union is a no-op.
  EXPECT_FALSE(A.unionWith(A));
  EXPECT_EQ(A.count(), 4u);
}

TEST(SparseBitVectorTest, UnionWithDiffExtractsNewBits) {
  SparseBitVector A, B, New;
  A.set(1);
  A.set(70);
  B.set(1); // already present: must not appear in New
  B.set(2);
  B.set(200);
  EXPECT_TRUE(A.unionWithDiff(B, New));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(200));
  EXPECT_EQ(bitsOf(New), (std::set<unsigned>{2, 200}));
  // Re-union adds nothing and leaves New untouched.
  SparseBitVector New2;
  EXPECT_FALSE(A.unionWithDiff(B, New2));
  EXPECT_TRUE(New2.none());
}

TEST(SparseBitVectorTest, UnionWithDiffAccumulates) {
  SparseBitVector A, B, C, New;
  B.set(90);
  C.set(3);
  EXPECT_TRUE(A.unionWithDiff(B, New));
  EXPECT_TRUE(A.unionWithDiff(C, New));
  EXPECT_EQ(bitsOf(New), (std::set<unsigned>{3, 90}));
  EXPECT_EQ(inOrder(New), (std::vector<unsigned>{3, 90}));
}

TEST(SparseBitVectorTest, UnionWithDiffSelfIsNoop) {
  SparseBitVector A, New;
  A.set(7);
  A.set(128);
  EXPECT_FALSE(A.unionWithDiff(A, New));
  EXPECT_TRUE(New.none());
  EXPECT_EQ(A.count(), 2u);
}

TEST(SparseBitVectorTest, Diff) {
  SparseBitVector A, B;
  A.set(1);
  A.set(64);
  A.set(200);
  B.set(64);
  B.set(300);
  SparseBitVector D = A.diff(B);
  EXPECT_EQ(bitsOf(D), (std::set<unsigned>{1, 200}));
  // A word emptied by the diff is dropped, not stored as zero.
  EXPECT_EQ(D.numSetWords(), 2u);
  EXPECT_TRUE(B.diff(B).none());
  EXPECT_EQ(B.diff(B).numSetWords(), 0u);
  SparseBitVector Empty;
  EXPECT_TRUE(A.diff(Empty) == A);
}

TEST(SparseBitVectorTest, NumSetWordsCountsNonzeroWords) {
  SparseBitVector BV;
  BV.set(0);
  BV.set(63);
  BV.set(130);
  EXPECT_EQ(BV.numSetWords(), 2u);
  BV.set(1u << 20);
  EXPECT_EQ(BV.numSetWords(), 3u);
  EXPECT_EQ(BV.numSetWords(), denseSetWords(bitsOf(BV)));
}

TEST(SparseBitVectorTest, EqualityIsCanonical) {
  // The same set built in different orders, and through a diff that
  // empties a word, compares equal.
  SparseBitVector A, B, C;
  A.set(3);
  A.set(1u << 20);
  B.set(1u << 20);
  B.set(3);
  C.set(3);
  C.set(100);
  C.set(1u << 20);
  SparseBitVector Drop;
  Drop.set(100);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(C.diff(Drop) == A);
  B.set(999);
  EXPECT_FALSE(A == B);
}

/// Draws an ID from clusters far apart: near 0, in the low thousands, and
/// at and above 2^20, so merges interleave, extend both ends and fill
/// existing words.
unsigned drawId(std::mt19937 &Rng) {
  switch (Rng() % 4) {
  case 0:
    return Rng() % 130;
  case 1:
    return 4096 + Rng() % 700;
  case 2:
    return (1u << 20) + Rng() % 200;
  default:
    return (1u << 21) + Rng() % 64;
  }
}

struct Sample {
  SparseBitVector Sparse;
  std::set<unsigned> Ref;
};

Sample drawSet(std::mt19937 &Rng) {
  Sample S;
  unsigned N = Rng() % 24;
  for (unsigned I = 0; I != N; ++I) {
    unsigned Id = drawId(Rng);
    EXPECT_EQ(S.Sparse.set(Id), S.Ref.insert(Id).second) << Id;
  }
  return S;
}

TEST(SparseBitVectorTest, RandomizedMatchesReferenceSets) {
  std::mt19937 Rng(20211);
  for (unsigned Round = 0; Round != 400; ++Round) {
    Sample A = drawSet(Rng), B = drawSet(Rng);
    const std::set<unsigned> &RA = A.Ref, &RB = B.Ref;
    SCOPED_TRACE("round " + std::to_string(Round));

    // Membership, ascending iteration, count and word count.
    std::vector<unsigned> Sorted(RA.begin(), RA.end());
    EXPECT_EQ(inOrder(A.Sparse), Sorted);
    EXPECT_EQ(A.Sparse.count(), RA.size());
    EXPECT_EQ(A.Sparse.numSetWords(), denseSetWords(RA));
    for (unsigned Probe = 0; Probe != 16; ++Probe) {
      unsigned Id = drawId(Rng);
      EXPECT_EQ(A.Sparse.test(Id), RA.count(Id) != 0) << Id;
    }

    // diff.
    std::set<unsigned> AMinusB;
    std::set_difference(RA.begin(), RA.end(), RB.begin(), RB.end(),
                        std::inserter(AMinusB, AMinusB.end()));
    SparseBitVector D = A.Sparse.diff(B.Sparse);
    EXPECT_EQ(bitsOf(D), AMinusB);
    EXPECT_EQ(D.numSetWords(), denseSetWords(AMinusB));

    // intersects against the dense mask.
    BitVector DenseB;
    for (unsigned Id : RB)
      DenseB.set(Id);
    std::vector<unsigned> Common;
    std::set_intersection(RA.begin(), RA.end(), RB.begin(), RB.end(),
                          std::back_inserter(Common));
    EXPECT_EQ(A.Sparse.intersects(DenseB), !Common.empty());

    // unionWith and the bits the diff-union adds.
    std::set<unsigned> Union = RA;
    Union.insert(RB.begin(), RB.end());
    std::set<unsigned> Added;
    std::set_difference(RB.begin(), RB.end(), RA.begin(), RA.end(),
                        std::inserter(Added, Added.end()));
    SparseBitVector U = A.Sparse;
    EXPECT_EQ(U.unionWith(B.Sparse), !Added.empty());
    EXPECT_EQ(bitsOf(U), Union);
    EXPECT_EQ(U.numSetWords(), denseSetWords(Union));
    SparseBitVector UD = A.Sparse, New;
    EXPECT_EQ(UD.unionWithDiff(B.Sparse, New), !Added.empty());
    EXPECT_TRUE(UD == U);
    EXPECT_EQ(bitsOf(New), Added);
    EXPECT_EQ(New.numSetWords(), denseSetWords(Added));
    EXPECT_TRUE(New == B.Sparse.diff(A.Sparse));

    // A union that only fills words A already holds (the in-place merge).
    if (!RA.empty()) {
      SparseBitVector Fill, FillTarget = A.Sparse, FillNew;
      std::set<unsigned> FillRef = RA, FillAdded;
      for (unsigned Id : RB) {
        unsigned Base = Sorted[Id % Sorted.size()] / 64 * 64;
        unsigned FillId = Base + Id % 64;
        Fill.set(FillId);
        if (FillRef.insert(FillId).second)
          FillAdded.insert(FillId);
      }
      EXPECT_EQ(FillTarget.unionWithDiff(Fill, FillNew), !FillAdded.empty());
      EXPECT_EQ(bitsOf(FillTarget), FillRef);
      EXPECT_EQ(FillTarget.numSetWords(), A.Sparse.numSetWords());
      EXPECT_EQ(bitsOf(FillNew), FillAdded);
    }

    // Accumulating into a non-empty NewBits ORs the additions in.
    SparseBitVector Acc = D, UA = A.Sparse;
    UA.unionWithDiff(B.Sparse, Acc);
    std::set<unsigned> AccRef = AMinusB;
    AccRef.insert(Added.begin(), Added.end());
    EXPECT_EQ(bitsOf(Acc), AccRef);

    // Self-union adds nothing.
    SparseBitVector Self = U, SelfNew;
    EXPECT_FALSE(Self.unionWith(Self));
    EXPECT_FALSE(Self.unionWithDiff(Self, SelfNew));
    EXPECT_TRUE(SelfNew.none());
    EXPECT_TRUE(Self == U);

    // Canonical form: the same set reached by another route compares ==,
    // and a diff that empties every word leaves no zero word behind.
    SparseBitVector Rebuilt;
    for (auto It = Union.rbegin(); It != Union.rend(); ++It)
      Rebuilt.set(*It);
    EXPECT_TRUE(Rebuilt == U);
    SparseBitVector BThenA = B.Sparse;
    BThenA.unionWith(A.Sparse);
    EXPECT_TRUE(BThenA == U);
    EXPECT_TRUE(U.diff(U) == SparseBitVector());
    EXPECT_TRUE(U.diff(B.Sparse) == D);
  }
}

} // namespace
