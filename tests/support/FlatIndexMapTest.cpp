//===- FlatIndexMapTest.cpp - FlatIndexMap unit tests ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/FlatIndexMap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using o2::FlatIndexMap;

namespace {

using Pair = std::pair<uint64_t, uint64_t>;

TEST(FlatIndexMapTest, NumbersKeysInFirstInsertionOrder) {
  FlatIndexMap<uint64_t> M;
  EXPECT_EQ(M.insert(42), std::make_pair(0u, true));
  EXPECT_EQ(M.insert(7), std::make_pair(1u, true));
  EXPECT_EQ(M.insert(42), std::make_pair(0u, false));
  EXPECT_EQ(M.insert(0), std::make_pair(2u, true)) << "zero is a key";
  EXPECT_EQ(M.insert(~uint64_t(0)), std::make_pair(3u, true));
  EXPECT_EQ(M.insert(7), std::make_pair(1u, false));
}

TEST(FlatIndexMapTest, PairKeysCompareBothWords) {
  FlatIndexMap<Pair> M;
  EXPECT_EQ(M.insert({1, 2}), std::make_pair(0u, true));
  EXPECT_EQ(M.insert({2, 1}), std::make_pair(1u, true));
  EXPECT_EQ(M.insert({1, 3}), std::make_pair(2u, true));
  EXPECT_EQ(M.insert({1, 2}), std::make_pair(0u, false));
  EXPECT_EQ(M.insert({0, 0}), std::make_pair(3u, true));
}

TEST(FlatIndexMapTest, ClearForgetsKeysAndRestartsNumbering) {
  FlatIndexMap<uint64_t> M;
  for (uint64_t K = 0; K < 100; ++K)
    EXPECT_EQ(M.insert(K * 3).first, K);
  M.clear();
  // Old keys are gone, even where their slots still hold them.
  EXPECT_EQ(M.insert(297), std::make_pair(0u, true));
  EXPECT_EQ(M.insert(0), std::make_pair(1u, true));
  EXPECT_EQ(M.insert(297), std::make_pair(0u, false));
  M.clear();
  M.clear();
  EXPECT_EQ(M.insert(0), std::make_pair(0u, true));
}

/// Seeded differential test against std::map over growth and reuse: every
/// round clears the map and inserts a batch of keys drawn from a small
/// range (many repeats), a clustered range and the whole word.
template <typename KeyT, typename Draw> void differential(Draw DrawKey) {
  std::mt19937_64 Rng(20211);
  FlatIndexMap<KeyT> M;
  for (unsigned Round = 0; Round < 60; ++Round) {
    M.clear();
    std::map<KeyT, uint32_t> Ref;
    size_t N = Rng() % 3000;
    for (size_t I = 0; I < N; ++I) {
      KeyT K = DrawKey(Rng);
      auto [It, New] = Ref.try_emplace(K, uint32_t(Ref.size()));
      ASSERT_EQ(M.insert(K), std::make_pair(It->second, New))
          << "round " << Round << " insert " << I;
    }
  }
}

uint64_t drawWord(std::mt19937_64 &Rng) {
  switch (Rng() % 3) {
  case 0:
    return Rng() % 512;
  case 1:
    return (uint64_t(Rng() % 64) << 32) | (Rng() % 64);
  default:
    return Rng();
  }
}

TEST(FlatIndexMapTest, MatchesStdMapOnWordKeys) {
  differential<uint64_t>(drawWord);
}

TEST(FlatIndexMapTest, MatchesStdMapOnPairKeys) {
  differential<Pair>([](std::mt19937_64 &Rng) {
    return Pair{drawWord(Rng), drawWord(Rng) % 8};
  });
}

} // namespace
