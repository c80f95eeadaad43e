//===- o2/Support/FlatIndexMap.h - Flat key numbering ----------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numbers distinct keys 0, 1, 2, ... in first-insertion order. One vector
/// of (key, number) slots, probed linearly and at most half full, holds
/// them all: an entry costs no allocation of its own. Callers index their
/// own payload vectors by the number. Keys are 64-bit words or pairs.
///
/// clear() is O(1) and keeps the slots: a slot is live only if its number
/// is above Base, and clearing raises Base past every live number, so a
/// map reused from task to task allocates only while it grows.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_FLATINDEXMAP_H
#define O2_SUPPORT_FLATINDEXMAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace o2 {

template <typename KeyT> class FlatIndexMap {
public:
  /// The number of \p K, and true if this call numbered it (with the count
  /// of keys numbered before it).
  std::pair<uint32_t, bool> insert(const KeyT &K) {
    if ((Size + 1) * 2 > Slots.size())
      grow();
    Slot &S = find(K);
    if (S.Number > Base)
      return {uint32_t(S.Number - Base - 1), false};
    S = {K, Base + ++Size};
    return {uint32_t(Size - 1), true};
  }

  void clear() {
    Base += Size;
    Size = 0;
  }

private:
  struct Slot {
    KeyT Key;
    uint64_t Number; ///< Base + 1 + the key's number; live if above Base.
  };

  static uint64_t hash(uint64_t X) {
    X = (X ^ (X >> 33)) * 0xff51afd7ed558ccdull;
    X = (X ^ (X >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return X ^ (X >> 33);
  }
  static uint64_t hash(const std::pair<uint64_t, uint64_t> &K) {
    return hash(K.first ^ hash(K.second));
  }

  /// The slot holding \p K, or the empty slot where it goes.
  Slot &find(const KeyT &K) {
    size_t Mask = Slots.size() - 1;
    size_t I = hash(K) & Mask;
    while (Slots[I].Number > Base && !(Slots[I].Key == K))
      I = (I + 1) & Mask;
    return Slots[I];
  }

  /// Doubles the table, 16 slots at first, keeping the live slots.
  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 16 : Slots.size() * 2, Slot{});
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Number > Base)
        find(S.Key) = S;
  }

  std::vector<Slot> Slots;
  uint64_t Size = 0, Base = 0;
};

} // namespace o2

#endif // O2_SUPPORT_FLATINDEXMAP_H
