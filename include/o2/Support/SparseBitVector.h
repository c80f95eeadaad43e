//===- o2/Support/SparseBitVector.h - Word-sparse bit set ------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of unsigned IDs stored as a flat vector of (word index, 64-bit
/// word) pairs sorted by index, used for points-to sets. Memory and the
/// cost of every set operation follow the number of nonzero words, not
/// the highest ID, so a pointer holding three objects costs three words
/// however many objects the module allocates.
///
/// The representation is canonical: a zero word is never stored, so two
/// sets are equal iff their pair vectors are, and numSetWords() is the
/// number of nonzero words the same set would have as a dense bitset.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_SPARSEBITVECTOR_H
#define O2_SUPPORT_SPARSEBITVECTOR_H

#include "o2/Support/BitVector.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace o2 {

class SparseBitVector {
public:
  using Word = uint64_t;
  static constexpr unsigned WordBits = 64;

  bool any() const { return !Elems.empty(); }
  bool none() const { return Elems.empty(); }

  /// Number of nonzero words (the unit bulk-propagation statistics count).
  unsigned numSetWords() const { return static_cast<unsigned>(Elems.size()); }

  bool test(unsigned Idx) const {
    size_t Pos = lowerBound(Idx / WordBits);
    return Pos != Elems.size() && Elems[Pos].Index == Idx / WordBits &&
           ((Elems[Pos].Bits >> (Idx % WordBits)) & 1);
  }

  /// Sets bit \p Idx; returns true if the bit was newly set.
  bool set(unsigned Idx) {
    unsigned WordIdx = Idx / WordBits;
    Word Mask = Word(1) << (Idx % WordBits);
    // IDs mostly arrive in ascending order: append without a search.
    if (Elems.empty() || Elems.back().Index < WordIdx) {
      Elems.push_back({WordIdx, Mask});
      return true;
    }
    // Otherwise some pair has an index >= WordIdx.
    size_t Pos = lowerBound(WordIdx);
    if (Elems[Pos].Index != WordIdx) {
      Elems.insert(Elems.begin() + Pos, {WordIdx, Mask});
      return true;
    }
    if (Elems[Pos].Bits & Mask)
      return false;
    Elems[Pos].Bits |= Mask;
    return true;
  }

  void clear() { Elems.clear(); }

  /// this |= RHS. Returns true if any bit changed.
  bool unionWith(const SparseBitVector &RHS) {
    return mergeFrom(RHS, [](unsigned, Word) {});
  }

  /// this |= RHS; the bits newly added here (RHS & ~old(this)) are also
  /// OR'd into \p NewBits. Returns true if any bit was added. Safe when
  /// &RHS == this (a self-union adds nothing); \p NewBits must be a
  /// distinct set. Allocates nothing when no bit is added.
  bool unionWithDiff(const SparseBitVector &RHS, SparseBitVector &NewBits) {
    if (NewBits.none())
      // The added words arrive in ascending order: append them.
      return mergeFrom(RHS, [&NewBits](unsigned WordIdx, Word Added) {
        NewBits.Elems.push_back({WordIdx, Added});
      });
    SparseBitVector Added;
    if (!unionWithDiff(RHS, Added))
      return false;
    NewBits.unionWith(Added);
    return true;
  }

  /// Returns this & ~RHS (the bits only this set has).
  SparseBitVector diff(const SparseBitVector &RHS) const {
    SparseBitVector Out;
    auto J = RHS.Elems.begin(), JE = RHS.Elems.end();
    for (const Elem &E : Elems) {
      while (J != JE && J->Index < E.Index)
        ++J;
      Word Bits = J != JE && J->Index == E.Index ? E.Bits & ~J->Bits : E.Bits;
      if (Bits)
        Out.Elems.push_back({E.Index, Bits});
    }
    return Out;
  }

  /// True if this set and the dense mask \p RHS share a bit.
  bool intersects(const BitVector &RHS) const {
    for (const Elem &E : Elems)
      if (E.Bits & RHS.word(E.Index))
        return true;
    return false;
  }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (const Elem &E : Elems)
      N += static_cast<unsigned>(__builtin_popcountll(E.Bits));
    return N;
  }

  bool operator==(const SparseBitVector &RHS) const {
    return Elems == RHS.Elems;
  }

  /// Iterates over set bits in ascending order.
  class SetBitIterator {
  public:
    SetBitIterator(const SparseBitVector &BV, size_t Pos) : BV(BV), Pos(Pos) {
      if (Pos != BV.Elems.size())
        Rest = BV.Elems[Pos].Bits;
    }
    unsigned operator*() const {
      return BV.Elems[Pos].Index * WordBits +
             static_cast<unsigned>(__builtin_ctzll(Rest));
    }
    SetBitIterator &operator++() {
      Rest &= Rest - 1;
      if (!Rest && ++Pos != BV.Elems.size())
        Rest = BV.Elems[Pos].Bits;
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const {
      return Pos != RHS.Pos || Rest != RHS.Rest;
    }

  private:
    const SparseBitVector &BV;
    size_t Pos;
    Word Rest = 0;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, 0); }
  SetBitIterator end() const { return SetBitIterator(*this, Elems.size()); }

private:
  struct Elem {
    unsigned Index;
    Word Bits;
    bool operator==(const Elem &) const = default;
  };

  /// Position of the first pair whose word index is >= \p WordIdx.
  size_t lowerBound(unsigned WordIdx) const {
    auto It = std::lower_bound(
        Elems.begin(), Elems.end(), WordIdx,
        [](const Elem &E, unsigned I) { return E.Index < I; });
    return static_cast<size_t>(It - Elems.begin());
  }

  /// this |= RHS as a linear merge, calling \p OnAdded(WordIndex, Bits)
  /// for the bits each word gains, in ascending word order. The additions
  /// are found in a first, read-only pass, so a union that adds nothing
  /// allocates nothing (and a self-union is a no-op); a union that only
  /// fills existing words stays in place, and one that adds words merges
  /// backwards into the grown vector without a scratch buffer.
  template <typename OnAddedT>
  bool mergeFrom(const SparseBitVector &RHS, OnAddedT OnAdded) {
    size_t NumNew = 0;
    bool Changed = false;
    auto I = Elems.begin(), IE = Elems.end();
    for (const Elem &R : RHS.Elems) {
      while (I != IE && I->Index < R.Index)
        ++I;
      Word Added = R.Bits;
      if (I != IE && I->Index == R.Index)
        Added &= ~I->Bits;
      else
        ++NumNew;
      if (Added) {
        Changed = true;
        OnAdded(R.Index, Added);
      }
    }
    if (!Changed)
      return false;
    if (!NumNew) {
      auto J = Elems.begin();
      for (const Elem &R : RHS.Elems) {
        while (J->Index < R.Index)
          ++J;
        J->Bits |= R.Bits;
      }
      return true;
    }
    size_t Src = Elems.size(), Dst = Src + NumNew, RI = RHS.Elems.size();
    Elems.resize(Dst);
    while (RI) {
      const Elem &R = RHS.Elems[RI - 1];
      if (Src && Elems[Src - 1].Index > R.Index) {
        --Src;
        Elems[--Dst] = Elems[Src];
        continue;
      }
      Word Bits = R.Bits;
      if (Src && Elems[Src - 1].Index == R.Index)
        Bits |= Elems[--Src].Bits;
      Elems[--Dst] = {R.Index, Bits};
      --RI;
    }
    // Once RHS is exhausted, Dst == Src: the rest is already in place.
    return true;
  }

  std::vector<Elem> Elems;
};

} // namespace o2

#endif // O2_SUPPORT_SPARSEBITVECTOR_H
