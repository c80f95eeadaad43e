//===- o2/Support/BitVector.h - Dense bit vector ---------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamically sized dense set of bits with word-at-a-time set
/// operations, used for small-ID masks: origin and thread sets, shared
/// statement flags and the escaped-object mask. Points-to sets, whose IDs
/// range over every object of a module, use SparseBitVector instead.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_BITVECTOR_H
#define O2_SUPPORT_BITVECTOR_H

#include "o2/Support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace o2 {

class BitVector {
public:
  using Word = uint64_t;
  static constexpr unsigned WordBits = 64;

  BitVector() = default;
  explicit BitVector(unsigned NumBits, bool Value = false)
      : NumBits(NumBits),
        Words((NumBits + WordBits - 1) / WordBits,
              Value ? ~Word(0) : Word(0)) {
    clearUnusedBits();
  }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows (never shrinks) to hold at least \p N bits; new bits are zero.
  void ensureSize(unsigned N) {
    if (N <= NumBits)
      return;
    NumBits = N;
    Words.resize((NumBits + WordBits - 1) / WordBits, 0);
  }

  void resize(unsigned N, bool Value = false) {
    unsigned OldBits = NumBits;
    NumBits = N;
    Words.resize((NumBits + WordBits - 1) / WordBits, Value ? ~Word(0) : 0);
    if (Value && N > OldBits && OldBits % WordBits != 0) {
      // The partial old last word must get its upper bits set.
      Words[OldBits / WordBits] |= ~Word(0) << (OldBits % WordBits);
    }
    clearUnusedBits();
  }

  bool test(unsigned Idx) const {
    if (Idx >= NumBits)
      return false;
    return (Words[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  /// Sets bit \p Idx, growing if needed; returns true if the bit was newly
  /// set (useful for worklist algorithms).
  bool set(unsigned Idx) {
    ensureSize(Idx + 1);
    Word Mask = Word(1) << (Idx % WordBits);
    Word &W = Words[Idx / WordBits];
    if (W & Mask)
      return false;
    W |= Mask;
    return true;
  }

  void reset(unsigned Idx) {
    if (Idx >= NumBits)
      return;
    Words[Idx / WordBits] &= ~(Word(1) << (Idx % WordBits));
  }

  void clear() {
    for (Word &W : Words)
      W = 0;
  }

  /// this |= RHS, word-at-a-time. Returns true if any bit changed.
  bool unionWith(const BitVector &RHS) {
    ensureSize(RHS.NumBits);
    bool Changed = false;
    for (size_t I = 0, E = RHS.Words.size(); I != E; ++I) {
      Word Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Word \p WordIdx of the mask (bits [64*WordIdx, 64*WordIdx+64)); zero
  /// beyond the end.
  Word word(unsigned WordIdx) const {
    return WordIdx < Words.size() ? Words[WordIdx] : 0;
  }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (Word W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  /// Number of set bits in \p A | \p B, counted word by word without
  /// materializing the union; stops early once it reaches \p Limit.
  static unsigned unionCount(const BitVector &A, const BitVector &B,
                             unsigned Limit) {
    size_t NumWords = std::max(A.Words.size(), B.Words.size());
    unsigned N = 0;
    for (size_t I = 0; I < NumWords && N < Limit; ++I)
      N += static_cast<unsigned>(
          __builtin_popcountll(A.word(unsigned(I)) | B.word(unsigned(I))));
    return N;
  }

  bool any() const {
    for (Word W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Index of the first set bit, or -1 if none.
  int findFirst() const { return findNext(0); }

  /// Index of the first set bit at position >= \p From, or -1.
  int findNext(unsigned From) const {
    if (From >= NumBits)
      return -1;
    unsigned WordIdx = From / WordBits;
    Word W = Words[WordIdx] & (~Word(0) << (From % WordBits));
    while (true) {
      if (W)
        return static_cast<int>(WordIdx * WordBits +
                                static_cast<unsigned>(__builtin_ctzll(W)));
      if (++WordIdx >= Words.size())
        return -1;
      W = Words[WordIdx];
    }
  }

  bool operator==(const BitVector &RHS) const {
    size_t Common = std::min(Words.size(), RHS.Words.size());
    for (size_t I = 0; I != Common; ++I)
      if (Words[I] != RHS.Words[I])
        return false;
    for (size_t I = Common; I < Words.size(); ++I)
      if (Words[I])
        return false;
    for (size_t I = Common; I < RHS.Words.size(); ++I)
      if (RHS.Words[I])
        return false;
    return true;
  }

  /// Iterates over indices of set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, int Pos) : BV(BV), Pos(Pos) {}
    unsigned operator*() const { return static_cast<unsigned>(Pos); }
    SetBitIterator &operator++() {
      Pos = BV.findNext(static_cast<unsigned>(Pos) + 1);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Pos != RHS.Pos; }

  private:
    const BitVector &BV;
    int Pos;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, -1); }

private:
  void clearUnusedBits() {
    if (NumBits % WordBits != 0 && !Words.empty())
      Words.back() &= (Word(1) << (NumBits % WordBits)) - 1;
  }

  unsigned NumBits = 0;
  std::vector<Word> Words;
};

} // namespace o2

#endif // O2_SUPPORT_BITVECTOR_H
