//===- RacerDOracle.h - Pairwise reference for the RacerD-like baseline -*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RacerD-like detector as a plain pairwise scan: every access pair
/// of a key is checked in (I, J) order and the first valid pair of each
/// function pair is reported. The production detector pairs equivalence
/// classes instead; `RacerDLikeEquivalenceTest` holds the two to the same
/// warning sequence and counts.
///
//===----------------------------------------------------------------------===//

#ifndef O2_TESTS_RACE_RACERDORACLE_H
#define O2_TESTS_RACE_RACERDORACLE_H

#include "o2/IR/Module.h"
#include "o2/Race/RacerDLike.h"

#include <vector>

namespace o2::test {

struct RacerDOracleResult {
  std::vector<RacerDWarning> Warnings;
  unsigned NumPotentialRaces = 0;

  unsigned numWarnings() const {
    return static_cast<unsigned>(Warnings.size());
  }
};

RacerDOracleResult runRacerDOracle(const Module &M);

} // namespace o2::test

#endif // O2_TESTS_RACE_RACERDORACLE_H
