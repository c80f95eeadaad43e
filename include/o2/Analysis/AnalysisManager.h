//===- o2/Analysis/AnalysisManager.h - Typed pass manager ---------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass manager that replaces the hardwired PTA→OSA→SHB→Detect
/// pipeline. Every analysis the repo grows — the paper's core phases plus
/// the sibling consumers (deadlock, over-synchronization, the RacerD-like
/// baseline, the thread-escape baseline) and the shared HBIndex — is a
/// registered pass with a typed result, declared dependencies, a version,
/// and a deterministic config fingerprint. The manager:
///
///  - topologically schedules the requested passes (dependencies always
///    precede dependents; the order is the enum order, which is exactly
///    the order the old facade hardwired),
///  - computes each result **once** per module and shares it with every
///    consumer (one PTA and one SHB feed race + deadlock + over-sync;
///    one HBIndex feeds the race and deadlock detectors),
///  - threads the per-job CancellationToken uniformly through every pass
///    and records the pass it fired in, so a timeout in *any* analysis —
///    including the aux detectors — names the real phase,
///  - exposes per-pass wall-clock seconds and invocation counters, and
///  - derives a per-pass / whole-request config fingerprint (options that
///    affect the result, pass versions, dependency fingerprints) that the
///    batch driver's warm cache keys on.
///
/// The old one-call `analyzeModule` facade (o2/O2.h) is a thin shim over
/// this class.
///
//===----------------------------------------------------------------------===//

#ifndef O2_ANALYSIS_ANALYSISMANAGER_H
#define O2_ANALYSIS_ANALYSISMANAGER_H

#include "o2/OSA/EscapeAnalysis.h"
#include "o2/OSA/SharingAnalysis.h"
#include "o2/PTA/PointerAnalysis.h"
#include "o2/Race/DeadlockDetector.h"
#include "o2/Race/OverSync.h"
#include "o2/Race/RaceDetector.h"
#include "o2/Race/RacerDLike.h"
#include "o2/SHB/HBIndex.h"
#include "o2/SHB/SHBGraph.h"

#include <functional>
#include <memory>
#include <string>

namespace o2 {

/// Every registered pass, in schedule order (a pass's dependencies always
/// have smaller values, so ascending enum order *is* a topological
/// order). `None` means "no pass" (e.g. "not cancelled"); it is not a
/// schedulable pass. The first five values predate the manager and keep
/// their old meaning: the phase an analysis was cancelled in.
enum class O2Phase : uint8_t {
  None,     ///< Not a pass ("ran to completion").
  PTA,      ///< Origin-sensitive pointer analysis (paper §3.2).
  OSA,      ///< Origin-sharing analysis (paper §3.3).
  SHB,      ///< SHB graph construction (paper §4).
  HBIndex,  ///< Precomputed per-segment reachability clocks.
  Detect,   ///< The race detector (paper §4.1); reported as "race".
  Deadlock, ///< Lock-order deadlock cycles.
  OverSync, ///< Over-synchronized (origin-local) lock regions.
  RacerD,   ///< The syntactic RacerD-like baseline (paper §5).
  Escape,   ///< The thread-escape baseline OSA is compared against.
};

/// Passes are phases: the batch driver's `"phase":` timeout field and the
/// manager's scheduling both speak O2Phase.
using AnalysisKind = O2Phase;

inline constexpr unsigned NumO2Phases = 10;

/// Short stable name of \p P: "pta", "osa", "shb", "hbindex", "race",
/// "deadlock", "oversync", "racerd", "escape" ("" for None). These are
/// also the `--analyses=` spelling of each pass.
const char *phaseName(O2Phase P);

/// A small set of passes. Requesting a pass implicitly requests its
/// dependency closure; the set only records what was asked for.
class AnalysisSet {
public:
  AnalysisSet() = default;
  AnalysisSet(std::initializer_list<O2Phase> Kinds) {
    for (O2Phase K : Kinds)
      insert(K);
  }

  void insert(O2Phase K) { Bits |= maskOf(K); }
  void erase(O2Phase K) { Bits &= ~maskOf(K); }
  bool contains(O2Phase K) const { return (Bits & maskOf(K)) != 0; }
  bool empty() const { return Bits == 0; }

  AnalysisSet &operator|=(AnalysisSet RHS) {
    Bits |= RHS.Bits;
    return *this;
  }
  bool operator==(const AnalysisSet &RHS) const { return Bits == RHS.Bits; }

  /// What `o2batch` runs when no `--analyses=` is given: OSA + the race
  /// detector (the classic pipeline).
  static AnalysisSet defaultSet() {
    return {O2Phase::OSA, O2Phase::Detect};
  }

  /// Every user-facing analysis: race, deadlock, oversync, racerd,
  /// escape, plus OSA.
  static AnalysisSet all() {
    return {O2Phase::OSA,      O2Phase::Detect, O2Phase::Deadlock,
            O2Phase::OverSync, O2Phase::RacerD, O2Phase::Escape};
  }

  /// Canonical comma-separated rendering in schedule order ("osa,race").
  std::string str() const;

private:
  static uint16_t maskOf(O2Phase K) {
    return static_cast<uint16_t>(1u << static_cast<unsigned>(K));
  }
  uint16_t Bits = 0;
};

/// Parses a comma-separated `--analyses=` list ("race,deadlock,oversync",
/// "all", or any phaseName including the infrastructure passes) into
/// \p Out. On failure returns false and names the bad token in \p Err.
bool parseAnalysisSet(const std::string &Spec, AnalysisSet &Out,
                      std::string &Err);

/// Configuration shared by every consumer of the pipeline (o2cli, the
/// batch driver, the benchmarks). Historically defined by o2/O2.h; the
/// manager owns it now and the facade re-exports it.
struct O2Config {
  /// Pointer analysis configuration; defaults to 1-origin (OPA).
  PTAOptions PTA;

  /// Detector configuration. Detector.SHB also configures the shared SHB
  /// pass.
  RaceDetectorOptions Detector;

  /// Legacy facade switch: run OSA as part of analyzeModule (requires
  /// origin sensitivity). Manager clients request O2Phase::OSA instead.
  bool RunOSA = true;

  /// Optional cooperative deadline/cancellation, threaded into the hot
  /// loop of every pass. When it fires, the in-flight pass stops early,
  /// later passes are skipped, and cancelledIn() records where the
  /// pipeline died. Not owned.
  const CancellationToken *Cancel = nullptr;

  /// Optional hook invoked with each pass right before its body runs.
  /// The batch driver's isolated worker streams these as progress
  /// markers so a crash mid-pass can be attributed to the pass. Excluded
  /// from config fingerprints (it never affects results).
  std::function<void(O2Phase)> OnPassStart;
};

/// Deterministic fingerprint of the configuration as seen by pass \p K:
/// a hash of the result-affecting options, the pass version, and the
/// fingerprints of its dependencies. Pure performance knobs (worker
/// counts, pools, matrix size limits) are excluded — they never change
/// a pass's result.
uint64_t passFingerprint(O2Phase K, const O2Config &Config);

/// Fingerprint of a whole request: the fold of passFingerprint over the
/// dependency closure of \p Set in schedule order. Two (module, request)
/// pairs with equal content hash and equal request fingerprints produce
/// byte-identical reports — this is the warm cache's key.
uint64_t analysisSetFingerprint(AnalysisSet Set, const O2Config &Config);

/// One module's analysis session: computes requested passes at most once
/// each and hands out the shared typed results. Not thread-safe — one
/// manager per job (the batch driver gives every job its own).
class AnalysisManager {
public:
  explicit AnalysisManager(const Module &M, const O2Config &Config = {});
  ~AnalysisManager();

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  const Module &module() const { return M; }
  const O2Config &config() const { return Config; }

  /// Runs every pass in \p Set (plus dependencies, in schedule order)
  /// that has not run yet. Stops scheduling as soon as a pass reports
  /// cancellation. Returns true if everything requested completed.
  bool run(AnalysisSet Set);

  /// Typed accessors. Each computes the pass (and its dependency closure)
  /// on first use; afterwards it returns the shared result. After a
  /// cancellation, un-run passes return their default-constructed result
  /// — check cancelled() first when that matters.
  const PTAResult &getPTA();
  const SharingResult &getSharing();
  const SHBGraph &getSHB();
  const HBIndex &getHBIndex();
  const RaceReport &getRaces();
  const DeadlockReport &getDeadlocks();
  const OverSyncReport &getOverSync();
  const RacerDReport &getRacerD();
  const EscapeResult &getEscape();

  /// True once pass \p K has produced its result.
  bool ran(O2Phase K) const;

  /// Times pass \p K ran (0 or 1 — the whole point of the manager; the
  /// AnalysisManagerTest asserts the sharing contract through this).
  unsigned invocations(O2Phase K) const;

  /// Wall-clock seconds pass \p K took (0.0 if it never ran).
  double seconds(O2Phase K) const;

  /// Sum of every ran pass's seconds — unlike the old facade total, this
  /// includes the aux analyses and the HBIndex build.
  double totalSeconds() const;

  /// The pass the cancellation token fired in; None if no pass was cut
  /// short. Passes after the cancelled one are skipped.
  O2Phase cancelledIn() const { return CancelledIn; }
  bool cancelled() const { return CancelledIn != O2Phase::None; }

  /// Per-pass config fingerprint (see passFingerprint).
  uint64_t fingerprint(O2Phase K) const {
    return passFingerprint(K, Config);
  }

  /// Every counter the ran passes produced, merged: pta.*, osa.*,
  /// race.*, deadlock.*, oversync.*, racerd.*, escape.*.
  StatisticRegistry stats() const;

  /// One flat JSON object: "module", "config", "solver", "analyses",
  /// per-pass "time.<pass>-ms" for every ran pass, "time.total-ms", then
  /// every merged counter. The manager-era superset of the old
  /// O2Analysis::printStatsJSON — aux analyses included.
  void printStatsJSON(OutputStream &OS);

  /// Ownership transfer for the analyzeModule shim: moves the stored
  /// result out (the pass stays marked as ran; the accessor afterwards
  /// returns a moved-from/default result).
  std::unique_ptr<PTAResult> takePTA();
  SharingResult takeSharing();
  SHBGraph takeSHB();
  RaceReport takeRaces();

private:
  struct Impl;

  /// Ensures pass \p K and its dependencies have run (unless cancelled).
  void ensure(O2Phase K);
  void runPass(O2Phase K);

  const Module &M;
  O2Config Config;
  O2Phase CancelledIn = O2Phase::None;
  std::unique_ptr<Impl> P;
};

} // namespace o2

#endif // O2_ANALYSIS_ANALYSISMANAGER_H
