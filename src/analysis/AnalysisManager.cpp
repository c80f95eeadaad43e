//===- AnalysisManager.cpp - Typed pass manager -------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"

#include "o2/Support/FaultInjector.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/Timer.h"

#include <array>

using namespace o2;

const char *o2::phaseName(O2Phase P) {
  switch (P) {
  case O2Phase::None:
    return "";
  case O2Phase::PTA:
    return "pta";
  case O2Phase::OSA:
    return "osa";
  case O2Phase::SHB:
    return "shb";
  case O2Phase::HBIndex:
    return "hbindex";
  case O2Phase::Detect:
    return "race";
  case O2Phase::Deadlock:
    return "deadlock";
  case O2Phase::OverSync:
    return "oversync";
  case O2Phase::RacerD:
    return "racerd";
  case O2Phase::Escape:
    return "escape";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Pass registry: dependencies and versions
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned idx(O2Phase K) { return static_cast<unsigned>(K); }

/// Bump a pass's version whenever its result or serialized report format
/// changes; the warm cache folds versions into its key, so a bump turns
/// stale entries into misses instead of wrong replays.
constexpr std::array<uint32_t, NumO2Phases> PassVersion = {
    /*None=*/0,     /*PTA=*/1,      /*OSA=*/1,    /*SHB=*/1, /*HBIndex=*/1,
    /*Detect=*/1,   /*Deadlock=*/1, /*OverSync=*/1,
    /*RacerD=*/1,   /*Escape=*/1,
};

/// Declared dependencies of pass \p K. Every dependency has a smaller
/// enum value, so ascending enum order is a topological schedule.
SmallVector<O2Phase, 3> depsOf(O2Phase K) {
  switch (K) {
  case O2Phase::None:
  case O2Phase::PTA:
  case O2Phase::RacerD:
    return {};
  case O2Phase::OSA:
  case O2Phase::Escape:
    return {O2Phase::PTA};
  case O2Phase::SHB:
    return {O2Phase::PTA};
  case O2Phase::HBIndex:
    return {O2Phase::PTA, O2Phase::SHB};
  case O2Phase::Detect:
  case O2Phase::Deadlock:
    return {O2Phase::PTA, O2Phase::SHB, O2Phase::HBIndex};
  case O2Phase::OverSync:
    return {O2Phase::PTA, O2Phase::OSA, O2Phase::SHB};
  }
  return {};
}

uint64_t fnv1a(const void *Data, size_t Len, uint64_t H) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t hashStr(const std::string &S, uint64_t H) {
  H = fnv1a(S.data(), S.size(), H);
  return fnv1a("\x1f", 1, H);
}

uint64_t hashU64(uint64_t V, uint64_t H) { return fnv1a(&V, sizeof(V), H); }

/// Fingerprint of the options pass \p K itself consumes (no deps).
uint64_t localFingerprint(O2Phase K, const O2Config &Config) {
  uint64_t H = 1469598103934665603ull;
  H = hashStr(phaseName(K), H);
  H = hashU64(PassVersion[idx(K)], H);
  switch (K) {
  case O2Phase::PTA: {
    const PTAOptions &O = Config.PTA;
    H = hashU64(static_cast<uint64_t>(O.Kind), H);
    H = hashU64(O.K, H);
    // The two solvers are bit-identical in points-to sets but report
    // different solver counters (pta.waves vs pta.worklist-*), which land
    // in reports; the solver is result-affecting for caching purposes.
    H = hashU64(static_cast<uint64_t>(O.Solver), H);
    H = hashU64(O.NodeBudget, H);
    for (const auto &[Name, Kind] : O.Spec.entries()) {
      H = hashStr(Name, H);
      H = hashU64(static_cast<uint64_t>(Kind), H);
    }
    return H;
  }
  case O2Phase::SHB: {
    const SHBOptions &O = Config.Detector.SHB;
    H = hashU64(O.SerializeEventHandlers, H);
    H = hashU64(O.DuplicateLoopSpawns, H);
    H = hashU64(O.MaxThreads, H);
    H = hashU64(O.MaxEventsPerThread, H);
    return H;
  }
  case O2Phase::Detect: {
    // Worker counts, pools and matrix thresholds are pure performance
    // knobs and deliberately excluded (the engine's reports are
    // deterministic for any of them).
    H = hashU64(Config.Detector.HandleAtomics, H);
    return H;
  }
  case O2Phase::None:
  case O2Phase::OSA:
  case O2Phase::HBIndex:
  case O2Phase::Deadlock:
  case O2Phase::OverSync:
  case O2Phase::RacerD:
  case O2Phase::Escape:
    // Result fully determined by the module and the dependencies.
    return H;
  }
  return H;
}

/// Dependency closure of \p Set as a per-pass bool mask.
std::array<bool, NumO2Phases> closureOf(AnalysisSet Set) {
  std::array<bool, NumO2Phases> In{};
  for (unsigned K = 0; K < NumO2Phases; ++K)
    if (Set.contains(static_cast<O2Phase>(K)))
      In[K] = true;
  // Deps have smaller values: one descending sweep closes the set.
  for (unsigned K = NumO2Phases; K-- > 1;)
    if (In[K])
      for (O2Phase D : depsOf(static_cast<O2Phase>(K)))
        In[idx(D)] = true;
  In[idx(O2Phase::None)] = false;
  return In;
}

} // namespace

std::string AnalysisSet::str() const {
  std::string Out;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (contains(static_cast<O2Phase>(K))) {
      if (!Out.empty())
        Out += ',';
      Out += phaseName(static_cast<O2Phase>(K));
    }
  return Out;
}

bool o2::parseAnalysisSet(const std::string &Spec, AnalysisSet &Out,
                          std::string &Err) {
  AnalysisSet Result;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Tok = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Tok.empty())
      continue;
    if (Tok == "all") {
      Result |= AnalysisSet::all();
      continue;
    }
    bool Found = false;
    for (unsigned K = 1; K < NumO2Phases; ++K)
      if (Tok == phaseName(static_cast<O2Phase>(K))) {
        Result.insert(static_cast<O2Phase>(K));
        Found = true;
        break;
      }
    if (!Found) {
      Err = "unknown analysis '" + Tok + "'";
      return false;
    }
  }
  if (Result.empty()) {
    Err = "empty analysis set";
    return false;
  }
  Out = Result;
  return true;
}

uint64_t o2::passFingerprint(O2Phase K, const O2Config &Config) {
  uint64_t H = localFingerprint(K, Config);
  for (O2Phase D : depsOf(K))
    H = hashU64(passFingerprint(D, Config), H);
  return H;
}

uint64_t o2::analysisSetFingerprint(AnalysisSet Set, const O2Config &Config) {
  std::array<bool, NumO2Phases> In = closureOf(Set);
  uint64_t H = 1469598103934665603ull;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (In[K])
      H = hashU64(passFingerprint(static_cast<O2Phase>(K), Config), H);
  return H;
}

//===----------------------------------------------------------------------===//
// The manager
//===----------------------------------------------------------------------===//

struct AnalysisManager::Impl {
  std::unique_ptr<PTAResult> PTA;
  SharingResult Sharing;
  SHBGraph SHB;
  std::unique_ptr<HBIndex> Index;
  RaceReport Races;
  DeadlockReport Deadlocks;
  OverSyncReport OverSyncR;
  RacerDReport RacerDR;
  EscapeResult EscapeR;

  std::array<bool, NumO2Phases> Ran{};
  std::array<unsigned, NumO2Phases> Invocations{};
  std::array<double, NumO2Phases> Seconds{};
};

AnalysisManager::AnalysisManager(const Module &M, const O2Config &Config)
    : M(M), Config(Config), P(std::make_unique<Impl>()) {
  // A token on the config reaches every pass's hot loop through the
  // per-pass option structs (the old facade threaded only PTA/SHB/race;
  // the manager threads all nine).
  if (Config.Cancel) {
    this->Config.PTA.Cancel = Config.Cancel;
    this->Config.Detector.Cancel = Config.Cancel;
    this->Config.Detector.SHB.Cancel = Config.Cancel;
  }
}

AnalysisManager::~AnalysisManager() = default;

bool AnalysisManager::run(AnalysisSet Set) {
  std::array<bool, NumO2Phases> In = closureOf(Set);
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (In[K]) {
      if (cancelled())
        return false;
      ensure(static_cast<O2Phase>(K));
    }
  return !cancelled();
}

void AnalysisManager::ensure(O2Phase K) {
  if (P->Ran[idx(K)] || cancelled())
    return;
  for (O2Phase D : depsOf(K)) {
    ensure(D);
    if (cancelled())
      return;
  }
  runPass(K);
}

void AnalysisManager::runPass(O2Phase K) {
  if (K == O2Phase::None)
    return;
  // Announce the pass before anything (including an injected fault) can
  // kill it, so crash records name the right phase.
  if (Config.OnPassStart)
    Config.OnPassStart(K);
  {
    // "pass.pta" ... "pass.escape": one named fault point per pass.
    static const std::array<const char *, NumO2Phases> FaultPoint = {
        "",          "pass.pta",      "pass.osa",      "pass.shb",
        "pass.hbindex", "pass.race",  "pass.deadlock", "pass.oversync",
        "pass.racerd", "pass.escape",
    };
    FaultInjector::hit(FaultPoint[idx(K)]);
  }
  ++P->Invocations[idx(K)];
  Timer T;
  bool PassCancelled = false;
  switch (K) {
  case O2Phase::None:
    return;
  case O2Phase::PTA:
    P->PTA = runPointerAnalysis(M, Config.PTA);
    PassCancelled = P->PTA->cancelled();
    break;
  case O2Phase::OSA:
    // OSA is origin-specific; under other context abstractions the pass
    // is a definitional no-op (empty sharing result), matching what the
    // old facade's RunOSA guard did.
    if (Config.PTA.Kind == ContextKind::Origin) {
      P->Sharing = runSharingAnalysis(*P->PTA, Config.Cancel);
      PassCancelled = P->Sharing.cancelled();
    }
    break;
  case O2Phase::SHB:
    P->SHB = buildSHBGraph(*P->PTA, Config.Detector.SHB);
    PassCancelled = P->SHB.cancelled();
    break;
  case O2Phase::HBIndex:
    P->Index = std::make_unique<HBIndex>(P->SHB);
    // Construction has no poll points; the token is checked on the seam.
    PassCancelled = pollCancelled(Config.Cancel);
    break;
  case O2Phase::Detect: {
    RaceDetectorOptions Opts = Config.Detector;
    Opts.Index = P->Index.get();
    P->Races = detectRaces(*P->PTA, P->SHB, Opts);
    PassCancelled = P->Races.cancelled();
    break;
  }
  case O2Phase::Deadlock:
    P->Deadlocks =
        detectDeadlocks(*P->PTA, P->SHB, *P->Index, Config.Cancel);
    PassCancelled = P->Deadlocks.cancelled();
    break;
  case O2Phase::OverSync:
    P->OverSyncR =
        detectOverSynchronization(P->Sharing, P->SHB, Config.Cancel);
    PassCancelled = P->OverSyncR.cancelled();
    break;
  case O2Phase::RacerD:
    P->RacerDR = runRacerDLike(M, Config.Cancel);
    PassCancelled = P->RacerDR.cancelled();
    break;
  case O2Phase::Escape:
    P->EscapeR = runEscapeAnalysis(*P->PTA, Config.Cancel);
    PassCancelled = P->EscapeR.cancelled();
    break;
  }
  P->Seconds[idx(K)] += T.seconds();
  P->Ran[idx(K)] = true;
  if (PassCancelled)
    CancelledIn = K;
}

const PTAResult &AnalysisManager::getPTA() {
  ensure(O2Phase::PTA);
  return *P->PTA;
}

const SharingResult &AnalysisManager::getSharing() {
  ensure(O2Phase::OSA);
  return P->Sharing;
}

const SHBGraph &AnalysisManager::getSHB() {
  ensure(O2Phase::SHB);
  return P->SHB;
}

const HBIndex &AnalysisManager::getHBIndex() {
  ensure(O2Phase::HBIndex);
  return *P->Index;
}

const RaceReport &AnalysisManager::getRaces() {
  ensure(O2Phase::Detect);
  return P->Races;
}

const DeadlockReport &AnalysisManager::getDeadlocks() {
  ensure(O2Phase::Deadlock);
  return P->Deadlocks;
}

const OverSyncReport &AnalysisManager::getOverSync() {
  ensure(O2Phase::OverSync);
  return P->OverSyncR;
}

const RacerDReport &AnalysisManager::getRacerD() {
  ensure(O2Phase::RacerD);
  return P->RacerDR;
}

const EscapeResult &AnalysisManager::getEscape() {
  ensure(O2Phase::Escape);
  return P->EscapeR;
}

bool AnalysisManager::ran(O2Phase K) const { return P->Ran[idx(K)]; }

unsigned AnalysisManager::invocations(O2Phase K) const {
  return P->Invocations[idx(K)];
}

double AnalysisManager::seconds(O2Phase K) const { return P->Seconds[idx(K)]; }

double AnalysisManager::totalSeconds() const {
  double Total = 0;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    Total += P->Seconds[K];
  return Total;
}

StatisticRegistry AnalysisManager::stats() const {
  StatisticRegistry Stats;
  if (P->Ran[idx(O2Phase::PTA)])
    Stats.merge(P->PTA->stats());
  if (P->Ran[idx(O2Phase::OSA)]) {
    Stats.set("osa.shared-locations", P->Sharing.sharedLocations().size());
    Stats.set("osa.shared-objects", P->Sharing.numSharedObjects());
    Stats.set("osa.shared-accesses", P->Sharing.numSharedAccessStmts());
    Stats.set("osa.access-stmts", P->Sharing.numAccessStmts());
  }
  if (P->Ran[idx(O2Phase::Detect)])
    Stats.merge(P->Races.stats());
  if (P->Ran[idx(O2Phase::Deadlock)]) {
    Stats.set("deadlock.cycles", P->Deadlocks.numDeadlocks());
    Stats.set("deadlock.order-edges", P->Deadlocks.edges().size());
  }
  if (P->Ran[idx(O2Phase::OverSync)]) {
    Stats.set("oversync.regions", P->OverSyncR.numRegions());
    Stats.set("oversync.regions-checked", P->OverSyncR.numRegionsChecked());
  }
  if (P->Ran[idx(O2Phase::RacerD)]) {
    Stats.set("racerd.warnings", P->RacerDR.numWarnings());
    Stats.set("racerd.potential-races", P->RacerDR.numPotentialRaces());
  }
  if (P->Ran[idx(O2Phase::Escape)]) {
    Stats.set("escape.objects", P->EscapeR.numEscapedObjects());
    Stats.set("escape.shared-accesses", P->EscapeR.numSharedAccessStmts());
    Stats.set("escape.access-stmts", P->EscapeR.numAccessStmts());
  }
  return Stats;
}

void AnalysisManager::printStatsJSON(OutputStream &OS) {
  JSONWriter W(OS);
  W.beginObject();
  W.attribute("module", M.getName());
  W.attribute("config", Config.PTA.name());
  W.attribute("solver",
              Config.PTA.Solver == SolverKind::Wave ? "wave" : "worklist");
  AnalysisSet RanSet;
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (P->Ran[K])
      RanSet.insert(static_cast<O2Phase>(K));
  W.attribute("analyses", RanSet.str());
  if (cancelled())
    W.attribute("cancelled-in", phaseName(CancelledIn));
  for (unsigned K = 1; K < NumO2Phases; ++K)
    if (P->Ran[K])
      W.attribute(std::string("time.") + phaseName(static_cast<O2Phase>(K)) +
                      "-ms",
                  P->Seconds[K] * 1000.0);
  W.attribute("time.total-ms", totalSeconds() * 1000.0);
  StatisticRegistry Merged = stats();
  for (const auto &[Name, Value] : Merged.counters())
    W.attribute(Name, Value);
  W.endObject();
  OS << '\n';
}

std::unique_ptr<PTAResult> AnalysisManager::takePTA() {
  return std::move(P->PTA);
}

SharingResult AnalysisManager::takeSharing() { return std::move(P->Sharing); }

SHBGraph AnalysisManager::takeSHB() { return std::move(P->SHB); }

RaceReport AnalysisManager::takeRaces() { return std::move(P->Races); }
