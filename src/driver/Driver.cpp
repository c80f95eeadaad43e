//===- Driver.cpp - Parallel batch-analysis driver ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include "o2/Driver/ResultCache.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/Casting.h"
#include "o2/Support/FaultInjector.h"
#include "o2/Support/JSONWriter.h"
#include "o2/Support/OutputStream.h"
#include "o2/Support/ThreadPool.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>
#include <unordered_map>

using namespace o2;

const char *o2::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Clean:
    return "clean";
  case JobStatus::Races:
    return "races";
  case JobStatus::Timeout:
    return "timeout";
  case JobStatus::ParseError:
    return "parse-error";
  case JobStatus::VerifyError:
    return "verify-error";
  case JobStatus::InternalError:
    return "internal-error";
  case JobStatus::Crashed:
    return "crashed";
  case JobStatus::OOM:
    return "oom";
  }
  return "unknown";
}

int o2::exitCodeFor(JobStatus S) {
  switch (S) {
  case JobStatus::Clean:
    return ExitClean;
  case JobStatus::Races:
    return ExitRacesFound;
  case JobStatus::Timeout:
  case JobStatus::ParseError:
  case JobStatus::VerifyError:
  case JobStatus::InternalError:
  case JobStatus::Crashed:
  case JobStatus::OOM:
    return ExitError;
  }
  return ExitError;
}

int BatchResult::exitCode() const {
  int Code = ExitClean;
  for (const JobResult &J : Jobs)
    Code = std::max(Code, exitCodeFor(J.Status));
  return Code;
}

//===----------------------------------------------------------------------===//
// Race fingerprints
//===----------------------------------------------------------------------===//

static uint64_t fnv1a(std::string_view S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

static std::string toHex16(uint64_t V) {
  static const char *Hex = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[size_t(I)] = Hex[V & 0xf];
  return Out;
}

/// Symbolic description of \p Loc that survives reordering of unrelated
/// statements: no abstract-object numbers or statement IDs, only names
/// and statement text (class, field, allocating function, allocation
/// statement, loop-duplication index).
static std::string stableLocation(const MemLoc &Loc, const PTAResult &PTA) {
  if (Loc.isGlobal())
    return "@" + PTA.module().globals()[Loc.globalId()]->getName();
  const ObjInfo &O = PTA.object(Loc.object());
  std::string Out = O.AllocatedType ? O.AllocatedType->getName() : "obj";
  if (O.Alloc) {
    Out += "@" + O.Alloc->getFunction()->getName();
    Out += ":" + printStmt(*O.Alloc);
  }
  if (O.DupIndex)
    Out += "#" + std::to_string(O.DupIndex);
  FieldKey FK = Loc.fieldKey();
  if (FK == ArrayElemKey)
    return Out + "[*]";
  if (const auto *Cls =
          O.AllocatedType ? dyn_cast<ClassType>(O.AllocatedType) : nullptr)
    for (const ClassType *C = Cls; C; C = C->getSuper())
      for (const auto &F : C->fields())
        if (fieldKeyOf(F.get()) == FK)
          return Out + "." + F->getName();
  return Out + ".f" + std::to_string(FK - 1);
}

namespace {

/// Renders each statement and each race location once per job: a
/// race-dense module reports the same few statements in thousands of
/// race pairs.
class RecordRenderer {
public:
  const std::string &stmt(const Stmt &S) {
    auto [It, Inserted] = Stmts.try_emplace(&S);
    if (Inserted)
      It->second = printStmt(S);
    return It->second;
  }

  const std::string &location(const MemLoc &Loc, const PTAResult &PTA) {
    auto [It, Inserted] = Locations.try_emplace(Loc.key());
    if (Inserted)
      It->second = stableLocation(Loc, PTA);
    return It->second;
  }

private:
  std::unordered_map<const Stmt *, std::string> Stmts;
  std::unordered_map<uint64_t, std::string> Locations;
};

} // namespace

static RaceRecord makeRaceRecord(const Race &Rc, const PTAResult &PTA,
                                 RecordRenderer &Render) {
  RaceRecord R;
  R.Location = Render.location(Rc.Loc, PTA);
  R.StmtA = Render.stmt(*Rc.A);
  R.FuncA = Rc.A->getFunction()->getName();
  R.WriteA = Rc.AIsWrite;
  R.StmtB = Render.stmt(*Rc.B);
  R.FuncB = Rc.B->getFunction()->getName();
  R.WriteB = Rc.BIsWrite;

  // The fingerprint hashes the symbolic location plus the two access
  // descriptors in lexicographic order, so it is invariant under the
  // statement-ID renumbering that reordering unrelated code causes and
  // under which access the detector happened to list first.
  std::string DescA =
      R.StmtA + "|" + R.FuncA + "|" + (R.WriteA ? "W" : "R");
  std::string DescB =
      R.StmtB + "|" + R.FuncB + "|" + (R.WriteB ? "W" : "R");
  if (DescB < DescA)
    std::swap(DescA, DescB);
  uint64_t H = fnv1a(R.Location, 1469598103934665603ull);
  H = fnv1a("\x1f", H);
  H = fnv1a(DescA, H);
  H = fnv1a("\x1f", H);
  H = fnv1a(DescB, H);
  R.Fingerprint = toHex16(H);
  return R;
}

//===----------------------------------------------------------------------===//
// Job execution
//===----------------------------------------------------------------------===//

static std::string readFileContent(const std::string &Path, bool &Ok) {
  Ok = false;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return {};
  std::string Content;
  char Buf[64 * 1024];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Content.append(Buf, N);
  Ok = !std::ferror(F);
  std::fclose(F);
  return Content;
}

JobResult o2::runOneJob(const JobSpec &Spec, const BatchOptions &Opts) {
  return runOneJob(Spec, Opts, nullptr);
}

JobResult o2::runOneJob(const JobSpec &Spec, const BatchOptions &Opts,
                        ThreadPool *SharedPool) {
  JobResult R;
  R.Name = Spec.Name;
  R.Analyses = Opts.Analyses;

  // @module-scoped fault specs count only this job's hits, which keeps
  // injected faults deterministic at any --jobs=N.
  FaultInjector::JobScope FaultScope(Spec.Name);

  // Worker-side progress markers; also tracked locally so error records
  // can name the stage the job was in.
  std::string LastStage;
  auto Stage = [&Opts, &LastStage](const char *S) {
    LastStage = S;
    if (Opts.StageHook)
      Opts.StageHook(S);
  };
  Stage("setup");

  ResultCache Cache(Opts.CacheDir);
  bool HaveKey = false;
  uint64_t ContentHash = 0, ConfigFP = 0;

  // Hoisted out of the try so the catch blocks can harvest partial
  // timings and statistics (declaration order matters: AM borrows M, so
  // AM must be destroyed first).
  std::unique_ptr<Module> M;
  std::unique_ptr<AnalysisManager> AM;
  auto Harvest = [&R, &AM] {
    if (!AM)
      return;
    try {
      R.PTAMs = AM->seconds(O2Phase::PTA) * 1000.0;
      R.OSAMs = AM->seconds(O2Phase::OSA) * 1000.0;
      R.SHBMs = AM->seconds(O2Phase::SHB) * 1000.0;
      R.HBIndexMs = AM->seconds(O2Phase::HBIndex) * 1000.0;
      R.DetectMs = AM->seconds(O2Phase::Detect) * 1000.0;
      R.DeadlockMs = AM->seconds(O2Phase::Deadlock) * 1000.0;
      R.OverSyncMs = AM->seconds(O2Phase::OverSync) * 1000.0;
      R.RacerDMs = AM->seconds(O2Phase::RacerD) * 1000.0;
      R.EscapeMs = AM->seconds(O2Phase::Escape) * 1000.0;
      R.Stats = AM->stats();
    } catch (...) {
      // Partial telemetry is best-effort; the status already tells the
      // story.
    }
  };

  try {
    std::string Source;
    if (!Spec.Profile) {
      Source = Spec.Source;
      if (Source.empty() && !Spec.Path.empty()) {
        bool Ok = false;
        Source = readFileContent(Spec.Path, Ok);
        if (!Ok) {
          R.Status = JobStatus::ParseError;
          R.Error = "cannot read '" + Spec.Path + "'";
          return R;
        }
      }
    }

    // Warm-cache lookup, keyed purely on content: the raw source bytes
    // for text jobs (before parsing — a hit skips the parse too), the
    // printed module for generated workloads. The config half of the key
    // folds in the requested analyses, every result-affecting option and
    // each pass's version (see analysisSetFingerprint).
    if (Cache.enabled()) {
      ConfigFP = analysisSetFingerprint(Opts.Analyses, Opts.Config);
      if (Spec.Profile) {
        M = generateWorkload(*Spec.Profile);
        ContentHash = ResultCache::contentHash(printModule(*M));
      } else {
        ContentHash = ResultCache::contentHash(Source);
      }
      HaveKey = true;
      JobResult Cached;
      if (Cache.lookup(ContentHash, ConfigFP, Cached)) {
        Cached.Name = Spec.Name;
        Cached.Analyses = Opts.Analyses;
        Cached.Cache = JobResult::CacheOutcome::Hit;
        return Cached;
      }
      R.Cache = JobResult::CacheOutcome::Miss;
    }

    if (!M) {
      Stage("parse");
      FaultInjector::hit("parse");
      if (Spec.Profile) {
        M = generateWorkload(*Spec.Profile);
      } else {
        std::string Err;
        M = parseModule(Source, Err,
                        Spec.Name.empty() ? "module" : Spec.Name);
        if (!M) {
          R.Status = JobStatus::ParseError;
          R.Error = Err;
          return R;
        }
      }
    }

    Stage("verify");
    std::vector<std::string> Errors;
    if (!verifyModule(*M, Errors)) {
      R.Status = JobStatus::VerifyError;
      R.Error = Errors.empty() ? "module failed verification" : Errors.front();
      if (Errors.size() > 1)
        R.Error += " (+" + std::to_string(Errors.size() - 1) + " more)";
      return R;
    }

    // The deadline clock starts here: parsing is I/O-bound and cheap, the
    // analysis phases are where pathological modules blow up.
    CancellationToken Deadline;
    O2Config Cfg = Opts.Config;
    if (!Cfg.Detector.Pool && SharedPool)
      Cfg.Detector.Pool = SharedPool;
    if (Opts.DeadlineMs) {
      Deadline.setDeadlineMs(double(Opts.DeadlineMs));
      Cfg.Cancel = &Deadline;
    } else {
      Cfg.Cancel = nullptr;
    }
    // Stream each pass's start to the progress hook so a crash mid-pass
    // can be attributed to it (the isolated worker forwards these as
    // pipe markers).
    Cfg.OnPassStart = [&Stage](O2Phase Ph) { Stage(phaseName(Ph)); };

    // One manager per job: the requested detectors all read the same
    // PTA/SHB/HBIndex results, computed once.
    FaultInjector::hit("alloc");
    AM = std::make_unique<AnalysisManager>(*M, Cfg);
    AM->run(Opts.Analyses);
    Harvest();

    RecordRenderer Render;
    if (AM->ran(O2Phase::Detect)) {
      R.Races.reserve(AM->getRaces().races().size());
      for (const Race &Rc : AM->getRaces().races())
        R.Races.push_back(makeRaceRecord(Rc, AM->getPTA(), Render));
    }
    if (AM->ran(O2Phase::Deadlock))
      for (const DeadlockCycle &C : AM->getDeadlocks().cycles()) {
        DeadlockRecord D;
        for (uint32_t L : C.Locks) {
          if (!D.Locks.empty())
            D.Locks += ',';
          D.Locks += "lock" + std::to_string(L);
        }
        for (const LockOrderEdge &E : C.Witnesses)
          D.Witnesses.push_back(
              "thread " + std::to_string(E.Thread) + " acquires lock" +
              std::to_string(E.Inner) + " while holding lock" +
              std::to_string(E.Outer) + " at '" + Render.stmt(*E.Acquire) +
              "'");
        R.Deadlocks.push_back(std::move(D));
      }
    if (AM->ran(O2Phase::OverSync))
      for (const OverSyncRegion &Reg : AM->getOverSync().regions()) {
        OverSyncRecord O;
        if (Reg.Acquire) {
          O.Stmt = Render.stmt(*Reg.Acquire);
          O.Function = Reg.Acquire->getFunction()->getName();
        }
        O.Thread = Reg.Thread;
        O.NumAccesses = Reg.NumAccesses;
        R.OverSyncs.push_back(std::move(O));
      }
    if (AM->ran(O2Phase::RacerD))
      for (const RacerDWarning &W : AM->getRacerD().warnings()) {
        RacerDRecord Rw;
        Rw.Kind = W.WarningKind == RacerDWarning::Kind::ReadWriteRace
                      ? "read-write"
                      : "unprotected-write";
        Rw.Location = W.Location;
        Rw.First = Render.stmt(*W.A);
        if (W.B)
          Rw.Second = Render.stmt(*W.B);
        R.RacerDWarnings.push_back(std::move(Rw));
      }

    if (AM->cancelled()) {
      R.Status = JobStatus::Timeout;
      R.Phase = phaseName(AM->cancelledIn());
    } else {
      R.Status = R.Races.empty() ? JobStatus::Clean : JobStatus::Races;
      // Only settled results are worth replaying; timeouts and errors
      // must re-run on the next fleet (store() also refuses anything
      // else, including degraded results).
      if (HaveKey)
        Cache.store(ContentHash, ConfigFP, R);
    }
  } catch (const std::bad_alloc &) {
    // Allocation failure is its own status: under a --mem-limit-mb cap
    // this *is* the OOM record, and in-process it tells the operator to
    // re-run with --degrade or more memory rather than chase a bug.
    R.Status = JobStatus::OOM;
    R.Error = "out of memory";
    R.Phase = LastStage;
    Harvest();
  } catch (const std::exception &E) {
    R.Status = JobStatus::InternalError;
    R.Error = E.what();
    R.Phase = LastStage;
    Harvest();
  } catch (...) {
    R.Status = JobStatus::InternalError;
    R.Error = "unknown exception";
    R.Phase = LastStage;
    Harvest();
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Containment policy: retry + sound degradation
//===----------------------------------------------------------------------===//

/// The degraded-fallback configuration: cheaper but still *sound*.
/// Context-insensitive points-to is a strict over-approximation of
/// origin-sensitive points-to (merging contexts only adds may-alias
/// facts), so every real race remains reported — the fallback trades
/// precision (more false positives), never recall.
static O2Config degradedConfigFor(const O2Config &Cfg) {
  O2Config D = Cfg;
  D.PTA.Kind = ContextKind::Insensitive;
  return D;
}

JobResult o2::runJobContained(const JobSpec &Spec, const BatchOptions &Opts,
                              ThreadPool *SharedPool) {
  auto Attempt = [&Spec, SharedPool](const BatchOptions &O) {
    return O.Isolate == IsolationMode::Process
               ? runOneJobIsolated(Spec, O)
               : runOneJob(Spec, O, SharedPool);
  };
  auto Transient = [](JobStatus S) {
    return S == JobStatus::Crashed || S == JobStatus::OOM ||
           S == JobStatus::InternalError;
  };

  JobResult R = Attempt(Opts);

  // Bounded retry with exponential backoff: crashes, OOMs, and internal
  // errors may be environmental (a flaky machine, a cache race, memory
  // pressure from a sibling). Deterministic failures simply fail
  // Retries more times and report the same record.
  uint64_t Backoff = Opts.RetryBackoffMs;
  for (unsigned N = 1; N <= Opts.Retries && Transient(R.Status); ++N) {
    std::this_thread::sleep_for(std::chrono::milliseconds(Backoff));
    Backoff = std::min<uint64_t>(Backoff * 2, 2000);
    JobResult Again = Attempt(Opts);
    Again.Retries = N;
    R = std::move(Again);
  }

  // Sound graceful degradation: a resource-exhausted job (deadline or
  // memory) gets one re-run under the cheaper configuration. Only a
  // *terminal* degraded result replaces the original record, and it is
  // never cached (the attempt below runs cache-less).
  if (Opts.Degrade &&
      (R.Status == JobStatus::Timeout || R.Status == JobStatus::OOM)) {
    BatchOptions Fallback = Opts;
    Fallback.Config = degradedConfigFor(Opts.Config);
    Fallback.CacheDir.clear();
    JobResult D = Attempt(Fallback);
    if (D.Status == JobStatus::Clean || D.Status == JobStatus::Races) {
      D.Degraded = true;
      D.DegradedConfigFP =
          analysisSetFingerprint(Opts.Analyses, Fallback.Config);
      D.Retries = R.Retries;
      R = std::move(D);
    }
  }
  return R;
}

BatchResult o2::runBatch(const std::vector<JobSpec> &Specs,
                         const BatchOptions &Opts) {
  BatchResult R;
  R.Jobs.resize(Specs.size());
  {
    // Preallocated result slots: workers write disjoint elements, so the
    // only synchronization needed is the pool's own wait().
    ThreadPool Pool(Opts.Jobs);
    for (size_t I = 0; I < Specs.size(); ++I)
      Pool.submit([&R, &Specs, &Opts, &Pool, I] {
        // Jobs lend the batch pool to their parallel race engine, so a
        // lone huge module at the tail of the corpus fans out over the
        // workers the finished jobs freed up.
        R.Jobs[I] = runJobContained(Specs[I], Opts, &Pool);
      });
    Pool.wait();
  }
  // Deterministic report order regardless of worker interleaving: by
  // name, ties broken by submission order (stable sort).
  std::stable_sort(
      R.Jobs.begin(), R.Jobs.end(),
      [](const JobResult &A, const JobResult &B) { return A.Name < B.Name; });

  uint64_t TotalRaces = 0, NumDegraded = 0, NumRetried = 0;
  for (const JobResult &J : R.Jobs) {
    R.Summary.add(std::string("jobs.") + jobStatusName(J.Status));
    R.Summary.merge(J.Stats);
    TotalRaces += J.Races.size();
    if (J.Degraded)
      ++NumDegraded;
    if (J.Retries)
      ++NumRetried;
    // Cache telemetry stays out of Summary: the summary is printed into
    // the JSONL aggregate record, which must be byte-identical between
    // cold and warm runs.
    if (J.Cache == JobResult::CacheOutcome::Hit)
      ++R.CacheHits;
    else if (J.Cache == JobResult::CacheOutcome::Miss)
      ++R.CacheMisses;
  }
  R.Summary.set("jobs.total", R.Jobs.size());
  R.Summary.set("races.total", TotalRaces);
  if (NumDegraded)
    R.Summary.set("jobs.degraded", NumDegraded);
  if (NumRetried)
    R.Summary.set("jobs.retried", NumRetried);
  return R;
}

//===----------------------------------------------------------------------===//
// Baseline diff
//===----------------------------------------------------------------------===//

/// Reads the JSON string starting at \p Pos (the opening quote),
/// un-escaping as it goes. Returns false on malformed input.
static bool readJSONString(const std::string &S, size_t &Pos,
                           std::string &Out) {
  if (Pos >= S.size() || S[Pos] != '"')
    return false;
  ++Pos;
  Out.clear();
  while (Pos < S.size()) {
    char C = S[Pos++];
    if (C == '"')
      return true;
    if (C == '\\' && Pos < S.size()) {
      char E = S[Pos++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'u':
        Out += '?';
        Pos = std::min(S.size(), Pos + 4);
        break;
      default:
        Out += E;
      }
    } else {
      Out += C;
    }
  }
  return false;
}

Baseline o2::loadBaseline(const std::string &JSONLContent) {
  Baseline B;
  size_t LineStart = 0;
  while (LineStart < JSONLContent.size()) {
    size_t LineEnd = JSONLContent.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = JSONLContent.size();
    std::string Line = JSONLContent.substr(LineStart, LineEnd - LineStart);
    LineStart = LineEnd + 1;

    size_t P = Line.find("\"module\":");
    if (P == std::string::npos)
      continue; // aggregate record or junk
    P += 9;
    std::string ModuleName;
    if (!readJSONString(Line, P, ModuleName))
      continue;
    std::set<std::string> &FPs = B[ModuleName];
    for (size_t Q = Line.find("\"fingerprint\":"); Q != std::string::npos;
         Q = Line.find("\"fingerprint\":", Q)) {
      Q += 14;
      std::string FP;
      if (!readJSONString(Line, Q, FP))
        break;
      FPs.insert(FP);
    }
  }
  return B;
}

void o2::applyBaseline(BatchResult &R, const Baseline &B) {
  uint64_t NumNew = 0, NumUnchanged = 0, NumFixed = 0;
  for (JobResult &J : R.Jobs) {
    auto It = B.find(J.Name);
    const std::set<std::string> *Base = It == B.end() ? nullptr : &It->second;
    std::set<std::string> Current;
    for (RaceRecord &Rc : J.Races) {
      Current.insert(Rc.Fingerprint);
      if (Base && Base->count(Rc.Fingerprint)) {
        Rc.DiffStatus = "unchanged";
        ++NumUnchanged;
      } else {
        Rc.DiffStatus = "new";
        ++NumNew;
      }
    }
    J.FixedRaces.clear();
    if (Base)
      for (const std::string &FP : *Base)
        if (!Current.count(FP)) {
          J.FixedRaces.push_back(FP); // set order: already sorted
          ++NumFixed;
        }
  }
  R.Summary.set("diff.new", NumNew);
  R.Summary.set("diff.unchanged", NumUnchanged);
  R.Summary.set("diff.fixed", NumFixed);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

void o2::printJSONL(const BatchResult &R, OutputStream &OS,
                    bool IncludeTimings) {
  for (const JobResult &J : R.Jobs) {
    JSONWriter W(OS);
    W.beginObject();
    W.attribute("module", J.Name);
    W.attribute("status", jobStatusName(J.Status));
    if (!J.Analyses.empty())
      W.attribute("analyses", J.Analyses.str());
    if (!J.Phase.empty())
      W.attribute("phase", J.Phase);
    if (!J.Error.empty())
      W.attribute("error", J.Error);
    if (!J.Signal.empty())
      W.attribute("signal", J.Signal);
    if (J.Degraded) {
      W.attribute("degraded", true);
      W.attribute("degraded-config", toHex16(J.DegradedConfigFP));
    }
    if (J.Retries)
      W.attribute("retries", uint64_t(J.Retries));
    if (IncludeTimings) {
      W.attribute("time.pta-ms", J.PTAMs);
      W.attribute("time.osa-ms", J.OSAMs);
      W.attribute("time.shb-ms", J.SHBMs);
      W.attribute("time.hbindex-ms", J.HBIndexMs);
      W.attribute("time.race-ms", J.DetectMs);
      W.attribute("time.deadlock-ms", J.DeadlockMs);
      W.attribute("time.oversync-ms", J.OverSyncMs);
      W.attribute("time.racerd-ms", J.RacerDMs);
      W.attribute("time.escape-ms", J.EscapeMs);
      W.attribute("time.total-ms", J.totalMs());
    }
    W.key("races");
    W.beginArray();
    for (const RaceRecord &Rc : J.Races) {
      W.beginObject();
      W.attribute("fingerprint", Rc.Fingerprint);
      W.attribute("location", Rc.Location);
      if (!Rc.DiffStatus.empty())
        W.attribute("diff", Rc.DiffStatus);
      W.key("first");
      W.beginObject();
      W.attribute("stmt", Rc.StmtA);
      W.attribute("function", Rc.FuncA);
      W.attribute("write", Rc.WriteA);
      W.endObject();
      W.key("second");
      W.beginObject();
      W.attribute("stmt", Rc.StmtB);
      W.attribute("function", Rc.FuncB);
      W.attribute("write", Rc.WriteB);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    if (J.Analyses.contains(O2Phase::Deadlock)) {
      W.key("deadlocks");
      W.beginArray();
      for (const DeadlockRecord &D : J.Deadlocks) {
        W.beginObject();
        W.attribute("locks", D.Locks);
        W.key("witnesses");
        W.beginArray();
        for (const std::string &Wit : D.Witnesses)
          W.value(Wit);
        W.endArray();
        W.endObject();
      }
      W.endArray();
    }
    if (J.Analyses.contains(O2Phase::OverSync)) {
      W.key("oversync");
      W.beginArray();
      for (const OverSyncRecord &O : J.OverSyncs) {
        W.beginObject();
        W.attribute("stmt", O.Stmt);
        W.attribute("function", O.Function);
        W.attribute("thread", uint64_t(O.Thread));
        W.attribute("accesses", uint64_t(O.NumAccesses));
        W.endObject();
      }
      W.endArray();
    }
    if (J.Analyses.contains(O2Phase::RacerD)) {
      W.key("racerd");
      W.beginArray();
      for (const RacerDRecord &Rw : J.RacerDWarnings) {
        W.beginObject();
        W.attribute("kind", Rw.Kind);
        W.attribute("location", Rw.Location);
        W.attribute("first", Rw.First);
        if (!Rw.Second.empty())
          W.attribute("second", Rw.Second);
        W.endObject();
      }
      W.endArray();
    }
    if (!J.FixedRaces.empty()) {
      W.key("fixed");
      W.beginArray();
      for (const std::string &FP : J.FixedRaces)
        W.value(FP);
      W.endArray();
    }
    W.key("stats");
    W.beginObject();
    for (const auto &[Name, Value] : J.Stats.counters())
      W.attribute(Name, Value);
    W.endObject();
    W.endObject();
    OS << '\n';
  }

  JSONWriter W(OS);
  W.beginObject();
  W.attribute("aggregate", true);
  W.attribute("exit-code", int64_t(R.exitCode()));
  W.key("summary");
  W.beginObject();
  for (const auto &[Name, Value] : R.Summary.counters())
    W.attribute(Name, Value);
  W.endObject();
  W.endObject();
  OS << '\n';
  OS.flush();
}

void o2::printBatchSummary(const BatchResult &R, OutputStream &OS) {
  OS << "==== batch: " << uint64_t(R.Jobs.size()) << " module(s), "
     << R.Summary.get("races.total") << " race(s), exit "
     << int64_t(R.exitCode()) << " ====\n";
  for (const JobResult &J : R.Jobs) {
    OS << "  " << J.Name << ": " << jobStatusName(J.Status);
    if (J.Status == JobStatus::Races)
      OS << " (" << uint64_t(J.Races.size()) << ")";
    if (J.Status == JobStatus::Timeout)
      OS << " (in " << J.Phase << ")";
    if (J.Status == JobStatus::Crashed) {
      OS << " (" << (J.Signal.empty() ? "?" : J.Signal.c_str());
      if (!J.Phase.empty())
        OS << " in " << J.Phase;
      OS << ")";
    }
    if (J.Degraded)
      OS << " [degraded]";
    if (J.Retries)
      OS << " [retries: " << uint64_t(J.Retries) << "]";
    if (!J.Error.empty())
      OS << ": " << J.Error;
    OS << '\n';
  }
  if (R.Summary.get("diff.new") || R.Summary.get("diff.unchanged") ||
      R.Summary.get("diff.fixed"))
    OS << "  diff: " << R.Summary.get("diff.new") << " new, "
       << R.Summary.get("diff.unchanged") << " unchanged, "
       << R.Summary.get("diff.fixed") << " fixed\n";
  if (R.CacheHits || R.CacheMisses)
    OS << "  cache: " << R.CacheHits << " hit(s), " << R.CacheMisses
       << " miss(es)\n";
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

static void printBatchUsage(OutputStream &OS) {
  OS << "usage: o2batch [options] <file.oir | directory>...\n"
     << "\n"
     << "Runs the O2 pipeline over every module of a corpus on a\n"
     << "work-stealing thread pool and emits a JSONL report (one record\n"
     << "per module plus an aggregate; see docs/DRIVER.md).\n"
     << "\n"
     << "  --jobs=N          worker threads (default: hardware "
        "concurrency)\n"
     << "  --analyses=LIST   comma-separated analyses per job: race, "
        "deadlock, oversync,\n"
     << "                    racerd, escape, osa, or 'all' (default: "
        "osa,race); shared\n"
     << "                    passes (pta, shb, hbindex) are computed once "
        "per module\n"
     << "  --cache-dir=DIR   warm result cache keyed by module content + "
        "config\n"
     << "                    fingerprint; unchanged jobs replay identical "
        "records\n"
     << "  --deadline-ms=N   per-job analysis budget; overruns become "
        "'timeout' records\n"
     << "  --isolate=M       job containment: none (default) or process "
        "(one forked\n"
     << "                    sandboxed worker per job; crashes become "
        "'crashed' records)\n"
     << "  --mem-limit-mb=N  worker address-space cap (process isolation); "
        "overruns\n"
     << "                    become 'oom' records\n"
     << "  --kill-after-ms=N hard SIGTERM->SIGKILL for stuck workers "
        "(default: derived\n"
     << "                    from --deadline-ms)\n"
     << "  --retries=N       re-attempt crashed/oom/internal-error jobs up "
        "to N times\n"
     << "                    with exponential backoff\n"
     << "  --retry-backoff-ms=N  first retry backoff (default: 50, doubles, "
        "caps at 2s)\n"
     << "  --degrade         re-run timeout/oom jobs once under a cheaper, "
        "still-sound\n"
     << "                    config (0-ctx PTA); results are tagged "
        "degraded:true\n"
     << "  --inject-fault=S  arm a deterministic fault, "
        "point[@module]:nth[:action]\n"
     << "                    (testing; see --fault-points)\n"
     << "  --fault-points    list the named fault points and exit\n"
     << "  --out=FILE        write the JSONL report to FILE (default: "
        "stdout)\n"
     << "  --baseline=FILE   diff against a previous JSONL report "
        "(new/unchanged/fixed)\n"
     << "  --timings         include wall-clock phase timings "
        "(non-deterministic)\n"
     << "  --profile=NAME    add the named generated workload as a job "
        "(repeatable)\n"
     << "  --profiles=table5 add every benchmark profile as a job\n"
     << "  --ctx=K           context kind: 0-ctx, cfa, obj, origin "
        "(default: origin;\n"
     << "                    also insensitive, k-cfa, k-obj)\n"
     << "  --k=N             context depth for cfa/obj\n"
     << "  --solver=S        pta solver: wave, worklist\n"
     << "  --race-jobs=N     race-engine worker cap per module (default: "
        "share the batch pool)\n"
     << "  --quiet           no human-readable summary on stderr\n"
     << "\n"
     << "exit codes: 0 all clean, 1 races found, 2 any parse/verify/"
        "internal error or timeout\n";
}

bool o2::parseUnsigned(std::string_view Text, uint64_t Max, uint64_t &Out) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, EC] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || EC != std::errc() || Ptr != End || V > Max)
    return false;
  Out = V;
  return true;
}

/// Parses the value of the numeric flag \p Arg ("--name=value") into
/// \p Field; false after a diagnostic that starts with \p Prefix.
template <typename T>
static bool parseNumberFlag(const std::string &Arg, const char *Prefix,
                            uint64_t Max, T &Field) {
  std::string Value = Arg.substr(Arg.find('=') + 1);
  uint64_t V = 0;
  if (!parseUnsigned(Value, Max, V)) {
    errs() << Prefix << "invalid value '" << Value << "' for "
           << Arg.substr(0, Arg.find('=')) << " (expected an integer from 0 to "
           << Max << ")\n";
    return false;
  }
  Field = static_cast<T>(V);
  return true;
}

/// Durations and sizes are doubled or scaled to bytes downstream; this
/// cap keeps the results in 64 bits.
static constexpr uint64_t MaxCount = UINT32_MAX;

FlagStatus o2::parseConfigFlag(const std::string &Arg, const char *Prefix,
                               O2Config &Config, AnalysisSet &Analyses) {
  auto Value = [&Arg] { return Arg.substr(Arg.find('=') + 1); };
  auto Status = [](bool Ok) {
    return Ok ? FlagStatus::Parsed : FlagStatus::Invalid;
  };
  if (Arg.rfind("--ctx=", 0) == 0) {
    std::string V = Value();
    if (V == "0-ctx" || V == "insensitive")
      Config.PTA.Kind = ContextKind::Insensitive;
    else if (V == "cfa" || V == "k-cfa")
      Config.PTA.Kind = ContextKind::KCallsite;
    else if (V == "obj" || V == "k-obj")
      Config.PTA.Kind = ContextKind::KObject;
    else if (V == "origin")
      Config.PTA.Kind = ContextKind::Origin;
    else {
      errs() << Prefix << "unknown context kind '" << V << "'\n";
      return FlagStatus::Invalid;
    }
    return FlagStatus::Parsed;
  }
  if (Arg.rfind("--k=", 0) == 0)
    return Status(parseNumberFlag(Arg, Prefix, MaxCount, Config.PTA.K));
  if (Arg.rfind("--solver=", 0) == 0) {
    std::string V = Value();
    if (V == "wave")
      Config.PTA.Solver = SolverKind::Wave;
    else if (V == "worklist")
      Config.PTA.Solver = SolverKind::Worklist;
    else {
      errs() << Prefix << "unknown solver '" << V << "'\n";
      return FlagStatus::Invalid;
    }
    return FlagStatus::Parsed;
  }
  if (Arg.rfind("--race-jobs=", 0) == 0)
    return Status(
        parseNumberFlag(Arg, Prefix, MaxThreadsFlag, Config.Detector.Jobs));
  if (Arg.rfind("--analyses=", 0) == 0) {
    std::string Err;
    if (!parseAnalysisSet(Value(), Analyses, Err)) {
      errs() << Prefix << Err << "\n";
      return FlagStatus::Invalid;
    }
    return FlagStatus::Parsed;
  }
  return FlagStatus::NotConfig;
}

int o2::runBatchCommand(const std::vector<std::string> &Args) {
  BatchOptions Opts;
  std::vector<std::string> Inputs;
  std::vector<std::string> ProfileNames;
  bool AllProfiles = false;
  bool Quiet = false;
  std::string OutPath, BaselinePath;

  for (const std::string &Arg : Args) {
    auto Value = [&Arg] { return Arg.substr(Arg.find('=') + 1); };
    // Parses the flag's value into Field; false after a diagnostic.
    auto Number = [&Arg](uint64_t Max, auto &Field) {
      return parseNumberFlag(Arg, "o2batch: ", Max, Field);
    };
    FlagStatus Config =
        parseConfigFlag(Arg, "o2batch: ", Opts.Config, Opts.Analyses);
    if (Config == FlagStatus::Invalid)
      return ExitError;
    if (Config == FlagStatus::Parsed)
      continue;
    if (Arg == "--help" || Arg == "-h") {
      printBatchUsage(outs());
      return ExitClean;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!Number(MaxThreadsFlag, Opts.Jobs))
        return ExitError;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Value();
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!Number(MaxCount, Opts.DeadlineMs))
        return ExitError;
    } else if (Arg.rfind("--isolate=", 0) == 0) {
      std::string V = Value();
      if (V == "process")
        Opts.Isolate = IsolationMode::Process;
      else if (V == "none" || V == "in-process")
        Opts.Isolate = IsolationMode::InProcess;
      else {
        errs() << "o2batch: unknown isolation mode '" << V << "'\n";
        return ExitError;
      }
    } else if (Arg.rfind("--mem-limit-mb=", 0) == 0) {
      if (!Number(MaxCount, Opts.MemLimitMB))
        return ExitError;
    } else if (Arg.rfind("--kill-after-ms=", 0) == 0) {
      if (!Number(MaxCount, Opts.HardKillMs))
        return ExitError;
    } else if (Arg.rfind("--retries=", 0) == 0) {
      if (!Number(MaxCount, Opts.Retries))
        return ExitError;
    } else if (Arg.rfind("--retry-backoff-ms=", 0) == 0) {
      if (!Number(MaxCount, Opts.RetryBackoffMs))
        return ExitError;
    } else if (Arg == "--degrade") {
      Opts.Degrade = true;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      std::string Err;
      if (!FaultInjector::instance().armFromSpec(Value(), Err)) {
        errs() << "o2batch: " << Err << "\n";
        return ExitError;
      }
    } else if (Arg == "--fault-points") {
      for (const FaultPointInfo &P : FaultInjector::catalogue())
        outs() << P.Name << "  (" << P.Where << ")\n";
      return ExitClean;
    } else if (Arg == "--timings") {
      Opts.IncludeTimings = true;
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Value();
    } else if (Arg.rfind("--baseline=", 0) == 0) {
      BaselinePath = Value();
    } else if (Arg.rfind("--profile=", 0) == 0) {
      ProfileNames.push_back(Value());
    } else if (Arg == "--profiles=table5" || Arg == "--profiles=all") {
      AllProfiles = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--", 0) == 0) {
      errs() << "o2batch: unknown option '" << Arg << "'\n";
      printBatchUsage(errs());
      return ExitError;
    } else {
      Inputs.push_back(Arg);
    }
  }

  namespace fs = std::filesystem;
  std::vector<JobSpec> Specs;
  auto addFile = [&Specs](const fs::path &P) {
    JobSpec S;
    S.Name = P.stem().string();
    S.Path = P.string();
    Specs.push_back(std::move(S));
  };
  for (const std::string &In : Inputs) {
    std::error_code EC;
    if (fs::is_directory(In, EC)) {
      std::vector<fs::path> Files;
      for (const auto &Entry : fs::directory_iterator(In, EC))
        if (Entry.path().extension() == ".oir")
          Files.push_back(Entry.path());
      std::sort(Files.begin(), Files.end());
      for (const fs::path &P : Files)
        addFile(P);
    } else {
      addFile(fs::path(In));
    }
  }
  for (const std::string &PN : ProfileNames) {
    const WorkloadProfile *P = findProfile(PN);
    if (!P) {
      errs() << "o2batch: unknown profile '" << PN << "'\n";
      return ExitError;
    }
    JobSpec S;
    S.Name = P->Name;
    S.Profile = P;
    Specs.push_back(std::move(S));
  }
  if (AllProfiles)
    for (const WorkloadProfile &P : benchmarkProfiles()) {
      JobSpec S;
      S.Name = P.Name;
      S.Profile = &P;
      Specs.push_back(std::move(S));
    }
  if (Specs.empty()) {
    errs() << "o2batch: no inputs\n";
    printBatchUsage(errs());
    return ExitError;
  }

  BatchResult R = runBatch(Specs, Opts);

  if (!BaselinePath.empty()) {
    bool Ok = false;
    std::string Content = readFileContent(BaselinePath, Ok);
    if (!Ok) {
      errs() << "o2batch: cannot read baseline '" << BaselinePath << "'\n";
      return ExitError;
    }
    applyBaseline(R, loadBaseline(Content));
  }

  bool ToFile = !OutPath.empty();
  std::FILE *F = ToFile ? std::fopen(OutPath.c_str(), "wb") : stdout;
  if (!F) {
    errs() << "o2batch: cannot write '" << OutPath << "'\n";
    return ExitError;
  }
  {
    FileOutputStream FOS(F);
    printJSONL(R, FOS, Opts.IncludeTimings);
  }
  if (ToFile) {
    bool Failed = std::ferror(F) != 0;
    if (std::fclose(F) != 0 || Failed) {
      errs() << "o2batch: cannot write '" << OutPath << "'\n";
      return ExitError;
    }
  }
  if (!Quiet)
    printBatchSummary(R, errs());
  return R.exitCode();
}
