//===- DriverTest.cpp - Batch-analysis driver tests ---------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Covers the batch driver: job status classification, deterministic
// reports across worker counts and runs, per-job deadline degradation,
// per-phase cancellation, baseline diffing with reorder-stable
// fingerprints, and the shared exit-code convention.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"

#include "o2/Driver/ResultCache.h"
#include "o2/IR/Parser.h"
#include "o2/Support/FaultInjector.h"
#include "o2/Support/OutputStream.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

// Address sanitizer reserves terabytes of shadow address space, which is
// incompatible with the RLIMIT_AS cap --mem-limit-mb installs, and it
// intercepts SIGSEGV/abort with its own reporting exit path. The
// affected cases are skipped or routed through sanitizer-proof actions
// (SIGKILL) instead.
#if defined(__SANITIZE_ADDRESS__)
#define O2_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define O2_UNDER_ASAN 1
#endif
#endif
#ifndef O2_UNDER_ASAN
#define O2_UNDER_ASAN 0
#endif

using namespace o2;

namespace {

const char *RacyProgram = R"(
  class T {
    method run() { var x: int; @g = x; }
  }
  global g: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @g;
  }
)";

const char *CleanProgram = R"(
  class T { method run() { var x: int; } }
  func main() {
    var t: T;
    t = new T;
    spawn t.run();
  }
)";

JobSpec sourceSpec(std::string Name, std::string Source) {
  JobSpec S;
  S.Name = std::move(Name);
  S.Source = std::move(Source);
  return S;
}

std::string renderJSONL(const BatchResult &R) {
  std::string Buf;
  StringOutputStream OS(Buf);
  printJSONL(R, OS);
  return Buf;
}

TEST(DriverTest, StatusClassification) {
  std::vector<JobSpec> Specs = {
      sourceSpec("clean", CleanProgram),
      sourceSpec("racy", RacyProgram),
      sourceSpec("broken", "class {"),
      sourceSpec("headless", "func helper() { }"), // no main
  };
  BatchResult R = runBatch(Specs);
  ASSERT_EQ(R.Jobs.size(), 4u);
  // Sorted by name.
  EXPECT_EQ(R.Jobs[0].Name, "broken");
  EXPECT_EQ(R.Jobs[1].Name, "clean");
  EXPECT_EQ(R.Jobs[2].Name, "headless");
  EXPECT_EQ(R.Jobs[3].Name, "racy");

  EXPECT_EQ(R.Jobs[0].Status, JobStatus::ParseError);
  EXPECT_NE(R.Jobs[0].Error.find(":"), std::string::npos)
      << "parse diagnostics carry a position: " << R.Jobs[0].Error;
  EXPECT_EQ(R.Jobs[1].Status, JobStatus::Clean);
  EXPECT_TRUE(R.Jobs[1].Races.empty());
  EXPECT_EQ(R.Jobs[2].Status, JobStatus::VerifyError);
  EXPECT_NE(R.Jobs[2].Error.find("main"), std::string::npos)
      << R.Jobs[2].Error;
  EXPECT_EQ(R.Jobs[3].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[3].Races.size(), 1u);
  EXPECT_EQ(R.Jobs[3].Races[0].Location, "@g");

  EXPECT_EQ(R.Summary.get("jobs.total"), 4u);
  EXPECT_EQ(R.Summary.get("jobs.clean"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.races"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.parse-error"), 1u);
  EXPECT_EQ(R.Summary.get("jobs.verify-error"), 1u);
  EXPECT_EQ(R.Summary.get("races.total"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST(DriverTest, DeterministicAcrossWorkerCountsAndRuns) {
  std::vector<JobSpec> Specs;
  for (int I = 0; I < 6; ++I)
    Specs.push_back(sourceSpec("racy" + std::to_string(I), RacyProgram));
  Specs.push_back(sourceSpec("clean", CleanProgram));

  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchOptions Wide;
  Wide.Jobs = 4;

  std::string Golden = renderJSONL(runBatch(Specs, Serial));
  EXPECT_EQ(renderJSONL(runBatch(Specs, Wide)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Wide)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Serial)), Golden);

  // One JSONL record per job plus the aggregate.
  size_t Lines = 0;
  for (char C : Golden)
    Lines += C == '\n';
  EXPECT_EQ(Lines, Specs.size() + 1);
}

/// "telegram", the heaviest generated workload (context amplifier with
/// fan-out 32), at 4x origins and padding. In a Release build its pointer
/// analysis takes ~0.8 s and its RacerD-like pass ~0.3 s.
WorkloadProfile heavyProfile() {
  WorkloadProfile P = *findProfile("telegram");
  P.NumThreads *= 4;
  P.NumEventHandlers *= 4;
  P.PaddingFunctions *= 4;
  return P;
}

TEST(DriverTest, DeadlineTimeoutIsIsolatedPerJob) {
  // The budget sits between the two jobs with a wide margin on each side:
  // the heavy job's pointer analysis takes ~20x longer in a Release
  // build, so the deadline always fires in its first phase, while the
  // tiny racy module's whole pipeline takes ~2 ms even under ASan and
  // completes normally on the same pool.
  WorkloadProfile Heavy = heavyProfile();
  JobSpec HeavySpec;
  HeavySpec.Name = "heavy";
  HeavySpec.Profile = &Heavy;
  std::vector<JobSpec> Specs = {HeavySpec, sourceSpec("tiny", RacyProgram)};

  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.DeadlineMs = 40;
  BatchResult R = runBatch(Specs, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &HeavyJob = R.Jobs[0];
  EXPECT_EQ(HeavyJob.Name, "heavy");
  EXPECT_EQ(HeavyJob.Status, JobStatus::Timeout);
  EXPECT_EQ(HeavyJob.Phase, "pta");
  // Partial statistics survive however early the deadline fires: PTA
  // processes main's own statements before its first poll.
  EXPECT_GT(HeavyJob.Stats.get("pta.pointer-nodes"), 0u);
  EXPECT_EQ(HeavyJob.Stats.get("pta.cancelled"), 1u);

  const JobResult &TinyJob = R.Jobs[1];
  EXPECT_EQ(TinyJob.Status, JobStatus::Races);
  EXPECT_EQ(TinyJob.Races.size(), 1u);

  EXPECT_EQ(R.Summary.get("jobs.timeout"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST(DriverTest, PreCancelledTokenStopsEveryPhase) {
  std::string Err;
  auto M = parseModule(RacyProgram, Err);
  ASSERT_TRUE(M) << Err;

  CancellationToken Cancelled;
  Cancelled.cancel();

  // PTA stops and flags its (partial) result.
  PTAOptions PTAOpts;
  PTAOpts.Cancel = &Cancelled;
  auto PTA = runPointerAnalysis(*M, PTAOpts);
  EXPECT_TRUE(PTA->cancelled());

  // The later phases each poll the token themselves.
  auto FullPTA = runPointerAnalysis(*M, PTAOptions());
  ASSERT_FALSE(FullPTA->cancelled());
  EXPECT_TRUE(runSharingAnalysis(*FullPTA, &Cancelled).cancelled());

  SHBOptions SHBOpts;
  SHBOpts.Cancel = &Cancelled;
  EXPECT_TRUE(buildSHBGraph(*FullPTA, SHBOpts).cancelled());

  RaceDetectorOptions DetOpts;
  DetOpts.Cancel = &Cancelled;
  RaceReport Report = detectRaces(*FullPTA, DetOpts);
  EXPECT_TRUE(Report.cancelled());
  EXPECT_EQ(Report.stats().get("race.cancelled"), 1u);

  // Through the facade: the pipeline dies in the first phase and the
  // phase is recorded.
  O2Config Cfg;
  Cfg.Cancel = &Cancelled;
  O2Analysis A = analyzeModule(*M, Cfg);
  EXPECT_TRUE(A.cancelled());
  EXPECT_EQ(A.CancelledIn, O2Phase::PTA);
  EXPECT_STREQ(phaseName(A.CancelledIn), "pta");
}

// Version 1: two independent races, on @a and on @b.
const char *BaselineV1 = R"(
  class T {
    method run() {
      var x: int;
      @a = x;
      @b = x;
    }
  }
  global a: int;
  global b: int;
  func main() {
    var t: T;
    var x: int;
    t = new T;
    spawn t.run();
    x = @a;
    x = @b;
  }
)";

// Version 2: unrelated code added and reordered (globals shuffled, a
// padding class and new locals inserted, statements moved), the @b race
// removed, a new race on @c introduced. The @a race is textually the
// same accesses — its fingerprint must survive all the reordering.
const char *BaselineV2 = R"(
  global c: int;
  global b: int;
  global a: int;
  class Pad { field p: int; }
  class T {
    method run() {
      var x: int;
      var y: int;
      @c = x;
      @a = x;
    }
  }
  func main() {
    var p: Pad;
    var t: T;
    var x: int;
    p = new Pad;
    x = p.p;
    t = new T;
    spawn t.run();
    x = @c;
    x = @a;
  }
)";

TEST(DriverTest, BaselineDiffWithReorderStableFingerprints) {
  BatchResult Before = runBatch({sourceSpec("m", BaselineV1)});
  ASSERT_EQ(Before.Jobs.size(), 1u);
  ASSERT_EQ(Before.Jobs[0].Races.size(), 2u);
  std::string FPA, FPB;
  for (const RaceRecord &Rc : Before.Jobs[0].Races) {
    if (Rc.Location == "@a")
      FPA = Rc.Fingerprint;
    if (Rc.Location == "@b")
      FPB = Rc.Fingerprint;
  }
  ASSERT_FALSE(FPA.empty());
  ASSERT_FALSE(FPB.empty());
  EXPECT_NE(FPA, FPB);

  Baseline Base = loadBaseline(renderJSONL(Before));
  ASSERT_EQ(Base.count("m"), 1u);
  EXPECT_EQ(Base["m"].size(), 2u);
  EXPECT_TRUE(Base["m"].count(FPA));
  EXPECT_TRUE(Base["m"].count(FPB));

  BatchResult After = runBatch({sourceSpec("m", BaselineV2)});
  ASSERT_EQ(After.Jobs.size(), 1u);
  ASSERT_EQ(After.Jobs[0].Races.size(), 2u);
  applyBaseline(After, Base);

  for (const RaceRecord &Rc : After.Jobs[0].Races) {
    if (Rc.Location == "@a") {
      // Same accesses despite all the unrelated churn: unchanged.
      EXPECT_EQ(Rc.Fingerprint, FPA);
      EXPECT_EQ(Rc.DiffStatus, "unchanged");
    } else {
      EXPECT_EQ(Rc.Location, "@c");
      EXPECT_EQ(Rc.DiffStatus, "new");
    }
  }
  ASSERT_EQ(After.Jobs[0].FixedRaces.size(), 1u);
  EXPECT_EQ(After.Jobs[0].FixedRaces[0], FPB);
  EXPECT_EQ(After.Summary.get("diff.new"), 1u);
  EXPECT_EQ(After.Summary.get("diff.unchanged"), 1u);
  EXPECT_EQ(After.Summary.get("diff.fixed"), 1u);

  // The diff annotations land in the JSONL report.
  std::string Report = renderJSONL(After);
  EXPECT_NE(Report.find("\"diff\":\"new\""), std::string::npos);
  EXPECT_NE(Report.find("\"diff\":\"unchanged\""), std::string::npos);
  EXPECT_NE(Report.find("\"fixed\":[\"" + FPB + "\"]"), std::string::npos);
}

TEST(DriverTest, ExitCodeConvention) {
  EXPECT_EQ(exitCodeFor(JobStatus::Clean), ExitClean);
  EXPECT_EQ(exitCodeFor(JobStatus::Races), ExitRacesFound);
  EXPECT_EQ(exitCodeFor(JobStatus::Timeout), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::ParseError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::VerifyError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::InternalError), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::Crashed), ExitError);
  EXPECT_EQ(exitCodeFor(JobStatus::OOM), ExitError);

  // Aggregate: the worst job wins.
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram)}).exitCode(), ExitClean);
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram),
                      sourceSpec("r", RacyProgram)})
                .exitCode(),
            ExitRacesFound);
  EXPECT_EQ(runBatch({sourceSpec("c", CleanProgram),
                      sourceSpec("r", RacyProgram),
                      sourceSpec("x", "class {")})
                .exitCode(),
            ExitError);
}

std::string freshCacheDir(const char *Name) {
  std::string Dir = testing::TempDir() + "o2-drivertest-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

TEST(DriverTest, AnalysesSelectSectionsAndStayDeterministic) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram)};

  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Detect, O2Phase::Deadlock, O2Phase::OverSync,
                   O2Phase::RacerD};
  Opts.Jobs = 1;
  BatchResult Narrow = runBatch(Specs, Opts);
  std::string Golden = renderJSONL(Narrow);

  // Byte-identical across worker counts, aux sections included.
  Opts.Jobs = 8;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  EXPECT_NE(Golden.find("\"analyses\":\"race,deadlock,oversync,racerd\""),
            std::string::npos);
  EXPECT_NE(Golden.find("\"deadlocks\":"), std::string::npos);
  EXPECT_NE(Golden.find("\"oversync\":"), std::string::npos);
  EXPECT_NE(Golden.find("\"racerd\":"), std::string::npos);

  // The aux analyses produce their counters but never change the race
  // status or the exit code.
  ASSERT_EQ(Narrow.Jobs.size(), 2u);
  EXPECT_EQ(Narrow.Jobs[1].Status, JobStatus::Races);
  EXPECT_GT(Narrow.Jobs[1].Stats.get("racerd.warnings"), 0u);
  EXPECT_EQ(Narrow.exitCode(), ExitRacesFound);

  // The default request carries no aux sections.
  std::string Default = renderJSONL(runBatch(Specs));
  EXPECT_EQ(Default.find("\"deadlocks\":"), std::string::npos);
  EXPECT_EQ(Default.find("\"racerd\":"), std::string::npos);
}

TEST(DriverTest, WarmCacheReplaysIdenticalReports) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram)};
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::OSA, O2Phase::Detect, O2Phase::Deadlock,
                   O2Phase::OverSync};
  Opts.CacheDir = freshCacheDir("warm");

  BatchResult Cold = runBatch(Specs, Opts);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 2u);

  BatchResult Warm = runBatch(Specs, Opts);
  EXPECT_EQ(Warm.CacheHits, 2u);
  EXPECT_EQ(Warm.CacheMisses, 0u);

  // The warm run replays byte-identical records — cache telemetry is
  // deliberately kept out of the JSONL.
  EXPECT_EQ(renderJSONL(Warm), renderJSONL(Cold));
  std::string Report = renderJSONL(Warm);
  EXPECT_EQ(Report.find("cache"), std::string::npos);

  // A different config fingerprint misses: same modules, new entries.
  BatchOptions Worklist = Opts;
  Worklist.Config.PTA.Solver = SolverKind::Worklist;
  BatchResult Cross = runBatch(Specs, Worklist);
  EXPECT_EQ(Cross.CacheHits, 0u);
  EXPECT_EQ(Cross.CacheMisses, 2u);

  // Renaming a job does not invalidate its entry (the key is content).
  std::vector<JobSpec> Renamed = {sourceSpec("renamed", RacyProgram)};
  BatchResult Moved = runBatch(Renamed, Opts);
  EXPECT_EQ(Moved.CacheHits, 1u);
  ASSERT_EQ(Moved.Jobs.size(), 1u);
  EXPECT_EQ(Moved.Jobs[0].Name, "renamed");
  EXPECT_EQ(Moved.Jobs[0].Races.size(), 1u);
}

TEST(DriverTest, CorruptCacheEntriesDegradeToMisses) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::Detect, O2Phase::Deadlock};
  Opts.CacheDir = freshCacheDir("corrupt");

  std::string Golden = renderJSONL(runBatch(Specs, Opts));

  // Truncate every entry: checksum fails, jobs re-run, report unchanged.
  for (const auto &E : std::filesystem::directory_iterator(Opts.CacheDir)) {
    std::ofstream Out(E.path(), std::ios::trunc | std::ios::binary);
    Out << "o2cache";
  }
  BatchResult Truncated = runBatch(Specs, Opts);
  EXPECT_EQ(Truncated.CacheHits, 0u);
  EXPECT_EQ(Truncated.CacheMisses, 1u);
  EXPECT_EQ(renderJSONL(Truncated), Golden);

  // Version skew: a valid-looking header from the future is a miss too.
  for (const auto &E : std::filesystem::directory_iterator(Opts.CacheDir)) {
    std::ofstream Out(E.path(), std::ios::trunc | std::ios::binary);
    Out << "o2cache 9999 0000000000000000\n";
  }
  BatchResult Skewed = runBatch(Specs, Opts);
  EXPECT_EQ(Skewed.CacheHits, 0u);
  EXPECT_EQ(renderJSONL(Skewed), Golden);

  // The re-run overwrote the damaged entries: warm again.
  BatchResult Healed = runBatch(Specs, Opts);
  EXPECT_EQ(Healed.CacheHits, 1u);
  EXPECT_EQ(renderJSONL(Healed), Golden);
}

TEST(DriverTest, TotalMsIncludesAuxAnalyses) {
  // The regression the manager fixed: totalMs used to sum only the four
  // core phases, silently dropping aux-analysis time.
  JobResult R;
  R.PTAMs = 1;
  R.OSAMs = 2;
  R.SHBMs = 4;
  R.HBIndexMs = 8;
  R.DetectMs = 16;
  R.DeadlockMs = 32;
  R.OverSyncMs = 64;
  R.RacerDMs = 128;
  R.EscapeMs = 256;
  EXPECT_DOUBLE_EQ(R.totalMs(), 511.0);

  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  JobResult Live = runOneJob(sourceSpec("racy", RacyProgram), Opts);
  EXPECT_EQ(Live.Status, JobStatus::Races);
  EXPECT_DOUBLE_EQ(Live.totalMs(),
                   Live.PTAMs + Live.OSAMs + Live.SHBMs + Live.HBIndexMs +
                       Live.DetectMs + Live.DeadlockMs + Live.OverSyncMs +
                       Live.RacerDMs + Live.EscapeMs);
  EXPECT_GT(Live.totalMs(), 0.0);
}

TEST(DriverTest, DeadlineTimeoutNamesAuxPhase) {
  // RacerD has no dependencies, so with a RacerD-only request the first
  // pass the deadline can fire in is RacerD itself — the timeout record
  // must name the aux analysis, not "pta". The heavy profile keeps RacerD
  // busy for hundreds of times the 1 ms budget; in a slower build the
  // budget runs out earlier, and RacerD's first poll cancels it.
  WorkloadProfile Heavy = heavyProfile();
  JobSpec Spec;
  Spec.Name = "heavy";
  Spec.Profile = &Heavy;

  BatchOptions Opts;
  Opts.Analyses = {O2Phase::RacerD};
  Opts.DeadlineMs = 1;
  Opts.CacheDir = freshCacheDir("timeout");
  BatchResult R = runBatch({Spec}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Timeout);
  EXPECT_EQ(R.Jobs[0].Phase, "racerd");

  // Timeouts are never cached: the re-run misses again.
  BatchResult Again = runBatch({Spec}, Opts);
  EXPECT_EQ(Again.CacheHits, 0u);
  EXPECT_EQ(Again.Jobs[0].Status, JobStatus::Timeout);
}

//===----------------------------------------------------------------------===//
// Crash containment: process isolation, fault injection, retries, and
// sound degraded-mode fallback.
//===----------------------------------------------------------------------===//

/// Every containment test arms faults on the process-wide injector, so
/// the fixture guarantees a clean slate on both sides.
class ContainmentTest : public testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }

  void armOrDie(const std::string &Spec) {
    std::string Err;
    ASSERT_TRUE(FaultInjector::instance().armFromSpec(Spec, Err)) << Err;
  }
};

TEST_F(ContainmentTest, CrashedJobIsContainedUnderProcessIsolation) {
  // SIGKILL is uncatchable and sanitizer-proof: the worker dies mid-pass
  // with no chance to report, exactly like a real SIGSEGV in release.
  armOrDie("pass.race@boom:1:kill");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 2;
  BatchResult R = runBatch(
      {sourceSpec("boom", RacyProgram), sourceSpec("ok", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &Boom = R.Jobs[0];
  EXPECT_EQ(Boom.Name, "boom");
  EXPECT_EQ(Boom.Status, JobStatus::Crashed);
  EXPECT_EQ(Boom.Signal, "SIGKILL");
  EXPECT_EQ(Boom.Phase, "race") << "crash attributed to the dying pass";
  EXPECT_NE(Boom.Error.find("SIGKILL"), std::string::npos) << Boom.Error;

  // The sibling on the same pool is untouched.
  const JobResult &Ok = R.Jobs[1];
  EXPECT_EQ(Ok.Status, JobStatus::Races);
  EXPECT_EQ(Ok.Races.size(), 1u);

  EXPECT_EQ(R.Summary.get("jobs.crashed"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);

  std::string Report = renderJSONL(R);
  EXPECT_NE(Report.find("\"status\":\"crashed\""), std::string::npos);
  EXPECT_NE(Report.find("\"signal\":\"SIGKILL\""), std::string::npos);
  EXPECT_NE(Report.find("\"phase\":\"race\""), std::string::npos);
}

TEST_F(ContainmentTest, SignalAndSilentExitVariantsAreClassified) {
  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;

  // A worker that vanishes without a result (exit code 13, no r: line).
  armOrDie("pass.race@gone:1:exit");
  JobResult Gone = runJobContained(sourceSpec("gone", RacyProgram), Opts);
  EXPECT_EQ(Gone.Status, JobStatus::Crashed);
  EXPECT_NE(Gone.Error.find("exited with code 13"), std::string::npos)
      << Gone.Error;
  EXPECT_TRUE(Gone.Signal.empty());

#if !O2_UNDER_ASAN
  // Real signals (ASan intercepts these with its own exit path).
  FaultInjector::instance().disarm();
  armOrDie("pass.race@sv:1:segv");
  JobResult Segv = runJobContained(sourceSpec("sv", RacyProgram), Opts);
  EXPECT_EQ(Segv.Status, JobStatus::Crashed);
  EXPECT_EQ(Segv.Signal, "SIGSEGV");
  EXPECT_EQ(Segv.Phase, "race");

  FaultInjector::instance().disarm();
  armOrDie("pass.race@ab:1:abort");
  JobResult Abort = runJobContained(sourceSpec("ab", RacyProgram), Opts);
  EXPECT_EQ(Abort.Status, JobStatus::Crashed);
  EXPECT_EQ(Abort.Signal, "SIGABRT");
#endif
}

TEST_F(ContainmentTest, ProcessIsolationMatchesInProcessReport) {
  // No faults: forked workers must reproduce the in-process report
  // byte for byte, across every status the wire format carries.
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram),
                                sourceSpec("clean", CleanProgram),
                                sourceSpec("broken", "class {"),
                                sourceSpec("headless", "func helper() { }")};
  std::string Golden = renderJSONL(runBatch(Specs));

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 1;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  Opts.Jobs = 4;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
}

TEST_F(ContainmentTest, CrashReportsAreDeterministicAcrossWorkerCounts) {
  // The @module scope pins the fault to one job, so the report is
  // byte-identical no matter how jobs interleave over workers.
  armOrDie("pass.race@boom:1:kill");

  std::vector<JobSpec> Specs = {
      sourceSpec("boom", RacyProgram), sourceSpec("a", RacyProgram),
      sourceSpec("b", CleanProgram), sourceSpec("c", RacyProgram)};

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.Jobs = 1;
  std::string Golden = renderJSONL(runBatch(Specs, Opts));
  EXPECT_NE(Golden.find("\"status\":\"crashed\""), std::string::npos);

  Opts.Jobs = 4;
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
  EXPECT_EQ(renderJSONL(runBatch(Specs, Opts)), Golden);
}

TEST_F(ContainmentTest, HardKillContainsAStuckWorker) {
  // `hang` ignores cooperative deadlines — only the parent's SIGTERM /
  // SIGKILL escalation can reclaim the worker.
  armOrDie("pass.pta@stuck:1:hang");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.HardKillMs = 300;
  BatchResult R = runBatch({sourceSpec("stuck", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Timeout);
  EXPECT_EQ(R.Jobs[0].Phase, "pta");
  EXPECT_NE(R.Jobs[0].Error.find("hard deadline"), std::string::npos)
      << R.Jobs[0].Error;
  EXPECT_EQ(R.Summary.get("jobs.timeout"), 1u);
}

TEST_F(ContainmentTest, RssCapOomYieldsOomRecordWithPartialStats) {
#if O2_UNDER_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#endif
  // `hog` allocates until allocation genuinely fails, so with the cap in
  // place the worker takes the real bad_alloc path and still manages to
  // report over the pipe (the hog releases its hoard first).
  armOrDie("pass.shb@cap:1:hog");

  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.MemLimitMB = 512;
  Opts.Jobs = 2;
  BatchResult R = runBatch(
      {sourceSpec("cap", RacyProgram), sourceSpec("ok", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &Cap = R.Jobs[0];
  EXPECT_EQ(Cap.Status, JobStatus::OOM);
  EXPECT_EQ(Cap.Error, "out of memory");
  EXPECT_EQ(Cap.Phase, "shb");
  // The phases that finished before the blow-up kept their statistics.
  EXPECT_GT(Cap.Stats.get("pta.pointer-nodes"), 0u);

  EXPECT_EQ(R.Jobs[1].Status, JobStatus::Races);
  EXPECT_EQ(R.Summary.get("jobs.oom"), 1u);
  EXPECT_EQ(R.exitCode(), ExitError);
}

TEST_F(ContainmentTest, RetryRecoversFromTransientFaults) {
  // Nth=1 semantics make the fault transient: it fires on the first
  // attempt only, and the bounded retry turns the job around. In-process
  // the injector's counters are global, so the retry sees them advanced.
  armOrDie("pass.race@flaky:1:throw");

  BatchOptions Opts;
  Opts.Retries = 2;
  Opts.RetryBackoffMs = 1;
  BatchResult R = runBatch({sourceSpec("flaky", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[0].Retries, 1u);
  EXPECT_EQ(R.Summary.get("jobs.retried"), 1u);
  EXPECT_NE(renderJSONL(R).find("\"retries\":1"), std::string::npos);

  // A deterministic failure just fails Retries more times and keeps the
  // original record (with the attempt count).
  FaultInjector::instance().disarm();
  armOrDie("pass.race@stubborn:*:throw");
  BatchResult S = runBatch({sourceSpec("stubborn", RacyProgram)}, Opts);
  EXPECT_EQ(S.Jobs[0].Status, JobStatus::InternalError);
  EXPECT_EQ(S.Jobs[0].Retries, 2u);
  EXPECT_NE(S.Jobs[0].Error.find("injected fault"), std::string::npos);
}

TEST_F(ContainmentTest, DegradedFallbackCompletesSoundly) {
  // First attempt OOMs in PTA; --degrade re-runs under the cheaper
  // (context-insensitive, still sound) configuration, which must still
  // report the race — degradation trades precision, never recall.
  armOrDie("pass.pta@deg:1:oom");

  BatchOptions Opts;
  Opts.Degrade = true;
  BatchResult R = runBatch({sourceSpec("deg", RacyProgram)}, Opts);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[0].Races.size(), 1u);
  EXPECT_TRUE(R.Jobs[0].Degraded);
  EXPECT_NE(R.Jobs[0].DegradedConfigFP, 0u);
  EXPECT_EQ(R.Summary.get("jobs.degraded"), 1u);
  EXPECT_EQ(R.exitCode(), ExitRacesFound);

  std::string Report = renderJSONL(R);
  EXPECT_NE(Report.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(Report.find("\"degraded-config\":\""), std::string::npos);
}

TEST_F(ContainmentTest, BadAllocIsContainedEvenInProcess) {
  // Satellite robustness: without isolation, bad_alloc still becomes a
  // structured `oom` record instead of escaping the pool thread.
  armOrDie("alloc@oomjob:1:oom");
  BatchResult R = runBatch(
      {sourceSpec("ok", RacyProgram), sourceSpec("oomjob", RacyProgram)});
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(R.Jobs[1].Name, "oomjob");
  EXPECT_EQ(R.Jobs[1].Status, JobStatus::OOM);
  EXPECT_EQ(R.Jobs[1].Error, "out of memory");
  // The alloc point sits between verification and the first pass.
  EXPECT_EQ(R.Jobs[1].Phase, "verify");
  EXPECT_EQ(R.exitCode(), ExitError);

  // Mid-pipeline OOM keeps the partial statistics of finished phases.
  FaultInjector::instance().disarm();
  armOrDie("pass.osa@partial:1:oom");
  JobResult P = runOneJob(sourceSpec("partial", RacyProgram), BatchOptions());
  EXPECT_EQ(P.Status, JobStatus::OOM);
  EXPECT_EQ(P.Phase, "osa");
  EXPECT_GT(P.Stats.get("pta.pointer-nodes"), 0u);

  // The parser fault point maps to a contained internal error.
  FaultInjector::instance().disarm();
  armOrDie("parse@pf:1:throw");
  JobResult F = runOneJob(sourceSpec("pf", RacyProgram), BatchOptions());
  EXPECT_EQ(F.Status, JobStatus::InternalError);
  EXPECT_EQ(F.Phase, "parse");
  EXPECT_NE(F.Error.find("injected fault"), std::string::npos);
}

TEST_F(ContainmentTest, EveryPassFaultPointIsWired) {
  // One throw per pass point: the error is contained in-process and
  // attributed to exactly that pass.
  const struct {
    const char *Point;
    const char *Phase;
  } Cases[] = {
      {"pass.pta", "pta"},           {"pass.osa", "osa"},
      {"pass.shb", "shb"},           {"pass.hbindex", "hbindex"},
      {"pass.race", "race"},         {"pass.deadlock", "deadlock"},
      {"pass.oversync", "oversync"}, {"pass.racerd", "racerd"},
      {"pass.escape", "escape"},
  };
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  for (const auto &C : Cases) {
    FaultInjector::instance().disarm();
    std::string Err;
    ASSERT_TRUE(FaultInjector::instance().armFromSpec(
        std::string(C.Point) + ":1:throw", Err))
        << Err;
    JobResult R = runOneJob(sourceSpec("m", RacyProgram), Opts);
    EXPECT_EQ(R.Status, JobStatus::InternalError) << C.Point;
    EXPECT_EQ(R.Phase, C.Phase) << C.Point;
  }
}

TEST_F(ContainmentTest, ResultCacheNeverStoresCrashedOrDegradedResults) {
  ResultCache Cache(freshCacheDir("contain"));
  JobResult Out;

  JobResult Good;
  Good.Status = JobStatus::Clean;
  Cache.store(1, 2, Good);
  EXPECT_TRUE(Cache.lookup(1, 2, Out));

  JobResult Crashed;
  Crashed.Status = JobStatus::Crashed;
  Crashed.Signal = "SIGKILL";
  Cache.store(3, 4, Crashed);
  EXPECT_FALSE(Cache.lookup(3, 4, Out));

  JobResult Oom;
  Oom.Status = JobStatus::OOM;
  Cache.store(5, 6, Oom);
  EXPECT_FALSE(Cache.lookup(5, 6, Out));

  JobResult Degraded;
  Degraded.Status = JobStatus::Races;
  Degraded.Degraded = true;
  Degraded.DegradedConfigFP = 7;
  Cache.store(7, 8, Degraded);
  EXPECT_FALSE(Cache.lookup(7, 8, Out));

  // End to end: a job that crashes every run must re-run (and re-crash)
  // on a warm directory rather than replay a poisoned entry.
  armOrDie("pass.race@boom:*:kill");
  BatchOptions Opts;
  Opts.Isolate = IsolationMode::Process;
  Opts.CacheDir = freshCacheDir("crashcache");
  BatchResult R1 = runBatch({sourceSpec("boom", RacyProgram)}, Opts);
  EXPECT_EQ(R1.Jobs[0].Status, JobStatus::Crashed);
  BatchResult R2 = runBatch({sourceSpec("boom", RacyProgram)}, Opts);
  EXPECT_EQ(R2.CacheHits, 0u);
  EXPECT_EQ(R2.Jobs[0].Status, JobStatus::Crashed);
}

TEST_F(ContainmentTest, DegradedResultsAreNeverServedFromCache) {
  armOrDie("pass.pta@deg:1:oom");
  BatchOptions Opts;
  Opts.Degrade = true;
  Opts.CacheDir = freshCacheDir("degcache");

  BatchResult R1 = runBatch({sourceSpec("deg", RacyProgram)}, Opts);
  ASSERT_EQ(R1.Jobs.size(), 1u);
  EXPECT_TRUE(R1.Jobs[0].Degraded);

  // Fault spent: the re-run must analyze under the full configuration —
  // a cache hit here would freeze the degraded result forever.
  BatchResult R2 = runBatch({sourceSpec("deg", RacyProgram)}, Opts);
  EXPECT_EQ(R2.CacheHits, 0u);
  EXPECT_FALSE(R2.Jobs[0].Degraded);
  EXPECT_EQ(R2.Jobs[0].Status, JobStatus::Races);
}

TEST_F(ContainmentTest, CacheIOFaultsDegradeToMisses) {
  std::vector<JobSpec> Specs = {sourceSpec("racy", RacyProgram)};
  BatchOptions Opts;
  Opts.CacheDir = freshCacheDir("faultio");

  // A failing store is swallowed: the run succeeds, nothing is cached.
  armOrDie("cache.write:1:throw");
  BatchResult Cold = runBatch(Specs, Opts);
  EXPECT_EQ(Cold.Jobs[0].Status, JobStatus::Races);
  EXPECT_EQ(Cold.CacheMisses, 1u);

  BatchResult Second = runBatch(Specs, Opts);
  EXPECT_EQ(Second.CacheHits, 0u) << "the faulted store wrote nothing";
  EXPECT_EQ(Second.CacheMisses, 1u);

  // A failing read degrades the warm entry to a miss; the job re-runs
  // and the report is unchanged.
  armOrDie("cache.read:1:throw");
  BatchResult Third = runBatch(Specs, Opts);
  EXPECT_EQ(Third.CacheHits, 0u);
  EXPECT_EQ(Third.CacheMisses, 1u);
  EXPECT_EQ(renderJSONL(Third), renderJSONL(Cold));

  // Faults spent: the entry (rewritten by the re-run) is served again.
  BatchResult Fourth = runBatch(Specs, Opts);
  EXPECT_EQ(Fourth.CacheHits, 1u);
}

/// Two threads that take two locks in opposite orders (a deadlock
/// cycle), each hold a lock over a private object (an over-synchronized
/// region), and race on @g through \p N writes against \p N reads.
std::string lockedRacyProgram(unsigned N) {
  std::string Writes, Reads;
  for (unsigned I = 0; I < N; ++I) {
    Writes += "@g = x;\n";
    Reads += "x = @g;\n";
  }
  auto Thread = [](const char *Name, const char *First, const char *Second,
                   const std::string &Body) {
    return std::string("class ") + Name + R"( {
      method run() {
        var la: Lock;
        var lb: Lock;
        var o: Obj;
        var x: int;
        la = @ga;
        lb = @gb;
        acquire )" + First + ";\nacquire " + Second + ";\nrelease " +
           Second + ";\nrelease " + First + R"(;
        o = new Obj;
        acquire la;
        o.v = x;
        release la;
        )" + Body + R"(
      }
    }
)";
  };
  return R"(
    class Lock { }
    class Obj { field v: int; }
    global ga: Lock;
    global gb: Lock;
    global g: int;
)" + Thread("T1", "la", "lb", Writes) +
         Thread("T2", "lb", "la", Reads) + R"(
    func main() {
      var a: Lock;
      var b: Lock;
      var t1: T1;
      var t2: T2;
      a = new Lock;
      b = new Lock;
      @ga = a;
      @gb = b;
      t1 = new T1;
      t2 = new T2;
      spawn t1.run();
      spawn t2.run();
    }
)";
}

TEST(DriverTest, FileSinkMatchesStringSink) {
  std::vector<JobSpec> Specs = {
      sourceSpec("locked \"racy\"\tmodule", lockedRacyProgram(36)),
      sourceSpec("racy", RacyProgram),
      sourceSpec("broken\n", "class {"),
  };
  BatchOptions Opts;
  Opts.Analyses = AnalysisSet::all();
  BatchResult R = runBatch(Specs, Opts);
  std::string Expected = renderJSONL(R);
  ASSERT_GT(Expected.size(), 2 * FileOutputStream::BufferSize)
      << "the report must cross the sink's buffer several times";
  for (const char *Section : {"\"deadlocks\":[{", "\"oversync\":[{",
                              "\"racerd\":[{", "\"races\":[{"})
    EXPECT_NE(Expected.find(Section), std::string::npos) << Section;

  std::FILE *F = std::tmpfile();
  ASSERT_TRUE(F);
  FileOutputStream OS(F);
  printJSONL(R, OS);
  // printJSONL flushes: the whole report is in the FILE while the
  // stream is still alive.
  std::fflush(F);
  EXPECT_EQ(std::ftell(F), long(Expected.size()));
  std::rewind(F);
  std::string Actual(Expected.size() + 1, '\0');
  Actual.resize(std::fread(Actual.data(), 1, Actual.size(), F));
  std::fclose(F);
  EXPECT_EQ(Actual, Expected);
}

TEST(DriverTest, ParseUnsignedTakesWholeInRangeDecimals) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("10", 10, V));
  EXPECT_EQ(V, 10u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  V = 7;
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "abc", "10x", "0x10",
                          "11", "18446744073709551616"})
    EXPECT_FALSE(parseUnsigned(Bad, 10, V)) << "'" << Bad << "'";
  EXPECT_FALSE(parseUnsigned("18446744073709551616", UINT64_MAX, V));
  EXPECT_EQ(V, 7u) << "a rejected value leaves the output alone";
}

TEST(DriverTest, NumericFlagsRejectMalformedValues) {
  // A clean input: a flag value that slipped through would run the
  // batch and exit 0 instead of failing with a usage error.
  std::string Dir = freshCacheDir("numeric-flags");
  std::filesystem::create_directories(Dir);
  std::string Input = Dir + "/clean.oir";
  std::ofstream(Input) << CleanProgram;

  for (const char *Flag :
       {"--jobs=", "--deadline-ms=", "--mem-limit-mb=", "--kill-after-ms=",
        "--retries=", "--retry-backoff-ms=", "--k=", "--race-jobs="})
    for (const char *Bad : {"-1", "abc", "10x", ""}) {
      std::string Arg = std::string(Flag) + Bad;
      testing::internal::CaptureStderr();
      int Exit = runBatchCommand({Arg, "--quiet", Input});
      std::string Err = testing::internal::GetCapturedStderr();
      EXPECT_EQ(Exit, ExitError) << Arg;
      EXPECT_NE(Err.find("invalid value"), std::string::npos)
          << Arg << ": " << Err;
    }

  // Out of range for a thread count, and past 64 bits.
  testing::internal::CaptureStderr();
  EXPECT_EQ(runBatchCommand(
                {"--jobs=" + std::to_string(MaxThreadsFlag + 1), Input}),
            ExitError);
  EXPECT_EQ(runBatchCommand({"--deadline-ms=18446744073709551616", Input}),
            ExitError);
  testing::internal::GetCapturedStderr();

  // Well-formed values still run.
  std::string Out = Dir + "/report.jsonl";
  testing::internal::CaptureStderr();
  EXPECT_EQ(runBatchCommand({"--jobs=2", "--k=1", "--deadline-ms=60000",
                             "--quiet", "--out=" + Out, Input}),
            ExitClean);
  testing::internal::GetCapturedStderr();
}

TEST(DriverTest, ConfigFlagsAcceptEveryContextSpelling) {
  // o2batch and o2cli share this parser, so a spelling one binary takes
  // the other takes too.
  const struct {
    const char *Spelling;
    ContextKind Kind;
  } Cases[] = {
      {"0-ctx", ContextKind::Insensitive},
      {"insensitive", ContextKind::Insensitive},
      {"cfa", ContextKind::KCallsite},
      {"k-cfa", ContextKind::KCallsite},
      {"obj", ContextKind::KObject},
      {"k-obj", ContextKind::KObject},
      {"origin", ContextKind::Origin},
  };
  for (const auto &C : Cases) {
    O2Config Config;
    Config.PTA.Kind = C.Kind == ContextKind::Origin ? ContextKind::Insensitive
                                                    : ContextKind::Origin;
    AnalysisSet Analyses = AnalysisSet::defaultSet();
    EXPECT_EQ(parseConfigFlag(std::string("--ctx=") + C.Spelling, "t: ",
                              Config, Analyses),
              FlagStatus::Parsed)
        << C.Spelling;
    EXPECT_EQ(Config.PTA.Kind, C.Kind) << C.Spelling;
  }

  O2Config Config;
  AnalysisSet Analyses = AnalysisSet::defaultSet();
  testing::internal::CaptureStderr();
  EXPECT_EQ(parseConfigFlag("--ctx=2-cfa", "t: ", Config, Analyses),
            FlagStatus::Invalid);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "t: unknown context kind '2-cfa'\n");
  EXPECT_EQ(Config.PTA.Kind, ContextKind::Origin);

  // The other shared flags, and one that is not shared.
  EXPECT_EQ(parseConfigFlag("--k=3", "t: ", Config, Analyses),
            FlagStatus::Parsed);
  EXPECT_EQ(Config.PTA.K, 3u);
  EXPECT_EQ(parseConfigFlag("--solver=worklist", "t: ", Config, Analyses),
            FlagStatus::Parsed);
  EXPECT_EQ(Config.PTA.Solver, SolverKind::Worklist);
  EXPECT_EQ(parseConfigFlag("--race-jobs=2", "t: ", Config, Analyses),
            FlagStatus::Parsed);
  EXPECT_EQ(Config.Detector.Jobs, 2u);
  EXPECT_EQ(parseConfigFlag("--analyses=racerd", "t: ", Config, Analyses),
            FlagStatus::Parsed);
  EXPECT_TRUE(Analyses.contains(O2Phase::RacerD));
  EXPECT_FALSE(Analyses.contains(O2Phase::Detect));
  EXPECT_EQ(parseConfigFlag("--jobs=2", "t: ", Config, Analyses),
            FlagStatus::NotConfig);

  // Through the batch command: every spelling runs the batch.
  std::string Dir = freshCacheDir("ctx-spellings");
  std::filesystem::create_directories(Dir);
  std::string Input = Dir + "/clean.oir";
  std::ofstream(Input) << CleanProgram;
  for (const auto &C : Cases)
    EXPECT_NE(runBatchCommand({std::string("--ctx=") + C.Spelling, "--quiet",
                               "--out=" + Dir + "/report.jsonl", Input}),
              ExitError)
        << C.Spelling;
}

TEST(DriverTest, ReportWriteFailureIsAnError) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "needs /dev/full";
  std::string Dir = freshCacheDir("write-failure");
  std::filesystem::create_directories(Dir);
  std::string Input = Dir + "/racy.oir";
  std::ofstream(Input) << RacyProgram;
  testing::internal::CaptureStderr();
  EXPECT_EQ(runBatchCommand({"--quiet", "--out=/dev/full", Input}),
            ExitError);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot write"),
            std::string::npos);
}

TEST(DriverTest, LoadBaselineHandlesEscapesAndJunk) {
  Baseline B = loadBaseline(
      "not json at all\n"
      "{\"module\":\"with \\\"quotes\\\"\",\"races\":[{\"fingerprint\":"
      "\"00ff00ff00ff00ff\"}]}\n"
      "{\"aggregate\":true,\"summary\":{}}\n");
  ASSERT_EQ(B.size(), 1u);
  ASSERT_EQ(B.count("with \"quotes\""), 1u);
  EXPECT_TRUE(B["with \"quotes\""].count("00ff00ff00ff00ff"));
}

} // namespace
