//===- o2/Driver/Driver.h - Parallel batch-analysis driver --------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-analysis engine behind `o2batch` and `o2cli --batch`: takes a
/// corpus of modules (OIR files, in-memory sources, or generated workload
/// profiles), runs the full O2 pipeline over every module concurrently on
/// a work-stealing thread pool, and emits one structured JSONL record per
/// module plus a fleet aggregate. Each job is fully isolated — its own
/// module, its own statistics registry, its own deadline token — so one
/// malformed or pathological input degrades to a per-job `timeout` /
/// `parse-error` record instead of sinking the fleet.
///
/// Output is deterministic: job records are sorted by module name and
/// wall-clock timings are opt-in, so the same corpus produces
/// byte-identical reports regardless of worker count or interleaving.
/// See docs/DRIVER.md for the job model and the JSONL schema.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_DRIVER_H
#define O2_DRIVER_DRIVER_H

#include "o2/O2.h"
#include "o2/Workload/Generator.h"

#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace o2 {

class OutputStream;
class ThreadPool;

/// Terminal state of one analysis job.
enum class JobStatus : uint8_t {
  Clean,         ///< Pipeline completed, no races.
  Races,         ///< Pipeline completed, races reported.
  Timeout,       ///< Deadline fired; partial statistics, JobResult::Phase
                 ///< names the phase that was cut short.
  ParseError,    ///< Unreadable file or OIR syntax error.
  VerifyError,   ///< Parsed but failed module verification.
  InternalError, ///< The pipeline threw; JobResult::Error has the what().
  Crashed,       ///< The isolated worker died (signal, assert, protocol
                 ///< breakdown); JobResult::Signal names the signal and
                 ///< Phase the last stage the worker reported entering.
  OOM,           ///< Allocation failed (std::bad_alloc in-process, or the
                 ///< --mem-limit-mb address-space cap in a worker).
};

/// Stable lowercase name: "clean", "races", "timeout", "parse-error",
/// "verify-error", "internal-error", "crashed", "oom".
const char *jobStatusName(JobStatus S);

/// Process exit codes shared by o2cli and o2batch.
enum ExitCode : int {
  ExitClean = 0,      ///< Analysis ran, no races.
  ExitRacesFound = 1, ///< Analysis ran, races reported.
  ExitError = 2,      ///< Parse/verify/internal error or timeout.
};

/// Maps a job status onto the shared exit-code convention (Crashed and
/// OOM join the error family: exit 2).
int exitCodeFor(JobStatus S);

/// How the batch driver contains a job's failure modes.
enum class IsolationMode : uint8_t {
  InProcess, ///< Jobs run on the pool threads (fast; a crash is fatal).
  Process,   ///< Each job runs in a forked sandboxed worker: RSS cap via
             ///< setrlimit, SIGTERM→SIGKILL hard-kill escalation, and a
             ///< structured result pipe — a crash becomes a `crashed`
             ///< record instead of taking down the fleet.
};

/// One unit of batch work. Exactly one of Source / Path / Profile
/// provides the module: a non-null Profile wins, else a non-empty Source,
/// else Path is read from disk.
struct JobSpec {
  std::string Name;                         ///< Module/report name.
  std::string Path;                         ///< OIR file to read.
  std::string Source;                       ///< In-memory OIR source.
  const WorkloadProfile *Profile = nullptr; ///< Generated workload.
};

struct BatchOptions {
  /// Pipeline configuration applied to every job. The Cancel field is
  /// ignored — the driver installs a per-job deadline token.
  O2Config Config;

  /// Which analyses every job runs (`--analyses=`); infrastructure
  /// passes are scheduled implicitly. Defaults to the classic pipeline
  /// (OSA + race detection).
  AnalysisSet Analyses = AnalysisSet::defaultSet();

  /// Worker threads; 0 picks the hardware concurrency.
  unsigned Jobs = 0;

  /// Per-job analysis budget in milliseconds; 0 means unlimited. The
  /// deadline covers the analysis phases only (not parsing).
  uint64_t DeadlineMs = 0;

  /// Include wall-clock phase timings in the JSONL records. Off by
  /// default so reports are byte-identical across runs.
  bool IncludeTimings = false;

  /// Warm-cache directory (`--cache-dir=`); empty disables caching. See
  /// o2/Driver/ResultCache.h for the key and robustness contract.
  std::string CacheDir;

  /// Fault containment (`--isolate=`). Process mode forks one sandboxed
  /// worker per job; on platforms without fork it silently degrades to
  /// in-process execution.
  IsolationMode Isolate = IsolationMode::InProcess;

  /// Worker address-space cap in MiB (`--mem-limit-mb=`, process
  /// isolation only); 0 means uncapped. An allocation beyond the cap
  /// fails inside the worker and surfaces as an `oom` record.
  uint64_t MemLimitMB = 0;

  /// Hard wall-clock kill for stuck workers (`--kill-after-ms=`, process
  /// isolation only): SIGTERM at the limit, SIGKILL shortly after. 0
  /// derives a limit from DeadlineMs (2x + 10s) when one is set, else no
  /// hard kill. Unlike the cooperative deadline this works on workers
  /// that stopped polling entirely.
  uint64_t HardKillMs = 0;

  /// Bounded retry for transient failures (`--retries=N`): a job ending
  /// in Crashed / OOM / InternalError is re-attempted up to N extra
  /// times with exponential backoff before its failure is reported.
  unsigned Retries = 0;

  /// First retry backoff in milliseconds (doubles per attempt, capped at
  /// 2s). Only consulted when Retries > 0.
  uint64_t RetryBackoffMs = 50;

  /// Sound graceful degradation (`--degrade`): a job whose final outcome
  /// is Timeout or OOM is re-queued once under a cheaper, still-sound
  /// configuration (context-insensitive PTA — a strict over-
  /// approximation of origin contexts — plus extra race-pair budget
  /// slack). A degraded completion is tagged `degraded:true` with the
  /// fallback config fingerprint in the JSONL and is never cached.
  bool Degrade = false;

  /// Progress hook: called with a stage name ("setup", "parse",
  /// "verify", then each pass name) as the job enters it. Under process
  /// isolation "setup" (the cache lookup) is reported in the calling
  /// process and the later stages in the worker, which streams them to
  /// the parent as `p:<stage>` markers so crash records can name the
  /// phase; tests may use it to observe progress. Not part of any
  /// fingerprint.
  std::function<void(const std::string &)> StageHook;
};

/// What every race at the same location between the same two accesses
/// shares, rendered once per job: a race-dense module reports a few
/// thousand of these on hundreds of thousands of races. The cache, the
/// worker pipe and printJSONL copy these bytes and never render or escape
/// them again.
struct RaceText {
  /// 16 hex digits, FNV-1a over the location's symbolic description and
  /// the two access descriptors (statement text, function, R/W), never
  /// raw statement IDs: stable across reordering of unrelated statements.
  std::string Fingerprint;
  std::string Location; ///< Human-readable location (obj IDs elided).
  /// The report object: `{"fingerprint":…,"location":…,"first":{"stmt":…,
  /// "function":…,"write":…},"second":{…}}`.
  std::string Json;
  /// Offset in Json of the comma before "first", where `,"diff":…` goes
  /// under --baseline.
  size_t DiffAt = 0;
};

/// A race's baseline classification (set by applyBaseline).
enum class RaceDiff : uint8_t { None, New, Unchanged };

/// One reported race: the index of its text in JobResult::RaceTexts.
struct RaceRecord {
  uint32_t Text = 0;
  RaceDiff Diff = RaceDiff::None;
};

/// One potential deadlock cycle (deadlock analysis section).
struct DeadlockRecord {
  std::string Locks; ///< The cycle's lock names, e.g. "lock3,lock7".
  std::vector<std::string> Witnesses; ///< One rendered edge per step.
};

/// One over-synchronized lock region (oversync analysis section).
struct OverSyncRecord {
  std::string Stmt;     ///< Opening acquire ("" if unknown).
  std::string Function; ///< Its function ("" if unknown).
  unsigned Thread = 0;
  unsigned NumAccesses = 0;
};

/// One RacerD-like warning (racerd analysis section).
struct RacerDRecord {
  std::string Kind; ///< "read-write" | "unprotected-write".
  std::string Location;
  std::string First;
  std::string Second; ///< "" for unprotected writes.
};

struct JobResult {
  std::string Name;
  JobStatus Status = JobStatus::Clean;
  std::string Phase;  ///< Phase the deadline fired in (timeout), or the
                      ///< last stage a crashed worker reported entering.
  std::string Error;  ///< Parse/verify/internal/crash diagnostic.
  std::string Signal; ///< Crashed only: "SIGSEGV", "SIGKILL", ...

  /// True when this result came from the degraded-fallback re-run (the
  /// original attempt timed out or OOMed); DegradedConfigFP is the
  /// fallback configuration's analysis-set fingerprint.
  bool Degraded = false;
  uint64_t DegradedConfigFP = 0;

  /// How many extra attempts the retry policy spent before this result.
  unsigned Retries = 0;

  /// Which analyses this job was asked to run; selects the JSONL
  /// sections. Overlaid from the request (never cached).
  AnalysisSet Analyses;

  /// Per-pass wall-clock in milliseconds, indexed by O2Phase, including
  /// the aux analyses and the shared HBIndex build (0 for passes that did
  /// not run, and always 0 at O2Phase::None).
  std::array<double, NumO2Phases> PhaseMs{};

  /// Sum over every pass — aux analyses included, unlike the pre-manager
  /// driver which silently dropped everything but the four core phases.
  double totalMs() const {
    double Sum = 0;
    for (double Ms : PhaseMs)
      Sum += Ms;
    return Sum;
  }

  /// Per-job counters from every ran pass (partial on timeout).
  StatisticRegistry Stats;

  /// Each distinct race text once; Races refer to them by index.
  std::vector<RaceText> RaceTexts;
  std::vector<RaceRecord> Races;
  const RaceText &text(const RaceRecord &Rc) const {
    return RaceTexts[Rc.Text];
  }

  std::vector<DeadlockRecord> Deadlocks;
  std::vector<OverSyncRecord> OverSyncs;
  std::vector<RacerDRecord> RacerDWarnings;

  /// Baseline fingerprints no longer reported (set by applyBaseline).
  std::vector<std::string> FixedRaces;

  /// Warm-cache outcome for this job (never serialized; feeds the
  /// BatchResult counters, deliberately kept out of the JSONL so cold
  /// and warm reports stay byte-identical).
  enum class CacheOutcome : uint8_t { None, Hit, Miss } Cache =
      CacheOutcome::None;
};

struct BatchResult {
  /// Per-job results sorted by name (deterministic across worker
  /// interleavings).
  std::vector<JobResult> Jobs;

  /// Fleet aggregate: per-status job counts ("jobs.*"), total races,
  /// baseline diff counts, plus every per-job counter folded in via
  /// StatisticRegistry::merge.
  StatisticRegistry Summary;

  /// Warm-cache tallies (zero when no --cache-dir). Kept out of Summary
  /// and the JSONL report: cold and warm runs must produce byte-identical
  /// reports, so cache telemetry only appears in the stderr summary.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;

  /// Worst exit code over all jobs: any error/timeout wins over races,
  /// races win over clean.
  int exitCode() const;
};

/// Runs every spec as an isolated job on a work-stealing pool and folds
/// the results into a deterministic BatchResult.
BatchResult runBatch(const std::vector<JobSpec> &Specs,
                     const BatchOptions &Opts = {});

/// Runs a single spec synchronously (what each pool worker executes).
JobResult runOneJob(const JobSpec &Spec, const BatchOptions &Opts = {});

/// Same, but lends \p SharedPool to the job's parallel race engine
/// (unless the configuration already names a pool). The engine's
/// caller-participation scheduling makes this safe from a pool worker:
/// the job never blocks waiting on unrelated pool tasks, so batch-level
/// and race-level parallelism share one set of threads instead of
/// multiplying. Results are unaffected — the race engine is
/// report-deterministic for any pool.
JobResult runOneJob(const JobSpec &Spec, const BatchOptions &Opts,
                    ThreadPool *SharedPool);

/// Runs one spec as runOneJob does, but analyzes it in a forked sandboxed
/// worker (fork + result pipe). The cache is looked up first, in the
/// calling process: a hit is returned without forking. On a miss the
/// child applies the --mem-limit-mb address-space cap, streams stage
/// markers, analyzes and stores the job, and writes the serialized result
/// back; the parent enforces the hard-kill escalation and classifies
/// worker death (signal -> Crashed with signal name + last stage, cap
/// overrun -> OOM, silent exit -> Crashed). On platforms without fork
/// this falls back to runOneJob. Used by runBatch under
/// IsolationMode::Process; exposed for tests.
JobResult runOneJobIsolated(const JobSpec &Spec, const BatchOptions &Opts);

/// The full containment policy around one job: isolated or in-process
/// execution per Opts.Isolate, bounded retry-with-backoff for Crashed /
/// OOM / InternalError outcomes, then the sound degraded-mode fallback
/// for Timeout / OOM (one re-run, context-insensitive PTA, tagged
/// degraded + never cached). This is what each runBatch pool worker
/// executes.
JobResult runJobContained(const JobSpec &Spec, const BatchOptions &Opts,
                          ThreadPool *SharedPool = nullptr);

/// Baseline for diff mode: module name -> race fingerprints, recovered
/// from a previous JSONL report.
using Baseline = std::map<std::string, std::set<std::string>>;

/// Extracts the baseline from a prior report's content. Tolerant: it
/// scans for "module" / "fingerprint" string values per line, so reports
/// with or without timings both load.
Baseline loadBaseline(const std::string &JSONLContent);

/// Classifies every race in \p R against \p B (RaceDiff::New or
/// Unchanged), records baseline fingerprints that disappeared as fixed,
/// and adds the diff.* counters to the summary.
void applyBaseline(BatchResult &R, const Baseline &B);

/// Writes the report: one JSON object per job, then one aggregate record.
/// Ends with OS.flush(), so the whole report has reached the stream's
/// sink when this returns.
void printJSONL(const BatchResult &R, OutputStream &OS,
                bool IncludeTimings = false);

/// Writes a short human-readable fleet summary.
void printBatchSummary(const BatchResult &R, OutputStream &OS);

/// Parses all of \p Text as a decimal unsigned integer no greater than
/// \p Max into \p Out. Fails, leaving \p Out alone, on an empty string,
/// a sign, whitespace, any other non-digit, or a value out of range.
/// Every numeric command-line flag goes through this.
bool parseUnsigned(std::string_view Text, uint64_t Max, uint64_t &Out);

/// Largest value a thread-count flag (--jobs, --race-jobs) accepts.
constexpr uint64_t MaxThreadsFlag = 4096;

/// What parseConfigFlag made of one argument.
enum class FlagStatus : uint8_t {
  NotConfig, ///< Not one of the shared configuration flags.
  Parsed,    ///< Stored into the configuration or the analysis set.
  Invalid,   ///< A shared flag with a bad value, already diagnosed.
};

/// Parses one of the pipeline configuration flags that `o2batch` and
/// `o2cli` share — `--ctx=`, `--k=`, `--solver=`, `--race-jobs=` and
/// `--analyses=` — into \p Config or \p Analyses. `--ctx=` takes 0-ctx
/// or insensitive, cfa or k-cfa, obj or k-obj, and origin. A bad value is
/// reported on errs() as a line starting with \p Prefix, so each binary
/// keeps its own diagnostic prefix.
FlagStatus parseConfigFlag(const std::string &Arg, const char *Prefix,
                           O2Config &Config, AnalysisSet &Analyses);

/// The shared CLI behind `o2batch ...` and `o2cli --batch ...`: parses
/// \p Args (flags plus positional .oir files / directories), runs the
/// batch, writes the JSONL report and summary. Returns the process exit
/// code (aggregate ExitCode, or ExitError on bad usage).
int runBatchCommand(const std::vector<std::string> &Args);

} // namespace o2

#endif // O2_DRIVER_DRIVER_H
