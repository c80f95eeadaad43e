//===- o2trace.cpp - Traced per-layer run of the O2 benchmark ------------===//
//
// Drives a benchmark corpus through the library's public entry points and
// times each call from here, outside the library:
//
//   per module, each step in a fresh forked child (so getrusage
//   high-water rises belong to one module): ResultCache::lookup,
//   parseModule, verifyModule and one AnalysisManager getter per pass in
//   schedule order; then runOneJob and, on a miss, ResultCache::store;
//   then runOneJobIsolated;
//   per fleet: runBatch, then printJSONL into a FILE as o2batch does.
//
// With --spans=0 the same calls run without reading the clock, which
// gives the tracing overhead. Prints one JSON object on stdout.
//
//   o2trace --corpus=DIR --analyses=LIST --jobs=N --spans=0|1
//           --report=FILE [--isolate] [--cache=A,B,C,D] [--chrome=FILE]
//
// The four cache directories must hold identical copies of a primed
// cache: A serves the traced lookup and runOneJob, B the isolated run,
// C runBatch and D the traced store, so that each sees the cache state a
// fleet run sees. runOneJob already stores a miss into A; the traced store
// writes the same entry into D, which does not hold it yet, so it times a
// first store as runOneJob makes it, not a rewrite.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"
#include "o2/Driver/Driver.h"
#include "o2/Driver/ResultCache.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace o2;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t DurNs = 0;
};

/// Spans of one process, kept in memory until the run ends.
struct Tracer {
  bool On = true;
  Clock::time_point T0;
  std::vector<Span> Spans;
};

/// Records one span around its scope when tracing is on.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Name(Name) {
    if (T.On)
      Start = Clock::now();
  }
  ~Scope() {
    if (!T.On)
      return;
    auto End = Clock::now();
    T.Spans.push_back(
        {Name, std::chrono::nanoseconds(Start - T.T0).count(),
         std::chrono::nanoseconds(End - Start).count()});
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  const char *Name;
  Clock::time_point Start;
};

long maxRssKb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss;
}

[[noreturn]] void fail(const std::string &Msg) {
  std::fprintf(stderr, "o2trace: %s\n", Msg.c_str());
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    fail("cannot read '" + Path + "'");
  std::string Content;
  char Buf[64 * 1024];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Content.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    fail("cannot read '" + Path + "'");
  return Content;
}

struct Options {
  std::string Corpus, Report, Chrome;
  std::vector<std::string> Caches; // A, B, C, D; empty when uncached.
  bool Spans = true;
  BatchOptions Batch;
};

/// The passes one request computes, in schedule order, with the getter
/// that computes each and its span name. PTA, SHB and HBIndex are the
/// shared infrastructure every race request depends on.
struct PassCall {
  O2Phase Kind;
  const char *Span;
  const char *Layer;
  void (*Get)(AnalysisManager &);
};

const PassCall Passes[] = {
    {O2Phase::PTA, "getPTA", "pta",
     [](AnalysisManager &AM) { (void)AM.getPTA(); }},
    {O2Phase::OSA, "getSharing", "osa",
     [](AnalysisManager &AM) { (void)AM.getSharing(); }},
    {O2Phase::SHB, "getSHB", "shb",
     [](AnalysisManager &AM) { (void)AM.getSHB(); }},
    {O2Phase::HBIndex, "getHBIndex", "shb",
     [](AnalysisManager &AM) { (void)AM.getHBIndex(); }},
    {O2Phase::Detect, "getRaces", "race",
     [](AnalysisManager &AM) { (void)AM.getRaces(); }},
    {O2Phase::Deadlock, "getDeadlocks", "race",
     [](AnalysisManager &AM) { (void)AM.getDeadlocks(); }},
    {O2Phase::OverSync, "getOverSync", "race",
     [](AnalysisManager &AM) { (void)AM.getOverSync(); }},
    {O2Phase::RacerD, "getRacerD", "race",
     [](AnalysisManager &AM) { (void)AM.getRacerD(); }},
    {O2Phase::Escape, "getEscape", "osa",
     [](AnalysisManager &AM) { (void)AM.getEscape(); }},
};

bool scheduled(O2Phase K, const AnalysisSet &Set) {
  return Set.contains(K) || K == O2Phase::PTA || K == O2Phase::SHB ||
         K == O2Phase::HBIndex;
}

/// The calls into the library for one module, each run in its own forked
/// child so that every call starts from the same lean process (a second
/// analysis in one process would reuse the first one's heap and run
/// faster). A child reports text lines: "S name start dur", "R layer kb",
/// "C counter value", "H hit".
enum class Step { Layers, Job, Isolated };

/// Lookup, parse, verify and one getter per pass, with the high-water
/// rise of each.
void traceLayers(const JobSpec &Spec, const Options &O, Tracer &T,
                 std::ostream &Out) {
  const BatchOptions &B = O.Batch;
  std::string Source;
  {
    Scope S(T, "read");
    Source = readFile(Spec.Path);
  }
  if (!O.Caches.empty()) {
    JobResult Cached;
    bool Hit = false;
    {
      // Computing the key is part of every lookup the batch driver makes.
      Scope S(T, "ResultCache::lookup");
      Hit = ResultCache(O.Caches[0])
                .lookup(ResultCache::contentHash(Source),
                        analysisSetFingerprint(B.Analyses, B.Config), Cached);
    }
    Out << "H " << (Hit ? 1 : 0) << '\n';
    // A hit skips parsing and analysis, as it does in the batch driver.
    if (Hit)
      return;
  }

  std::unique_ptr<Module> M;
  std::string Err;
  long Before = maxRssKb();
  {
    Scope S(T, "parseModule");
    M = parseModule(Source, Err, Spec.Name);
  }
  Out << "R ir " << maxRssKb() - Before << '\n';
  if (!M)
    fail(Spec.Path + ": " + Err);
  {
    Scope S(T, "verifyModule");
    std::vector<std::string> Errors;
    if (!verifyModule(*M, Errors))
      fail(Spec.Path + ": does not verify");
  }
  AnalysisManager AM(*M, B.Config);
  for (const PassCall &P : Passes) {
    if (!scheduled(P.Kind, B.Analyses))
      continue;
    Before = maxRssKb();
    {
      Scope S(T, P.Span);
      P.Get(AM);
    }
    Out << "R " << P.Layer << ' ' << maxRssKb() - Before << '\n';
  }
  StatisticRegistry Stats = AM.stats();
  for (const auto &[Name, Value] : Stats.counters())
    Out << "C " << Name << ' ' << Value << '\n';
}

/// runOneJob in-process (cache A), then the store of a miss into D.
void traceJob(const JobSpec &Spec, const Options &O, Tracer &T) {
  BatchOptions JobOpts = O.Batch;
  JobOpts.Isolate = IsolationMode::InProcess;
  JobOpts.CacheDir = O.Caches.empty() ? "" : O.Caches[0];
  JobResult R;
  {
    Scope S(T, "runOneJob");
    R = runOneJob(Spec, JobOpts);
  }
  if (R.Status != JobStatus::Clean && R.Status != JobStatus::Races)
    fail(Spec.Name + ": job ended " + jobStatusName(R.Status));
  if (!O.Caches.empty() && R.Cache == JobResult::CacheOutcome::Miss) {
    uint64_t Hash = ResultCache::contentHash(readFile(Spec.Path));
    uint64_t FP = analysisSetFingerprint(JobOpts.Analyses, JobOpts.Config);
    Scope S(T, "ResultCache::store");
    ResultCache(O.Caches[3]).store(Hash, FP, R);
  }
}

/// runOneJobIsolated against its own copy of the cache (B).
void traceIsolated(const JobSpec &Spec, const Options &O, Tracer &T) {
  BatchOptions JobOpts = O.Batch;
  JobOpts.CacheDir = O.Caches.empty() ? "" : O.Caches[1];
  Scope S(T, "runOneJobIsolated");
  JobResult R = runOneJobIsolated(Spec, JobOpts);
  if (R.Status != JobStatus::Clean && R.Status != JobStatus::Races)
    fail(Spec.Name + ": isolated job ended " + jobStatusName(R.Status));
}

/// Runs one step in a forked child and returns what it reports.
std::string runStep(Step St, const JobSpec &Spec, const Options &O,
                    const Tracer &Parent) {
  int Fds[2];
  if (pipe(Fds) != 0)
    fail("pipe failed");
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    fail("fork failed");
  if (Pid == 0) {
    close(Fds[0]);
    Tracer T;
    T.On = Parent.On;
    T.T0 = Parent.T0;
    std::ostringstream Out;
    switch (St) {
    case Step::Layers:
      traceLayers(Spec, O, T, Out);
      break;
    case Step::Job:
      traceJob(Spec, O, T);
      break;
    case Step::Isolated:
      traceIsolated(Spec, O, T);
      break;
    }
    for (const Span &Sp : T.Spans)
      Out << "S " << Sp.Name << ' ' << Sp.StartNs << ' ' << Sp.DurNs << '\n';
    std::string Text = Out.str();
    for (size_t Done = 0; Done < Text.size();) {
      ssize_t N = write(Fds[1], Text.data() + Done, Text.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        _exit(3);
      Done += size_t(N);
    }
    close(Fds[1]);
    std::fflush(nullptr);
    _exit(0);
  }
  close(Fds[1]);
  std::string Text;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Text.append(Buf, size_t(N));
  }
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    fail(Spec.Name + ": traced child failed");
  return Text;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + '"';
}

void chromeEvent(std::ostream &OS, bool &First, const std::string &Name,
                 const char *Cat, unsigned Tid, int64_t StartNs,
                 int64_t DurNs, const std::string &Module) {
  OS << (First ? "\n" : ",\n") << "{\"name\":" << jsonString(Name)
     << ",\"cat\":\"" << Cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << Tid
     << ",\"ts\":" << double(StartNs) / 1e3 << ",\"dur\":"
     << double(DurNs) / 1e3 << ",\"args\":{\"module\":" << jsonString(Module)
     << "}}";
  First = false;
}

const char *layerOfSpan(const std::string &Name) {
  for (const PassCall &P : Passes)
    if (Name == P.Span)
      return P.Layer;
  if (Name == "read" || Name == "parseModule" || Name == "verifyModule")
    return "ir";
  return "driver";
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  O.Batch.Analyses = AnalysisSet::defaultSet();
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&A] { return A.substr(A.find('=') + 1); };
    std::string Err;
    if (A.rfind("--corpus=", 0) == 0)
      O.Corpus = Val();
    else if (A.rfind("--report=", 0) == 0)
      O.Report = Val();
    else if (A.rfind("--chrome=", 0) == 0)
      O.Chrome = Val();
    else if (A.rfind("--jobs=", 0) == 0)
      O.Batch.Jobs = unsigned(std::strtoul(Val().c_str(), nullptr, 10));
    else if (A.rfind("--spans=", 0) == 0)
      O.Spans = Val() != "0";
    else if (A == "--isolate")
      O.Batch.Isolate = IsolationMode::Process;
    else if (A.rfind("--analyses=", 0) == 0) {
      if (!parseAnalysisSet(Val(), O.Batch.Analyses, Err))
        fail(Err);
    } else if (A.rfind("--cache=", 0) == 0) {
      std::stringstream SS(Val());
      for (std::string D; std::getline(SS, D, ',');)
        O.Caches.push_back(D);
      if (O.Caches.size() != 4)
        fail("--cache takes four directories");
    } else
      fail("unknown argument '" + A + "'");
  }
  if (O.Corpus.empty() || O.Report.empty() || O.Batch.Jobs == 0)
    fail("--corpus, --report and --jobs are required");
  if (!O.Spans)
    O.Chrome.clear();
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  Tracer T;
  T.On = O.Spans;
  T.T0 = Clock::now();

  std::vector<JobSpec> Specs;
  for (const auto &E : std::filesystem::directory_iterator(O.Corpus))
    if (E.path().extension() == ".oir") {
      JobSpec S;
      S.Name = E.path().stem().string();
      S.Path = E.path().string();
      Specs.push_back(std::move(S));
    }
  std::sort(Specs.begin(), Specs.end(),
            [](const JobSpec &A, const JobSpec &B) { return A.Path < B.Path; });

  std::map<std::string, double> SpanMs, LayerRssKb;
  std::map<std::string, uint64_t> Counters;
  double RecordsMs = 0, ForkMs = 0;
  uint64_t InputBytes = 0, Hits = 0;
  std::ostringstream Chrome;
  bool FirstEvent = true;

  for (unsigned Id = 0; Id < Specs.size(); ++Id) {
    const JobSpec &Spec = Specs[Id];
    InputBytes += std::filesystem::file_size(Spec.Path);
    auto ModStart = Clock::now();
    std::string Text = runStep(Step::Layers, Spec, O, T);
    Text += runStep(Step::Job, Spec, O, T);
    if (O.Batch.Isolate == IsolationMode::Process)
      Text += runStep(Step::Isolated, Spec, O, T);
    // The module's root span: every span of its steps nests inside it.
    if (T.On)
      chromeEvent(Chrome, FirstEvent, "module", "module", Id + 1,
                  std::chrono::nanoseconds(ModStart - T.T0).count(),
                  std::chrono::nanoseconds(Clock::now() - ModStart).count(),
                  Spec.Name);
    std::istringstream In(Text);
    std::map<std::string, double> Mine; // This module's span totals.
    std::map<std::string, double> Rss;
    for (std::string Kind; In >> Kind;) {
      std::string Name;
      In >> Name;
      if (Kind == "S") {
        int64_t Start = 0, Dur = 0;
        In >> Start >> Dur;
        Mine[Name] += double(Dur) / 1e6;
        if (T.On)
          chromeEvent(Chrome, FirstEvent, Name, layerOfSpan(Name), Id + 1,
                      Start, Dur, Spec.Name);
      } else if (Kind == "R") {
        long Kb = 0;
        In >> Kb;
        Rss[Name] += double(Kb);
      } else if (Kind == "C") {
        uint64_t V = 0;
        In >> V;
        Counters[Name] += V;
      } else if (Kind == "H") {
        Hits += Name == "1";
      }
    }
    for (const auto &[Layer, Kb] : Rss)
      LayerRssKb[Layer] = std::max(LayerRssKb[Layer], Kb);
    // runOneJob repeats the lookup, read, parse, verify, passes and store
    // timed above; what is left is the batch driver's own work (records).
    double Children = 0;
    for (const auto &[Name, Ms] : Mine) {
      SpanMs[Name] += Ms;
      if (Name != "runOneJob" && Name != "runOneJobIsolated")
        Children += Ms;
    }
    if (T.On) {
      RecordsMs += Mine["runOneJob"] - Children;
      if (O.Batch.Isolate == IsolationMode::Process)
        ForkMs += Mine["runOneJobIsolated"] - Mine["runOneJob"];
    }
  }

  BatchOptions FleetOpts = O.Batch;
  if (!O.Caches.empty())
    FleetOpts.CacheDir = O.Caches[2];
  BatchResult R;
  {
    Scope S(T, "runBatch");
    R = runBatch(Specs, FleetOpts);
  }
  std::FILE *F = std::fopen(O.Report.c_str(), "wb");
  if (!F)
    fail("cannot write '" + O.Report + "'");
  {
    Scope S(T, "printJSONL");
    FileOutputStream FOS(F);
    printJSONL(R, FOS, false);
    std::fflush(F);
  }
  long JsonlBytes = std::ftell(F);
  std::fclose(F);
  double TotalMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T.T0).count();
  for (const Span &Sp : T.Spans) {
    SpanMs[Sp.Name] += double(Sp.DurNs) / 1e6;
    chromeEvent(Chrome, FirstEvent, Sp.Name, "driver", 0, Sp.StartNs,
                Sp.DurNs, "fleet");
  }

  if (!O.Chrome.empty()) {
    std::ofstream CF(O.Chrome);
    CF << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" << Chrome.str()
       << "\n]}\n";
    if (!CF)
      fail("cannot write '" + O.Chrome + "'");
  }

  std::ostringstream J;
  J.precision(17);
  J << "{\"total_ms\":" << TotalMs << ",\"modules\":" << Specs.size()
    << ",\"input_bytes\":" << InputBytes << ",\"jsonl_bytes\":" << JsonlBytes
    << ",\"cache_hits\":" << Hits << ",\"cache_lookups\":"
    << (O.Caches.empty() ? 0 : Specs.size()) << ",\"records_ms\":"
    << RecordsMs << ",\"fork_ms\":" << ForkMs << ",\"span_ms\":{";
  const char *Sep = "";
  for (const auto &[Name, Ms] : SpanMs) {
    J << Sep << jsonString(Name) << ':' << Ms;
    Sep = ",";
  }
  J << "},\"rss_kb\":{";
  Sep = "";
  for (const auto &[Layer, Kb] : LayerRssKb) {
    J << Sep << jsonString(Layer) << ':' << Kb;
    Sep = ",";
  }
  J << "},\"counters\":{";
  Sep = "";
  for (const auto &[Name, V] : Counters) {
    J << Sep << jsonString(Name) << ':' << V;
    Sep = ",";
  }
  J << "}}\n";
  std::fputs(J.str().c_str(), stdout);
  return 0;
}
