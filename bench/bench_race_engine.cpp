//===- bench_race_engine.cpp - race-engine scaling ------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Measures the sharded, class-based race engine on race-heavy generated
// workloads, and ablates its lockset index:
//
//   - engine/parallel/J   : the engine at J worker threads — J=1 measures
//                           the pure class-math win, higher J the
//                           sharding scalability;
//   - engine/no-matrix/J  : the engine with the precomputed lockset
//                           matrix disabled (shard-local memo caches
//                           instead).
//
// Every line reports the race count and the schedule-independent work
// counters, so a report divergence between configurations is visible
// directly in the table (the counters must match across all of them; the
// exact contract against the pairwise scan is enforced by
// ParallelRaceEngineTest, and across worker counts by CI). The pairwise
// scan itself, with each Section 4.1 optimization switched off, is
// timed by bench_ablation_opts.
// Pass --benchmark_format=json for machine-readable output.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

using namespace o2;
using namespace o2bench;

/// A race-heavy workload with enough shared locations for sharding to
/// bite: many threads and handlers hammering a mix of racy, locked, and
/// read-only objects. The largest profile the equivalence tests skip.
static WorkloadProfile engineProfile(unsigned Scale) {
  WorkloadProfile P;
  P.Name = "engine-x" + std::to_string(Scale);
  P.NumThreads = 8 * Scale;
  P.NumEventHandlers = 4 * Scale;
  P.CallDepth = 3;
  P.RacyObjects = 6 * Scale;
  P.LockedObjects = 6 * Scale;
  P.ReadOnlyObjects = 8;
  P.NumLocks = 8;
  P.ProtectedWritesPerOrigin = 6;
  P.UnprotectedWritesPerOrigin = 4;
  P.ReadsPerOrigin = 10;
  P.Seed = 4242;
  return P;
}

namespace {

struct Prepared {
  std::unique_ptr<Module> M;
  std::unique_ptr<PTAResult> PTA;
  SHBGraph SHB;
};

const Prepared &prepared(unsigned Scale) {
  // One analysis per scale, shared by every registered configuration so
  // the benchmark times only the detector.
  static std::map<unsigned, Prepared> Cache;
  auto It = Cache.find(Scale);
  if (It == Cache.end()) {
    Prepared P;
    P.M = generateWorkload(engineProfile(Scale));
    PTAOptions PTAOpts;
    PTAOpts.Kind = ContextKind::Origin;
    P.PTA = runPointerAnalysis(*P.M, PTAOpts);
    P.SHB = buildSHBGraph(*P.PTA);
    It = Cache.emplace(Scale, std::move(P)).first;
  }
  return It->second;
}

} // namespace

static void BM_Engine(benchmark::State &State, unsigned Scale,
                      RaceDetectorOptions Opts) {
  const Prepared &P = prepared(Scale);
  for (auto _ : State) {
    RaceReport R = detectRaces(*P.PTA, P.SHB, Opts);
    State.counters["races"] = R.numRaces();
    State.counters["pairs"] =
        static_cast<double>(R.stats().get("race.pairs-checked"));
    State.counters["hb_queries"] =
        static_cast<double>(R.stats().get("race.hb-queries"));
    State.counters["locations"] =
        static_cast<double>(R.stats().get("race.shared-locations"));
    benchmark::DoNotOptimize(R);
  }
}

int main(int Argc, char **Argv) {
  auto Register = [](const std::string &Name, unsigned Scale,
                     RaceDetectorOptions Opts) {
    benchmark::RegisterBenchmark(Name.c_str(), BM_Engine, Scale, Opts)
        ->Unit(benchmark::kMillisecond);
  };

  for (unsigned Scale : {1u, 4u}) {
    std::string Tag = "/x" + std::to_string(Scale);

    for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
      RaceDetectorOptions Opts;
      Opts.Jobs = Jobs;
      Opts.MinParallelLocations = 1;
      Register("engine/parallel/" + std::to_string(Jobs) + Tag, Scale, Opts);
    }

    RaceDetectorOptions NoMatrix;
    NoMatrix.Jobs = 4;
    NoMatrix.MinParallelLocations = 1;
    NoMatrix.LocksetMatrixMaxSize = 0;
    Register("engine/no-matrix/4" + Tag, Scale, NoMatrix);
  }

  return runBenchmarks(
      Argc, Argv,
      "Race-engine scaling: the sharded class-based engine at 1/2/4/8 "
      "jobs (counters must agree across every row)");
}
