//===- JobSteps.h - The two steps of one batch job ---------------*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every batch job is two steps. The lookup step reads the module's input,
/// computes the cache key and looks it up; the analyze step parses,
/// verifies, runs the requested analyses, renders the records and stores
/// a settled result under the lookup step's key. runOneJob runs both in
/// the calling thread. runOneJobIsolated runs the lookup step in the
/// batch driver's own process, so a warm hit costs a file read and no
/// fork, and forks a worker for the analyze step only on a miss; the
/// worker inherits the step's input and does not look the entry up again.
///
/// Callers hold the job's FaultInjector::JobScope around both steps.
///
/// Internal to o2Driver — not installed under include/.
///
//===----------------------------------------------------------------------===//

#ifndef O2_DRIVER_JOBSTEPS_H
#define O2_DRIVER_JOBSTEPS_H

#include "o2/Driver/Driver.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace o2 {
namespace job {

/// What the lookup step hands the analyze step.
struct Input {
  std::string Source;        ///< File and in-memory jobs: the OIR text.
  std::unique_ptr<Module> M; ///< Generated workloads, when the key needed
                             ///< the module; the analyze step builds it
                             ///< otherwise.
  bool HaveKey = false;      ///< A cache directory is set: store under
  uint64_t ContentHash = 0;  ///< (ContentHash, ConfigFP).
  uint64_t ConfigFP = 0;
};

/// The lookup step. Fills \p R's name and analyses and returns true when
/// \p R is already the job's result: a cache hit, or an input that cannot
/// be read. Otherwise returns false, with \p R's cache outcome set to Miss
/// when a cache directory is set.
bool lookup(const JobSpec &Spec, const BatchOptions &Opts, Input &In,
            JobResult &R);

/// The analyze step, on a job whose lookup step returned false. Lends
/// \p SharedPool to the race engine unless the configuration names one.
/// A non-null \p Wire receives \p R serialized (JobWire.h); the store
/// writes those same bytes.
void analyze(const JobSpec &Spec, const BatchOptions &Opts, Input &In,
             ThreadPool *SharedPool, JobResult &R,
             std::string *Wire = nullptr);

/// Reads all of \p Path into one allocation of the file's size; \p Ok
/// tells whether it could.
std::string readFileContent(const std::string &Path, bool &Ok);

/// FNV-1a of \p S, continuing from \p H.
uint64_t fnv1a(std::string_view S, uint64_t H = 1469598103934665603ull);

/// \p V as 16 lowercase hex digits.
std::string toHex16(uint64_t V);

} // namespace job
} // namespace o2

#endif // O2_DRIVER_JOBSTEPS_H
