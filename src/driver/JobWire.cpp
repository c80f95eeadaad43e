//===- JobWire.cpp - JobResult wire serialization -------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "JobWire.h"

#include <charconv>
#include <cstdio>

using namespace o2;

namespace {

class FieldWriter {
public:
  void put(std::string_view S) {
    Out += std::to_string(S.size());
    Out += ':';
    Out += S;
    Out += ',';
  }
  void putU64(uint64_t V) { put(std::to_string(V)); }
  void putDouble(double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    put(Buf);
  }
  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

class FieldReader {
public:
  explicit FieldReader(std::string_view Data) : Data(Data) {}

  /// The next field's bytes, as a view into the payload.
  bool get(std::string_view &Out) {
    size_t Colon = Data.find(':', Pos);
    if (Colon == std::string_view::npos || Colon == Pos ||
        Colon - Pos > 19)
      return fail();
    uint64_t Len = 0;
    for (size_t I = Pos; I < Colon; ++I) {
      if (Data[I] < '0' || Data[I] > '9')
        return fail();
      Len = Len * 10 + uint64_t(Data[I] - '0');
    }
    size_t Start = Colon + 1;
    // Overflow-safe: Len may be a corrupt 19-digit value.
    if (Start >= Data.size() || Len >= Data.size() - Start ||
        Data[Start + Len] != ',')
      return fail();
    Out = Data.substr(Start, Len);
    Pos = Start + Len + 1;
    return true;
  }

  bool get(std::string &Out) {
    std::string_view V;
    if (!get(V))
      return false;
    Out.assign(V);
    return true;
  }

  /// A whole field holding one decimal number (std::from_chars rules).
  template <typename T> bool getNumber(T &V) {
    std::string_view S;
    if (!get(S) || S.empty())
      return fail();
    auto [Ptr, EC] = std::from_chars(S.data(), S.data() + S.size(), V);
    return (EC == std::errc() && Ptr == S.data() + S.size()) || fail();
  }

  /// A list length: no more elements than the bytes left could hold
  /// (each takes at least one "0:," field), so a corrupt length never
  /// turns into a large allocation.
  bool getCount(uint64_t &N) {
    return (getNumber(N) && N <= (Data.size() - Pos) / 3) || fail();
  }

  bool ok() const { return Ok; }
  bool atEnd() const { return Pos == Data.size(); }

private:
  bool fail() {
    Ok = false;
    return false;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Ok = true;
};

const JobStatus AllStatuses[] = {
    JobStatus::Clean,       JobStatus::Races,         JobStatus::Timeout,
    JobStatus::ParseError,  JobStatus::VerifyError,   JobStatus::InternalError,
    JobStatus::Crashed,     JobStatus::OOM,
};

} // namespace

std::string wire::serializeJobResult(const JobResult &R) {
  FieldWriter W;
  W.put(jobStatusName(R.Status));
  W.put(R.Phase);
  W.put(R.Error);
  W.put(R.Signal);
  W.putU64(R.Degraded ? 1 : 0);
  W.putU64(R.DegradedConfigFP);
  W.putU64(R.Retries);
  W.putU64(uint64_t(R.Cache));
  for (double Ms : R.PhaseMs)
    W.putDouble(Ms);

  const auto &Counters = R.Stats.counters();
  W.putU64(Counters.size());
  for (const auto &[Name, Value] : Counters) {
    W.put(Name);
    W.putU64(Value);
  }

  W.putU64(R.RaceTexts.size());
  for (const RaceText &T : R.RaceTexts) {
    W.put(T.Fingerprint);
    W.put(T.Location);
    W.put(T.Json);
    W.putU64(T.DiffAt);
  }
  // One field for all races: each race's text index, 4 bytes little-endian.
  std::string Indices;
  Indices.reserve(4 * R.Races.size());
  for (const RaceRecord &Rc : R.Races)
    for (unsigned Shift = 0; Shift < 32; Shift += 8)
      Indices += char(Rc.Text >> Shift);
  W.put(Indices);

  W.putU64(R.Deadlocks.size());
  for (const DeadlockRecord &D : R.Deadlocks) {
    W.put(D.Locks);
    W.putU64(D.Witnesses.size());
    for (const std::string &Wit : D.Witnesses)
      W.put(Wit);
  }

  W.putU64(R.OverSyncs.size());
  for (const OverSyncRecord &O : R.OverSyncs) {
    W.put(O.Stmt);
    W.put(O.Function);
    W.putU64(O.Thread);
    W.putU64(O.NumAccesses);
  }

  W.putU64(R.RacerDWarnings.size());
  for (const RacerDRecord &Rw : R.RacerDWarnings) {
    W.put(Rw.Kind);
    W.put(Rw.Location);
    W.put(Rw.First);
    W.put(Rw.Second);
  }
  return W.take();
}

bool wire::deserializeJobResult(std::string_view Payload, JobResult &R) {
  FieldReader Rd(Payload);

  std::string Status;
  if (!Rd.get(Status))
    return false;
  bool Known = false;
  for (JobStatus S : AllStatuses)
    if (Status == jobStatusName(S)) {
      R.Status = S;
      Known = true;
    }
  if (!Known)
    return false;

  uint64_t Degraded = 0, DegradedFP = 0, Retries = 0, Cache = 0;
  if (!Rd.get(R.Phase) || !Rd.get(R.Error) || !Rd.get(R.Signal) ||
      !Rd.getNumber(Degraded) || !Rd.getNumber(DegradedFP) ||
      !Rd.getNumber(Retries) || !Rd.getNumber(Cache) || Cache > 2)
    return false;
  R.Degraded = Degraded != 0;
  R.DegradedConfigFP = DegradedFP;
  R.Retries = unsigned(Retries);
  R.Cache = JobResult::CacheOutcome(Cache);

  for (double &Ms : R.PhaseMs)
    if (!Rd.getNumber(Ms))
      return false;

  uint64_t N = 0;
  if (!Rd.getCount(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    std::string Name;
    uint64_t Value = 0;
    if (!Rd.get(Name) || !Rd.getNumber(Value))
      return false;
    R.Stats.set(Name, Value);
  }

  if (!Rd.getCount(N))
    return false;
  R.RaceTexts.resize(N);
  for (RaceText &T : R.RaceTexts)
    if (!Rd.get(T.Fingerprint) || !Rd.get(T.Location) || !Rd.get(T.Json) ||
        !Rd.getNumber(T.DiffAt) || T.DiffAt >= T.Json.size())
      return false;
  std::string_view Indices;
  if (!Rd.get(Indices) || Indices.size() % 4)
    return false;
  R.Races.resize(Indices.size() / 4);
  for (size_t I = 0; I < R.Races.size(); ++I) {
    uint32_t Text = 0;
    for (unsigned B = 0; B < 4; ++B)
      Text |= uint32_t(uint8_t(Indices[4 * I + B])) << (8 * B);
    if (Text >= R.RaceTexts.size())
      return false;
    R.Races[I].Text = Text;
  }

  if (!Rd.getCount(N))
    return false;
  R.Deadlocks.resize(N);
  for (DeadlockRecord &D : R.Deadlocks) {
    uint64_t NumWit = 0;
    if (!Rd.get(D.Locks) || !Rd.getCount(NumWit))
      return false;
    D.Witnesses.resize(NumWit);
    for (std::string &Wit : D.Witnesses)
      if (!Rd.get(Wit))
        return false;
  }

  if (!Rd.getCount(N))
    return false;
  R.OverSyncs.resize(N);
  for (OverSyncRecord &O : R.OverSyncs)
    if (!Rd.get(O.Stmt) || !Rd.get(O.Function) ||
        !Rd.getNumber(O.Thread) || !Rd.getNumber(O.NumAccesses))
      return false;

  if (!Rd.getCount(N))
    return false;
  R.RacerDWarnings.resize(N);
  for (RacerDRecord &Rw : R.RacerDWarnings)
    if (!Rd.get(Rw.Kind) || !Rd.get(Rw.Location) || !Rd.get(Rw.First) ||
        !Rd.get(Rw.Second))
      return false;

  return Rd.ok() && Rd.atEnd();
}
