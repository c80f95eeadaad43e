//===- OutputStream.cpp - Lightweight output streams ---------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/OutputStream.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace o2;

OutputStream::~OutputStream() = default;

OutputStream &OutputStream::operator<<(uint64_t N) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRIu64, N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

OutputStream &OutputStream::operator<<(int64_t N) {
  char Buf[24];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRId64, N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

OutputStream &OutputStream::operator<<(double D) {
  char Buf[40];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

OutputStream &OutputStream::indent(unsigned NumSpaces) {
  static const char Spaces[] = "                                ";
  while (NumSpaces > 0) {
    unsigned Chunk = NumSpaces < 32 ? NumSpaces : 32;
    write(Spaces, Chunk);
    NumSpaces -= Chunk;
  }
  return *this;
}

void FileOutputStream::write(const char *Data, size_t Size) {
  if (Size > BufferSize - Used) {
    flush();
    if (Size > BufferSize) {
      std::fwrite(Data, 1, Size, File);
      return;
    }
  }
  if (Size)
    std::memcpy(Buf.get() + Used, Data, Size);
  Used += Size;
}

void FileOutputStream::flush() {
  if (Used)
    std::fwrite(Buf.get(), 1, Used, File);
  Used = 0;
}

namespace {

/// outs()/errs(): every write goes straight to stdio, so output from
/// several threads or interleaved with diagnostics is never held back.
class StdioStream : public OutputStream {
public:
  explicit StdioStream(std::FILE *File) : File(File) {}

  void write(const char *Data, size_t Size) override {
    std::fwrite(Data, 1, Size, File);
  }

private:
  std::FILE *File;
};

} // namespace

namespace o2 {

OutputStream &outs() {
  static StdioStream Stream(stdout);
  return Stream;
}

OutputStream &errs() {
  static StdioStream Stream(stderr);
  return Stream;
}

} // namespace o2
