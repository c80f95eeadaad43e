//===- o2/Support/OutputStream.h - Lightweight output streams --*- C++ -*-===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal raw_ostream replacement: library code never includes
/// <iostream> (which injects static constructors). outs()/errs() wrap
/// stdout/stderr; StringOutputStream renders into a std::string.
/// FileOutputStream batches small writes in a bounded buffer, so report
/// writers may emit one token per call at the cost of a memcpy;
/// outs()/errs() write through.
///
//===----------------------------------------------------------------------===//

#ifndef O2_SUPPORT_OUTPUTSTREAM_H
#define O2_SUPPORT_OUTPUTSTREAM_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace o2 {

/// Abstract byte sink with formatting operators for the types O2 prints.
class OutputStream {
public:
  virtual ~OutputStream();

  OutputStream &operator<<(std::string_view S) {
    write(S.data(), S.size());
    return *this;
  }

  OutputStream &operator<<(const char *S) {
    return *this << std::string_view(S);
  }

  OutputStream &operator<<(const std::string &S) {
    return *this << std::string_view(S);
  }

  OutputStream &operator<<(char C) {
    write(&C, 1);
    return *this;
  }

  OutputStream &operator<<(uint64_t N);
  OutputStream &operator<<(int64_t N);
  OutputStream &operator<<(uint32_t N) { return *this << uint64_t(N); }
  OutputStream &operator<<(int32_t N) { return *this << int64_t(N); }
  OutputStream &operator<<(double D);
  OutputStream &operator<<(bool B) { return *this << (B ? "true" : "false"); }

  /// Writes \p Size bytes starting at \p Data.
  virtual void write(const char *Data, size_t Size) = 0;

  /// Hands every byte written so far to the underlying sink. Streams
  /// that do not buffer need not override this.
  virtual void flush() {}

  /// Indents by \p NumSpaces spaces.
  OutputStream &indent(unsigned NumSpaces);
};

/// Stream that appends to a caller-owned std::string.
class StringOutputStream : public OutputStream {
public:
  explicit StringOutputStream(std::string &Buffer) : Buffer(Buffer) {}

  void write(const char *Data, size_t Size) override {
    Buffer.append(Data, Size);
  }

  const std::string &str() const { return Buffer; }

private:
  std::string &Buffer;
};

/// Stream over a C FILE*. Does not own the file. Writes are collected
/// in a fixed BufferSize buffer and handed to the FILE when it fills,
/// on flush() and on destruction; a write larger than BufferSize goes
/// straight through. Call flush() before touching the FILE
/// directly (fwrite, fflush, ftell, fclose).
class FileOutputStream : public OutputStream {
public:
  static constexpr size_t BufferSize = 64 * 1024;

  explicit FileOutputStream(std::FILE *File)
      : File(File), Buf(new char[BufferSize]) {}
  ~FileOutputStream() override { flush(); }

  FileOutputStream(const FileOutputStream &) = delete;
  FileOutputStream &operator=(const FileOutputStream &) = delete;

  void write(const char *Data, size_t Size) override;
  void flush() override;

private:
  std::FILE *File;
  std::unique_ptr<char[]> Buf;
  size_t Used = 0;
};

/// Returns a stream for standard output. It keeps no buffer of its own:
/// each write is handed to stdout at once. Wrap stdout in a
/// FileOutputStream to write a large report.
OutputStream &outs();

/// Returns a stream for standard error; each write reaches stderr at once.
OutputStream &errs();

} // namespace o2

#endif // O2_SUPPORT_OUTPUTSTREAM_H
