//===- OutputStreamTest.cpp - OutputStream unit tests ------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/OutputStream.h"

#include <cstdio>
#include <gtest/gtest.h>
#include <string>

using o2::FileOutputStream;
using o2::StringOutputStream;

namespace {

constexpr size_t BufferSize = FileOutputStream::BufferSize;

/// Bytes that have reached \p F so far (FileOutputStream buffers are
/// not counted until they are flushed).
long bytesInFile(std::FILE *F) {
  std::fflush(F);
  return std::ftell(F);
}

std::string fileContents(std::FILE *F) {
  std::fflush(F);
  std::rewind(F);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

/// A tmpfile closed when the test ends.
struct TmpFile {
  std::FILE *F = std::tmpfile();
  TmpFile() = default;
  TmpFile(const TmpFile &) = delete;
  TmpFile &operator=(const TmpFile &) = delete;
  ~TmpFile() {
    if (F)
      std::fclose(F);
  }
};

TEST(OutputStreamTest, Strings) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << "hello" << ' ' << std::string("world");
  EXPECT_EQ(Buf, "hello world");
}

TEST(OutputStreamTest, Integers) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << 42 << ' ' << -7 << ' ' << uint64_t(1) << ' ' << int64_t(-1);
  EXPECT_EQ(Buf, "42 -7 1 -1");
}

TEST(OutputStreamTest, LargeIntegers) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << uint64_t(18446744073709551615ULL);
  EXPECT_EQ(Buf, "18446744073709551615");
}

TEST(OutputStreamTest, Double) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << 1.5;
  EXPECT_EQ(Buf, "1.5");
}

TEST(OutputStreamTest, Bool) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << true << ' ' << false;
  EXPECT_EQ(Buf, "true false");
}

TEST(OutputStreamTest, Indent) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS.indent(4) << "x";
  EXPECT_EQ(Buf, "    x");
}

TEST(OutputStreamTest, LongIndent) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS.indent(70);
  EXPECT_EQ(Buf.size(), 70u);
}

TEST(OutputStreamTest, FileSmallWritesCrossTheBufferBoundary) {
  TmpFile T;
  ASSERT_TRUE(T.F);
  std::string Expected;
  {
    FileOutputStream OS(T.F);
    // 7-byte writes never land exactly on the boundary.
    while (Expected.size() + 7 <= BufferSize) {
      OS << "abcdef\n";
      Expected += "abcdef\n";
    }
    EXPECT_EQ(bytesInFile(T.F), 0) << "nothing reaches the file early";
    OS << "abcdef\n"; // overflows the buffer: the full part goes out
    Expected += "abcdef\n";
    EXPECT_EQ(bytesInFile(T.F), long(Expected.size() - 7));
    for (int I = 0; I < 3 * int(BufferSize) / 5; ++I) {
      char C = char('a' + I % 26);
      OS << C;
      Expected += C;
    }
  }
  EXPECT_EQ(fileContents(T.F), Expected);
}

TEST(OutputStreamTest, FileWriteLargerThanTheBufferGoesStraightThrough) {
  TmpFile T;
  ASSERT_TRUE(T.F);
  std::string Big(2 * BufferSize + 3, 'x');
  for (size_t I = 0; I < Big.size(); I += 97)
    Big[I] = char('0' + I % 10);
  FileOutputStream OS(T.F);
  OS << "head";
  OS << Big;
  // The pending head is flushed first, then the block bypasses the
  // buffer entirely.
  EXPECT_EQ(bytesInFile(T.F), long(4 + Big.size()));
  OS << "tail";
  OS.flush();
  EXPECT_EQ(fileContents(T.F), "head" + Big + "tail");
}

TEST(OutputStreamTest, FileDestructorFlushes) {
  TmpFile T;
  ASSERT_TRUE(T.F);
  {
    FileOutputStream OS(T.F);
    OS << "pending " << uint64_t(42) << '\n';
    EXPECT_EQ(bytesInFile(T.F), 0);
  }
  EXPECT_EQ(fileContents(T.F), "pending 42\n");
}

TEST(OutputStreamTest, FileFlushKeepsOrderWithRawWrites) {
  TmpFile T;
  ASSERT_TRUE(T.F);
  {
    FileOutputStream OS(T.F);
    OS << "abc";
    OS.flush();
    std::fwrite("XYZ", 1, 3, T.F);
    OS << "def";
    OS.flush();
    OS.flush(); // an empty flush writes nothing
    std::fwrite("!", 1, 1, T.F);
  }
  EXPECT_EQ(fileContents(T.F), "abcXYZdef!");
}

TEST(OutputStreamTest, StringFlushIsANoOp) {
  std::string Buf;
  StringOutputStream OS(Buf);
  OS << "x";
  OS.flush();
  EXPECT_EQ(Buf, "x");
  OS << "y";
  EXPECT_EQ(Buf, "xy") << "string streams never hold bytes back";
}

TEST(OutputStreamTest, OutsErrsExist) {
  // Smoke test: the global streams are constructible and writable.
  o2::outs() << "";
  o2::errs() << "";
}

} // namespace
