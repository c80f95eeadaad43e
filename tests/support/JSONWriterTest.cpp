//===- JSONWriterTest.cpp - JSONWriter unit tests -----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Support/JSONWriter.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace o2;

namespace {

std::string render(void (*Fn)(JSONWriter &)) {
  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  Fn(W);
  return Buf;
}

TEST(JSONWriterTest, EmptyObjectAndArray) {
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginObject();
              W.endObject();
            }),
            "{}");
  EXPECT_EQ(render([](JSONWriter &W) {
              W.beginArray();
              W.endArray();
            }),
            "[]");
}

TEST(JSONWriterTest, ObjectAttributes) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("name", "o2");
    W.attribute("races", 42u);
    W.attribute("sound", true);
    W.endObject();
  });
  EXPECT_EQ(Out, R"({"name":"o2","races":42,"sound":true})");
}

TEST(JSONWriterTest, NestedStructures) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.key("list");
    W.beginArray();
    W.value(1);
    W.value(2);
    W.beginObject();
    W.attribute("k", "v");
    W.endObject();
    W.endArray();
    W.endObject();
  });
  EXPECT_EQ(Out, R"({"list":[1,2,{"k":"v"}]})");
}

TEST(JSONWriterTest, StringEscaping) {
  std::string Out = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("s", "a\"b\\c\nd\te");
    W.endObject();
  });
  EXPECT_EQ(Out, "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JSONWriterTest, ControlCharacterEscaping) {
  std::string Out = render([](JSONWriter &W) {
    W.beginArray();
    W.value(std::string_view("\x01", 1));
    W.endArray();
  });
  EXPECT_EQ(Out, "[\"\\u0001\"]");
}

std::string renderString(std::string_view S) {
  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  W.value(S);
  return Buf;
}

TEST(JSONWriterTest, EscapesAtTheEdgesAndAdjacent) {
  EXPECT_EQ(renderString("\"abc\\"), R"("\"abc\\")");
  EXPECT_EQ(renderString("\n\t\"\\\r"), R"("\n\t\"\\\r")");
  EXPECT_EQ(renderString("a\nb\nc"), R"("a\nb\nc")");
  EXPECT_EQ(renderString("\x1f"), R"("\u001f")");
}

TEST(JSONWriterTest, EmptyString) {
  EXPECT_EQ(renderString(""), "\"\"");
  EXPECT_EQ(renderString(std::string_view()), "\"\"");
}

TEST(JSONWriterTest, EmbeddedNul) {
  EXPECT_EQ(renderString(std::string_view("a\0b", 3)), R"("a\u0000b")");
  EXPECT_EQ(renderString(std::string_view("\0", 1)), R"("\u0000")");
}

TEST(JSONWriterTest, HighBytesPassThrough) {
  // UTF-8 and stray high bytes are copied as they are; DEL is not a
  // control character in JSON.
  std::string S = "caf\xc3\xa9 \xff\x80\x7f";
  EXPECT_EQ(renderString(S), "\"" + S + "\"");
}

TEST(JSONWriterTest, EveryByteEscapesLikeThePerCharacterRule) {
  // Reference: the one-character-at-a-time escaping rule.
  auto Reference = [](unsigned char C) -> std::string {
    switch (C) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\t':
      return "\\t";
    case '\r':
      return "\\r";
    }
    if (C < 0x20) {
      char Buf[7];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      return Buf;
    }
    return std::string(1, char(C));
  };
  std::string All, Expected = "\"";
  for (unsigned C = 0; C < 256; ++C) {
    All += char(C);
    Expected += Reference(static_cast<unsigned char>(C));
    // Each byte alone, and inside a run of plain text on both sides.
    std::string Mid = "ab" + std::string(1, char(C)) + "cd";
    EXPECT_EQ(renderString(Mid), "\"ab" + Reference(C) + "cd\"") << C;
  }
  Expected += "\"";
  EXPECT_EQ(renderString(All), Expected);
}

TEST(JSONWriterTest, RawValuesJoinTheArrayAsRendered) {
  // A value rendered by one writer, copied into another's array.
  std::string Object = render([](JSONWriter &W) {
    W.beginObject();
    W.attribute("a", "x\"y");
    W.attribute("b", true);
    W.endObject();
  });
  EXPECT_EQ(Object, "{\"a\":\"x\\\"y\",\"b\":true}");

  std::string Buf;
  StringOutputStream OS(Buf);
  JSONWriter W(OS);
  W.beginObject();
  W.key("v");
  W.rawValue(Object); // a member's value: no comma
  W.key("l");
  W.beginArray();
  W.rawValue(Object); // first element: no comma
  W.value(uint64_t(1));
  W.rawValue(Object); // later: one comma
  W.endArray();
  W.endObject();
  EXPECT_EQ(Buf, "{\"v\":" + Object + ",\"l\":[" + Object + ",1," + Object +
                     "]}");
}

TEST(JSONWriterTest, NegativeAndNull) {
  std::string Out = render([](JSONWriter &W) {
    W.beginArray();
    W.value(int64_t(-7));
    W.nullValue();
    W.endArray();
  });
  EXPECT_EQ(Out, "[-7,null]");
}

} // namespace
