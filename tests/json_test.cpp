// Tests for the JSON writer's string escaping: reports embed campaign and
// tenant names that may carry quotes, control characters, or UTF-8.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace {

using dl::json::Value;

std::string dump_str(const std::string& s) { return Value(s).dump(); }

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(dump_str("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(dump_str("a\\b\\\\c"), "\"a\\\\b\\\\\\\\c\"");
  EXPECT_EQ(dump_str("C:\\temp\\\"x\""), "\"C:\\\\temp\\\\\\\"x\\\"\"");
}

TEST(JsonEscape, NamedControlCharacters) {
  EXPECT_EQ(dump_str("line1\nline2"), "\"line1\\nline2\"");
  EXPECT_EQ(dump_str("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(dump_str("a\tb"), "\"a\\tb\"");
}

TEST(JsonEscape, OtherControlCharactersUseUnicodeEscapes) {
  EXPECT_EQ(dump_str(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(dump_str(std::string("\x1f", 1)), "\"\\u001f\"");
  EXPECT_EQ(dump_str(std::string("a\0b", 3)), "\"a\\u0000b\"");
  // 0x7f DEL is not a JSON control character; passes through.
  EXPECT_EQ(dump_str("\x7f"), "\"\x7f\"");
}

TEST(JsonEscape, Utf8PassesThroughByteIdentical) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\x92";
  EXPECT_EQ(dump_str(utf8), "\"" + utf8 + "\"");
}

TEST(JsonEscape, ObjectKeysAreEscaped) {
  auto obj = Value::object();
  obj["ke\"y\n"] = 1;
  EXPECT_EQ(obj.dump(), "{\"ke\\\"y\\n\":1}");
}

TEST(JsonEscape, EscapedStringsNestInsideDocuments) {
  auto doc = Value::object();
  auto arr = Value::array();
  arr.push_back("tab\there");
  doc["names"] = std::move(arr);
  EXPECT_EQ(doc.dump(), "{\"names\":[\"tab\\there\"]}");
  EXPECT_EQ(doc.dump(2), "{\n  \"names\": [\n    \"tab\\there\"\n  ]\n}");
}

// ------------------------------------------------------------- parser

TEST(JsonParse, RoundTripsDumpOutput) {
  Value doc = Value::object();
  doc["name"] = "matrix/double-sided/none";
  doc["count"] = std::uint64_t{18446744073709551615ull};
  doc["delta"] = std::int64_t{-42};
  doc["ratio"] = 0.25;
  doc["ok"] = true;
  doc["missing"] = Value();
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["items"] = std::move(arr);
  const std::string text = doc.dump();
  const Value parsed = Value::parse(text);
  EXPECT_EQ(parsed.dump(), text);       // byte-identical re-serialization
  EXPECT_EQ(parsed.dump(2), doc.dump(2));
}

TEST(JsonParse, TypedAccessors) {
  const Value v = Value::parse(
      "{\"u\": 7, \"i\": -3, \"d\": 1.5, \"b\": false, \"s\": \"hi\","
      " \"n\": null, \"a\": [10, 20]}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("u").as_u64(), 7u);
  EXPECT_EQ(v.at("u").as_i64(), 7);     // in-range cross-width reads work
  EXPECT_EQ(v.at("i").as_i64(), -3);
  EXPECT_EQ(v.at("d").as_double(), 1.5);
  EXPECT_EQ(v.at("u").as_double(), 7.0);
  EXPECT_FALSE(v.at("b").as_bool());
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_TRUE(v.at("n").is_null());
  ASSERT_TRUE(v.at("a").is_array());
  ASSERT_EQ(v.at("a").size(), 2u);
  EXPECT_EQ(v.at("a").item(1).as_u64(), 20u);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW((void)v.at("absent"), dl::Error);
  EXPECT_THROW((void)v.at("s").as_u64(), dl::Error);  // type mismatch
  EXPECT_THROW((void)v.at("i").as_u64(), dl::Error);  // negative -> u64
}

TEST(JsonParse, StringEscapesDecode) {
  const Value v = Value::parse(
      "\"quote \\\" slash \\\\ tab \\t newline \\n unicode \\u00e9\"");
  EXPECT_EQ(v.as_string(), "quote \" slash \\ tab \t newline \n unicode \xc3\xa9");
}

TEST(JsonParse, MalformedInputThrowsWithOffset) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "\"unterminated", "01", "1 2",
        "{\"a\":1,}", "tru", "\"bad \\x escape\"", "nan"}) {
    EXPECT_THROW((void)Value::parse(bad), dl::Error) << bad;
  }
  try {
    (void)Value::parse("{\"a\": !}");
    FAIL() << "expected dl::Error";
  } catch (const dl::Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonParse, TornJournalLineIsRejected) {
  // The exact failure mode the campaign journal leans on: a line cut by a
  // mid-write kill must throw, never half-parse.
  Value doc = Value::object();
  doc["kind"] = "hammer";
  doc["granted_acts"] = 12345;
  const std::string line = doc.dump();
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    EXPECT_THROW((void)Value::parse(line.substr(0, cut)), dl::Error)
        << "prefix of length " << cut;
  }
  EXPECT_NO_THROW((void)Value::parse(line));
}

TEST(JsonParse, NestingDepthIsCapped) {
  // Deep enough to overflow the stack if each level recursed unchecked.
  for (const char open : {'[', '{'}) {
    std::string deep;
    for (int i = 0; i < 50'000; ++i) deep += open == '[' ? "[" : "{\"a\":";
    EXPECT_THROW((void)Value::parse(deep), dl::Error) << open;
  }
  // A report-shaped document: report -> campaign list -> campaign ->
  // channel list -> channel -> tenant list -> tenant -> latency block.
  const Value report = Value::parse(
      R"({"serve_campaigns":[{"channels":[{"tenants":[{"queue_latency":)"
      R"({"p99_ns":1.5}}]}]}]})");
  EXPECT_EQ(report.at("serve_campaigns")
                .item(0)
                .at("channels")
                .item(0)
                .at("tenants")
                .item(0)
                .at("queue_latency")
                .at("p99_ns")
                .as_double(),
            1.5);
  // Well past any real document, and still under the cap.
  EXPECT_NO_THROW(
      (void)Value::parse(std::string(100, '[') + std::string(100, ']')));
}

}  // namespace
