// Tests for the report JSON layer: value model, serializer and strict
// parser, including the round-trip guarantees the results schema and the
// determinism tests build on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "capbench/report/json.hpp"

namespace capbench::report {
namespace {

TEST(JsonValue, KindsAndAccessors) {
    EXPECT_TRUE(JsonValue{}.is_null());
    EXPECT_TRUE(JsonValue{true}.as_bool());
    EXPECT_EQ(JsonValue{42}.as_int(), 42);
    EXPECT_EQ(JsonValue{std::uint64_t{7}}.as_int(), 7);
    EXPECT_EQ(JsonValue{2.5}.as_double(), 2.5);
    EXPECT_EQ(JsonValue{7}.as_double(), 7.0);  // integers widen
    EXPECT_EQ(JsonValue{"hi"}.as_string(), "hi");
    EXPECT_THROW((void)JsonValue{1}.as_string(), std::runtime_error);
    EXPECT_THROW((void)JsonValue{"x"}.as_int(), std::runtime_error);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
    JsonValue obj = JsonValue::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    EXPECT_EQ(dump_json(obj, 0), R"({"zebra":1,"apple":2,"mango":3})");
    EXPECT_EQ(obj.at("apple").as_int(), 2);
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_THROW((void)obj.at("missing"), std::runtime_error);
}

TEST(JsonDump, EscapesStrings) {
    JsonValue v{"a\"b\\c\nd\te\x01"};
    // Control characters escape as \uXXXX.
    EXPECT_EQ(dump_json(v, 0), R"("a\"b\\c\nd\te\u0001")");
}

TEST(JsonDump, EscapesInsideLongStringsExactly) {
    // Escapes at the start, in the middle and at the end of runs longer
    // than any small-string buffer, an embedded NUL, and DEL and UTF-8
    // bytes, which pass through.
    const std::string run(40, 'a');
    std::string s = "\"" + run + '\\' + run + std::string(1, '\0') + "\x1f" + run + "\x7f" +
                    "\xc3\xa9" + "\b\f\n\r\t" + run + "\\\"";
    const std::string want = "\"\\\"" + run + "\\\\" + run + "\\u0000\\u001f" + run + "\x7f" +
                             "\xc3\xa9" + "\\b\\f\\n\\r\\t" + run + "\\\\\\\"\"";
    EXPECT_EQ(dump_json(JsonValue{s}, 0), want);
    EXPECT_EQ(parse_json(want).as_string(), s);
    // Keys escape the same way.
    JsonValue obj = JsonValue::object();
    obj.set(run + "\x01\"", 1);
    EXPECT_EQ(dump_json(obj, 0), "{\"" + run + "\\u0001\\\"\":1}");
}

TEST(JsonDump, IntegersAtTheEndsOfInt64) {
    JsonValue a = JsonValue::array();
    a.push_back(std::numeric_limits<std::int64_t>::min());
    a.push_back(std::numeric_limits<std::int64_t>::max());
    a.push_back(std::int64_t{0});
    a.push_back(std::int64_t{-1});
    a.push_back(std::numeric_limits<std::uint64_t>::max());  // stored as int64 -1
    EXPECT_EQ(dump_json(a, 0), "[-9223372036854775808,9223372036854775807,0,-1,-1]");
    EXPECT_EQ(dump_json(a, 2),
              "[\n  -9223372036854775808,\n  9223372036854775807,\n  0,\n  -1,\n  -1\n]");
    EXPECT_EQ(parse_json(dump_json(a, 0)), a);
}

TEST(JsonDump, DoublesWithoutAFractionGainDotZero) {
    const std::pair<double, const char*> cases[] = {
        {0.0, "0.0"},
        {-0.0, "-0.0"},
        {-5.0, "-5.0"},
        {123456789.0, "123456789.0"},
        {9007199254740992.0, "9007199254740992.0"},  // 2^53
        {1e16, "1e+16"},                              // shorter in exponent form
        {1e21, "1e+21"},
        {2.5e-7, "2.5e-07"},
        {0.5, "0.5"},
        {std::numeric_limits<double>::infinity(), "null"},
    };
    for (const auto& [d, want] : cases) EXPECT_EQ(dump_json(JsonValue{d}, 0), want) << d;
}

TEST(JsonDump, DoublesKeepTypeOnReparse) {
    // Doubles always serialize with a '.', 'e' or 'E' so a re-parse
    // yields a double again, never an integer.
    EXPECT_EQ(dump_json(JsonValue{1.0}, 0), "1.0");
    EXPECT_EQ(dump_json(JsonValue{100.0}, 0), "100.0");
    EXPECT_TRUE(parse_json(dump_json(JsonValue{100.0}, 0)).is_double());
    EXPECT_TRUE(parse_json("100").is_int());
}

TEST(JsonRoundTrip, DoublesAreExact) {
    for (const double d : {0.1, 1.0 / 3.0, -3.25, 6.02e23, 1e-300, 95.234567890123456}) {
        const JsonValue parsed = parse_json(dump_json(JsonValue{d}, 0));
        ASSERT_TRUE(parsed.is_double());
        EXPECT_EQ(parsed.as_double(), d);  // bit-exact shortest round trip
    }
}

TEST(JsonRoundTrip, NestedDocument) {
    JsonValue doc = JsonValue::object();
    doc.set("name", "sweep");
    doc.set("ok", true);
    doc.set("missing", nullptr);
    JsonValue points = JsonValue::array();
    for (int i = 0; i < 3; ++i) {
        JsonValue p = JsonValue::object();
        p.set("x", 50.0 * i);
        p.set("n", i);
        points.push_back(std::move(p));
    }
    doc.set("points", std::move(points));
    for (const int indent : {0, 2}) {
        const JsonValue reparsed = parse_json(dump_json(doc, indent));
        EXPECT_EQ(reparsed, doc) << "indent=" << indent;
    }
}

TEST(JsonParse, AcceptsStandardEscapes) {
    const JsonValue v = parse_json(R"("aA\n\t\/é")");
    EXPECT_EQ(v.as_string(), "aA\n\t/\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
    EXPECT_THROW(parse_json(""), std::runtime_error);
    EXPECT_THROW(parse_json("{"), std::runtime_error);
    EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
    EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parse_json("\"bad\\q\""), std::runtime_error);
    EXPECT_THROW(parse_json("truthy"), std::runtime_error);
    EXPECT_THROW(parse_json("-"), std::runtime_error);
    EXPECT_THROW(parse_json("01x"), std::runtime_error);
    EXPECT_THROW(parse_json("\"\x01\""), std::runtime_error);
}

TEST(JsonParse, RejectsDuplicateKeys) {
    EXPECT_THROW(parse_json(R"({"a":1,"a":2})"), std::runtime_error);
}

TEST(JsonParse, RejectsDeepNesting) {
    std::string deep(300, '[');
    deep += "1";
    deep.append(300, ']');
    EXPECT_THROW(parse_json(deep), std::runtime_error);
}

TEST(JsonParse, IntegerOverflowBecomesDouble) {
    const JsonValue v = parse_json("123456789012345678901234567890");
    ASSERT_TRUE(v.is_double());
    EXPECT_GT(v.as_double(), 1e29);
}

}  // namespace
}  // namespace capbench::report
