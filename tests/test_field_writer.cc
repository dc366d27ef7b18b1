/**
 * @file
 * Tests for the report field writer (src/common/field_writer.hh): the
 * JSON layouts, the string escaper, the number formats, and the CSV
 * flattening (dotted sections, list-element identities, RFC 4180
 * quoting).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/field_writer.hh"

namespace tb {
namespace {

using Layout = FieldWriter::Layout;

/** A small field list covering every construct the reports use. */
void
writeSample(FieldWriter &w)
{
    w.field("name", "x");
    w.beginObject("inline", Layout::Inline);
    w.field("n", std::size_t{3});
    w.field("ok", true);
    w.beginObject("empty", Layout::Inline);
    w.end();
    w.end();
    w.beginObject("lines", Layout::Lines);
    w.field("pct", 0.968421, NumberFormat::Percent);
    w.end();
    w.beginList("hist", Layout::Inline);
    w.field("0", 5);
    w.field("1", 7);
    w.end();
    w.beginList("rows", Layout::Lines);
    w.beginObject("r1", Layout::Inline);
    w.field("id", "r1");
    w.field("v", 0.5, NumberFormat::Fixed6);
    w.end();
    w.end();
    w.beginList("none", Layout::Lines);
    w.end();
}

template <typename Fields>
std::string
renderJson(const Fields &fields)
{
    FieldWriter w;
    fields(w);
    return w.finish();
}

template <typename Fields>
std::string
renderCsv(const Fields &fields, const std::string &root)
{
    FieldWriter w(root);
    fields(w);
    return w.finish();
}

TEST(FieldWriter, JsonLayouts)
{
    EXPECT_EQ(renderJson(writeSample),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"inline\": {\"n\": 3, \"ok\": true, \"empty\": {}},\n"
              "  \"lines\": {\n"
              "    \"pct\": 96.8421\n"
              "  },\n"
              "  \"hist\": [5, 7],\n"
              "  \"rows\": [\n"
              "    {\"id\": \"r1\", \"v\": 0.500000}\n"
              "  ],\n"
              "  \"none\": []\n"
              "}\n");
}

TEST(FieldWriter, CsvIsTheFlattenedJson)
{
    EXPECT_EQ(renderCsv(writeSample, "root"),
              "section,key,value\n"
              "root,name,x\n"
              "inline,n,3\n"
              "inline,ok,true\n"
              "lines,pct,96.8421\n"
              "hist,0,5\n"
              "hist,1,7\n"
              "rows.r1,id,r1\n"
              "rows.r1,v,0.500000\n");
}

TEST(FieldWriter, CsvQuotesCommasQuotesAndLineBreaks)
{
    const auto fields = [](FieldWriter &w) {
        w.field("k", "a,b");
        w.field("q", "say \"hi\"");
        w.field("nl", "x\ny");
        w.field("cr", "x\ry");
        w.field("plain", "a.b c");
    };
    EXPECT_EQ(renderCsv(fields, "s"), "section,key,value\n"
                          "s,k,\"a,b\"\n"
                          "s,q,\"say \"\"hi\"\"\"\n"
                          "s,nl,\"x\ny\"\n"
                          "s,cr,\"x\ry\"\n"
                          "s,plain,a.b c\n");
}

TEST(FieldWriter, JsonStringEscapesEveryControlByte)
{
    std::string all;
    for (int c = 1; c < 0x20; ++c)
        all += static_cast<char>(c);
    std::string out;
    appendJsonString(out, all + "\"\\/");
    for (char c : out)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << out;
    EXPECT_EQ(out.substr(0, 7), "\"\\u0001");
    EXPECT_NE(out.find("\\u0008"), std::string::npos);
    EXPECT_NE(out.find("\\t\\n\\u000b\\u000c\\u000d"), std::string::npos);
    EXPECT_NE(out.find("\\u001f\\\"\\\\/\""), std::string::npos);
}

TEST(FieldWriter, NumberFormats)
{
    const auto fmt = [](double v, NumberFormat f) {
        std::string s;
        appendNumber(s, v, f);
        return s;
    };
    EXPECT_EQ(fmt(1.0 / 3.0, NumberFormat::General), "0.333333333333");
    EXPECT_EQ(fmt(8.0, NumberFormat::General), "8");
    EXPECT_EQ(fmt(0.5, NumberFormat::Percent), "50.0000");
    EXPECT_EQ(fmt(2.5, NumberFormat::Fixed6), "2.500000");
    EXPECT_EQ(fmt(1000.0, NumberFormat::Fixed3), "1000.000");
    EXPECT_EQ(fmt(7.0, NumberFormat::Short), "7");
    // Fixed-point keeps every digit of the largest double (309 digits).
    EXPECT_EQ(
        fmt(std::numeric_limits<double>::max(), NumberFormat::Fixed6),
        std::to_string(std::numeric_limits<double>::max()));

    const auto ints = [](FieldWriter &w) {
        w.field("max", std::numeric_limits<std::uint64_t>::max());
        w.field("neg", -3);
    };
    EXPECT_EQ(renderCsv(ints, "s"), "section,key,value\n"
                          "s,max,18446744073709551615\n"
                          "s,neg,-3\n");
}

} // namespace
} // namespace tb
