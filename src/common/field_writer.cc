#include "common/field_writer.hh"

#include <charconv>
#include <cstdio>
#include <utility>

#include "common/logging.hh"

namespace tb {

void
appendNumber(std::string &out, double v, NumberFormat f)
{
    // to_chars with a precision prints as printf would ("%.12g",
    // "%.4f", ...), without parsing a format string on every call.
    using enum std::chars_format;
    static const std::pair<std::chars_format, int> kFormats[] = {
        {general, 12}, {fixed, 4}, {fixed, 6}, {fixed, 3}, {general, 6}};
    const auto [format, precision] = kFormats[static_cast<int>(f)];
    char buf[320]; // any finite double, even fixed-point
    const double x = f == NumberFormat::Percent ? 100.0 * v : v;
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), x, format,
                                  precision).ptr);
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        char buf[8];
        if (c == '\n' || c == '\t') {
            out += c == '\n' ? "\\n" : "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.append(buf, std::snprintf(buf, sizeof(buf), "\\u%04x", c));
        } else {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
    }
    out += '"';
}

void
appendCsvField(std::string &out, std::string_view s, char sep)
{
    const bool quote = s.find_first_of(",\"\r\n") != s.npos;
    if (quote)
        out += '"';
    for (const char c : s)
        out.append(quote && c == '"' ? 2 : 1, c);
    out += quote ? "\"" : "";
    out += sep;
}

FieldWriter::FieldWriter()
    : csv_(false), out_("{"), scopes_{{Layout::Lines, false, 0}}
{
}

FieldWriter::FieldWriter(std::string rootSection)
    : csv_(true), root_(std::move(rootSection)),
      out_("section,key,value\n")
{
}

FieldWriter &
FieldWriter::field(std::string_view key, double v, NumberFormat f)
{
    std::string text;
    appendNumber(text, v, f);
    return leaf(key, text, false);
}

void
FieldWriter::jsonMember(std::string_view key)
{
    Scope &s = scopes_.back();
    if (s.layout == Layout::Lines) {
        out_ += s.mark++ > 0 ? ",\n" : "\n";
        out_.append(2 * scopes_.size(), ' ');
    } else if (s.mark++ > 0) {
        out_ += ", ";
    }
    if (!s.list) {
        appendJsonString(out_, key);
        out_ += ": ";
    }
}

FieldWriter &
FieldWriter::open(std::string_view key, bool list, Layout l)
{
    if (csv_) {
        scopes_.push_back({l, list, section_.size()});
        section_ += section_.empty() ? "" : ".";
        section_ += key;
    } else {
        jsonMember(key);
        out_ += list ? '[' : '{';
        scopes_.push_back({l, list, 0});
    }
    return *this;
}

FieldWriter &
FieldWriter::end()
{
    panic_if(scopes_.empty(), "field list: end() without begin");
    const Scope s = scopes_.back();
    scopes_.pop_back();
    if (csv_) {
        section_.resize(s.mark);
    } else {
        if (s.layout == Layout::Lines && s.mark > 0)
            out_ += "\n" + std::string(2 * scopes_.size(), ' ');
        out_ += s.list ? ']' : '}';
    }
    return *this;
}

FieldWriter &
FieldWriter::leaf(std::string_view key, std::string_view text, bool quoted)
{
    if (csv_) {
        appendCsvField(out_, section_.empty() ? root_ : section_, ',');
        appendCsvField(out_, key, ',');
        appendCsvField(out_, text, '\n');
    } else {
        jsonMember(key);
        if (quoted)
            appendJsonString(out_, text);
        else
            out_ += text;
    }
    return *this;
}

std::string
FieldWriter::finish()
{
    if (!csv_)
        end().out_ += '\n';
    panic_if(!scopes_.empty(), "field list: %zu scopes left open",
             scopes_.size());
    return std::move(out_);
}

} // namespace tb
