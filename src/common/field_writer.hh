/**
 * @file
 * One field list, two formats. A report names each exported field once,
 * in JSON order, in writeFields(FieldWriter &); a FieldWriter renders the
 * list as JSON or as "section,key,value" CSV rows, one per JSON leaf with
 * the same value text. A row's section is the dotted path of the objects
 * and lists around the leaf (a root section at top level). Inside a list
 * the key names the element: JSON drops it, CSV puts it in the path (or,
 * for a scalar element, uses it as the row key).
 */

#ifndef TRAINBOX_COMMON_FIELD_WRITER_HH
#define TRAINBOX_COMMON_FIELD_WRITER_HH

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tb {

/** How a floating-point value is printed. */
enum class NumberFormat
{
    General, ///< %.12g
    Percent, ///< 100 * v as %.4f (fixed digits keep goldens stable)
    Fixed6,  ///< %.6f
    Fixed3,  ///< %.3f (trace timestamps, microseconds)
    Short,   ///< %g (trace counter values)
};

void appendNumber(std::string &out, double v, NumberFormat f);

/** Append @p s quoted, escaping '"', '\\' and every byte below 0x20. */
void appendJsonString(std::string &out, std::string_view s);

/**
 * Append @p s as one RFC 4180 CSV field, then @p sep: quoted, with '"'
 * doubled, when it holds ',', '"', CR or LF.
 */
void appendCsvField(std::string &out, std::string_view s, char sep);

class FieldWriter
{
  public:
    /** JSON layout of an object's or list's members. */
    enum class Layout
    {
        Inline, ///< {"a": 1, "b": 2}
        Lines,  ///< one member per line, two spaces of indent a level
    };

    /** A JSON writer; the root object has one member per line. */
    FieldWriter();

    /** A CSV writer; top-level leaves go in section @p rootSection. */
    explicit FieldWriter(std::string rootSection);

    // Each call returns *this, so the fields of a block chain.
    FieldWriter &beginObject(std::string_view key, Layout l)
    {
        return open(key, false, l);
    }
    FieldWriter &beginList(std::string_view key, Layout l)
    {
        return open(key, true, l);
    }
    FieldWriter &end(); ///< close the innermost object or list

    FieldWriter &field(std::string_view key, double v,
                       NumberFormat f = NumberFormat::General);
    FieldWriter &field(std::string_view key, std::string_view v)
    {
        return leaf(key, v, true);
    }
    /** Integers print exactly; bools as true/false. */
    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    FieldWriter &field(std::string_view key, T v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return leaf(key, v ? "true" : "false", false);
        } else {
            char buf[24];
            const auto res = std::to_chars(buf, buf + sizeof(buf), v);
            return leaf(key, std::string_view(buf, res.ptr - buf), false);
        }
    }

    /** A string-keyed map as one inline object. */
    template <typename Map>
    FieldWriter &map(std::string_view key, const Map &by)
    {
        beginObject(key, Layout::Inline);
        for (const auto &[k, v] : by)
            field(k, v);
        return end();
    }

    /** The rendered text; call once, after the last end(). */
    std::string finish();

  private:
    struct Scope
    {
        Layout layout;
        bool list;
        std::size_t mark; ///< members so far (JSON), path length (CSV)
    };

    FieldWriter &open(std::string_view key, bool list, Layout l);
    FieldWriter &leaf(std::string_view key, std::string_view text,
                      bool quoted);
    void jsonMember(std::string_view key);

    const bool csv_;
    std::string root_;
    std::string section_; ///< CSV: dotted path of the open scopes
    std::string out_;
    std::vector<Scope> scopes_;
};

} // namespace tb

#endif // TRAINBOX_COMMON_FIELD_WRITER_HH
