#include "common/table.hh"

#include <algorithm>
#include <cstdarg>

#include "common/field_writer.hh"
#include "common/logging.hh"

namespace tb {

std::string
formatDouble(double value, int precision)
{
    return csprintf("%.*f", precision, value);
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::add(std::string cell)
{
    panic_if(rows_.empty(), "Table::add before Table::row");
    panic_if(rows_.back().size() >= headers_.size(),
             "Table row has more cells than headers");
    rows_.back().push_back(std::move(cell));
    return *this;
}

Table &
Table::add(double value, int precision)
{
    return add(formatDouble(value, precision));
}

Table &
Table::add(long long value)
{
    return add(std::to_string(value));
}

const std::string &
Table::cell(std::size_t row, std::size_t col) const
{
    panic_if(row >= rows_.size() || col >= rows_[row].size(),
             "Table::cell out of range");
    return rows_[row][col];
}

void
Table::print(std::FILE *out) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            std::fprintf(out, "%-*s", static_cast<int>(widths[c] + 2),
                         cell.c_str());
        }
        std::fprintf(out, "\n");
    };

    print_row(headers_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    for (std::size_t i = 0; i < total; ++i)
        std::fputc('-', out);
    std::fputc('\n', out);
    for (const auto &row : rows_)
        print_row(row);
}

void
Table::printCsv(std::FILE *out) const
{
    std::string line;
    auto print_row = [&](const std::vector<std::string> &cells) {
        line.clear();
        for (std::size_t c = 0; c < cells.size(); ++c)
            appendCsvField(line, cells[c],
                           c + 1 < cells.size() ? ',' : '\n');
        if (cells.empty())
            line += '\n';
        std::fputs(line.c_str(), out);
    };
    print_row(headers_);
    for (const auto &row : rows_)
        print_row(row);
}

} // namespace tb
