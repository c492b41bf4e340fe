#include "common/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>  // ef-lint: allow(file-io: plain CSV exchange files, not durable state)
#include <sstream>

#include "common/check.h"

namespace ef {
namespace {

std::vector<std::string>
split_line(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool in_quotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields.push_back(field);
            field.clear();
        } else if (c != '\r') {
            field.push_back(c);
        }
    }
    fields.push_back(field);
    return fields;
}

std::string
quote_field(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

}  // namespace

int
CsvTable::column_index(const std::string &column) const
{
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == column)
            return static_cast<int>(i);
    }
    return -1;
}

const std::string &
CsvTable::cell(std::size_t row, const std::string &column) const
{
    EF_FATAL_IF(row >= rows.size(), "CSV row " << row << " out of range");
    int col = column_index(column);
    EF_FATAL_IF(col < 0, "CSV column '" << column << "' not found");
    EF_FATAL_IF(static_cast<std::size_t>(col) >= rows[row].size(),
                "CSV row " << row << " is missing column '" << column << "'");
    return rows[row][static_cast<std::size_t>(col)];
}

bool
parse_number(const std::string &field, std::int64_t *out)
{
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(field.c_str(), &end, 10);
    if (field.empty() || end != field.c_str() + field.size() ||
        errno == ERANGE)
        return false;
    *out = static_cast<std::int64_t>(value);
    return true;
}

bool
parse_number(const std::string &field, double *out)
{
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(field.c_str(), &end);
    if (field.empty() || end != field.c_str() + field.size() ||
        errno == ERANGE)
        return false;
    *out = value;
    return true;
}

CsvTable
parse_csv(const std::string &text)
{
    CsvTable table;
    std::istringstream in(text);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (line.empty() || line == "\r")
            continue;
        auto fields = split_line(line);
        if (first) {
            table.header = std::move(fields);
            first = false;
        } else {
            table.rows.push_back(std::move(fields));
        }
    }
    return table;
}

CsvTable
load_csv(const std::string &path)
{
    // ef-lint: allow(file-io: plain CSV exchange files, not durable state)
    std::ifstream in(path);
    EF_FATAL_IF(!in, "cannot open CSV file: " << path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_csv(buffer.str());
}

std::string
to_csv(const std::vector<std::string> &header,
       const std::vector<std::vector<std::string>> &rows)
{
    std::ostringstream out;
    auto emit_row = [&out](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                out << ',';
            out << quote_field(row[i]);
        }
        out << '\n';
    };
    emit_row(header);
    for (const auto &row : rows)
        emit_row(row);
    return out.str();
}

void
save_csv(const std::string &path, const std::vector<std::string> &header,
         const std::vector<std::vector<std::string>> &rows)
{
    // ef-lint: allow(file-io: plain CSV exchange files, not durable state)
    std::ofstream out(path);
    EF_FATAL_IF(!out, "cannot write CSV file: " << path);
    out << to_csv(header, rows);
}

}  // namespace ef
