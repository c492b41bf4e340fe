/**
 * @file
 * Tiny CSV reader/writer: enough to load real job traces (submit time,
 * GPU count, duration) and to dump bench results for external plotting.
 * Supports quoted fields with embedded commas; does not support
 * multi-line fields (traces never contain them).
 */
#ifndef EF_COMMON_CSV_H_
#define EF_COMMON_CSV_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ef {

/** One parsed CSV table: a header row plus data rows of strings. */
struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** Index of @p column in the header, or -1 if absent. */
    int column_index(const std::string &column) const;

    /** Cell accessor with bounds checks; aborts via EF_FATAL_IF on miss. */
    const std::string &cell(std::size_t row, const std::string &column) const;
};

/** Parse CSV text (first row is the header). */
CsvTable parse_csv(const std::string &text);

/** Load and parse a CSV file. */
CsvTable load_csv(const std::string &path);

/** Parse a whole field (a CSV cell or a command-line value) as an
 *  integer; false, with @p out untouched, when it is empty, has
 *  trailing garbage, or overflows. */
bool parse_number(const std::string &field, std::int64_t *out);

/** Parse a whole field as a real number; same contract. */
bool parse_number(const std::string &field, double *out);

/** parse_number() into a narrower integer type, which must hold the
 *  value. */
template <class T>
    requires std::is_integral_v<T>
bool
parse_number(const std::string &field, T *out)
{
    std::int64_t value = 0;
    if (!parse_number(field, &value) || !std::in_range<T>(value))
        return false;
    *out = static_cast<T>(value);
    return true;
}

/** Serialize rows (quoting fields that need it). */
std::string to_csv(const std::vector<std::string> &header,
                   const std::vector<std::vector<std::string>> &rows);

/** Write CSV text to a file (overwrites). */
void save_csv(const std::string &path, const std::vector<std::string> &header,
              const std::vector<std::vector<std::string>> &rows);

}  // namespace ef

#endif  // EF_COMMON_CSV_H_
