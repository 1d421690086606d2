/**
 * @file
 * Plain-text table rendering for the benchmark harness.
 *
 * Every bench binary reproduces one of the paper's tables or figures
 * as an aligned text table (plus a machine-readable CSV block), so the
 * output can be compared side by side with the paper and post-
 * processed by scripts.
 */

#ifndef LTC_UTIL_TABLE_HH
#define LTC_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace ltc
{

/** Column-aligned text table with an optional title. */
class Table
{
  public:
    explicit Table(std::string title = "") : title_(std::move(title)) {}

    /** Set the column headers; defines the column count. */
    void setHeader(std::vector<std::string> header);

    /** Append one row; must match the header width if one was set. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double v, int precision = 1);

    /** Convenience: format a percentage ("12.3%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Render with aligned columns. */
    std::string render() const;

    /** Render as CSV (header + rows). */
    std::string csv() const;

    /** Table title ("" if none). */
    const std::string &title() const { return title_; }

    /** Column headers (empty if none set). */
    const std::vector<std::string> &header() const { return header_; }

    /** All rows, in insertion order. */
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ltc

#endif // LTC_UTIL_TABLE_HH
