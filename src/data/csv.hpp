#pragma once
/// \file csv.hpp
/// \brief CSV reading and writing (RFC-4180 quoting).
///
/// The kNN assignment's "early course" adaptation asks students to parse
/// databases and queries from CSV files (paper §2); the pipeline
/// assignment ingests CSV datasets (§4).  This is the shared parser: it
/// handles quoted fields, embedded commas/newlines/quotes, and optional
/// headers, and reports the line number of any malformed record.

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace peachy::data {

/// One parsed CSV record.
using CsvRow = std::vector<std::string>;

/// Parse a whole stream.  Rows may have varying arity; empty trailing line
/// is ignored.  Throws peachy::Error with a line number on malformed
/// quoting (e.g. unterminated quote).
[[nodiscard]] std::vector<CsvRow> read_csv(std::istream& in);

/// Parse a string (convenience for tests and generated data).
[[nodiscard]] std::vector<CsvRow> read_csv_string(const std::string& text);

/// Parse a file by path.  Throws peachy::Error if the file cannot be opened.
[[nodiscard]] std::vector<CsvRow> read_csv_file(const std::string& path);

/// Serialize rows; fields containing comma/quote/newline are quoted, with
/// inner quotes doubled, so write→read round-trips exactly.
void write_csv(std::ostream& out, const std::vector<CsvRow>& rows);

/// Serialize to a string.
[[nodiscard]] std::string write_csv_string(const std::vector<CsvRow>& rows);

/// Serialize to a file.  Throws peachy::Error on I/O failure.
void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows);

/// Parse a whole field as a base-10 int64.  Accepts what std::stoll accepts
/// (leading whitespace, a sign) provided the number consumes the rest of
/// the field; rejects empty fields, trailing text and out-of-range values.
/// Writes `out` only on success and never throws.
[[nodiscard]] bool parse_int(const std::string& field, std::int64_t& out) noexcept;

/// Parse a whole field as a double.  Accepts what std::stod accepts
/// (leading whitespace, a sign, hex floats, inf/nan) provided the number
/// consumes the rest of the field; rejects empty fields, trailing text and
/// values that overflow or underflow (ERANGE).  Writes `out` only on
/// success and never throws.
[[nodiscard]] bool parse_double(const std::string& field, double& out) noexcept;

}  // namespace peachy::data
