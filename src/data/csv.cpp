#include "data/csv.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace peachy::data {

std::vector<CsvRow> read_csv(std::istream& in) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool after_quote = false;  // a quoted field just closed; only , \r \n may follow
  bool field_started = false;  // row has at least one field boundary
  std::size_t line = 1;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = true;
    after_quote = false;
  };
  const auto end_row = [&] {
    if (field_started || !field.empty()) {
      end_field();
      rows.push_back(std::move(row));
      row.clear();
      field_started = false;
    }
  };

  for (int ci = in.get(); ci != std::char_traits<char>::eof(); ci = in.get()) {
    const char c = static_cast<char>(ci);
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          field.push_back('"');
          in.get();
        } else {
          in_quotes = false;
          after_quote = true;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        PEACHY_CHECK(!after_quote, "csv line " + std::to_string(line) +
                                       ": garbage after closing quote");
        PEACHY_CHECK(field.empty(), "csv line " + std::to_string(line) +
                                        ": quote in the middle of an unquoted field");
        in_quotes = true;
        field_started = true;  // "" is a legal empty field
        break;
      case ',':
        end_field();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        ++line;
        break;
      default:
        // RFC 4180: once a quoted field closes, only a separator or end of
        // record may follow.  `"a"b` used to parse silently as `ab`.
        PEACHY_CHECK(!after_quote, "csv line " + std::to_string(line) +
                                       ": garbage after closing quote");
        field.push_back(c);
        break;
    }
  }
  PEACHY_CHECK(!in_quotes, "csv line " + std::to_string(line) + ": unterminated quoted field");
  end_row();  // final record without trailing newline
  return rows;
}

std::vector<CsvRow> read_csv_string(const std::string& text) {
  std::istringstream in{text};
  return read_csv(in);
}

std::vector<CsvRow> read_csv_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  PEACHY_CHECK(in.is_open(), "cannot open csv file: " + path);
  return read_csv(in);
}

namespace {

void write_field(std::ostream& out, const std::string& f) {
  const bool needs_quotes =
      f.find_first_of(",\"\n\r") != std::string::npos || f.empty();
  if (!needs_quotes) {
    out << f;
    return;
  }
  out << '"';
  for (char c : f) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<CsvRow>& rows) {
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      write_field(out, row[i]);
    }
    out << '\n';
  }
}

std::string write_csv_string(const std::vector<CsvRow>& rows) {
  std::ostringstream os;
  write_csv(os, rows);
  return os.str();
}

void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows) {
  std::ofstream out{path, std::ios::binary};
  PEACHY_CHECK(out.is_open(), "cannot open csv file for writing: " + path);
  write_csv(out, rows);
  PEACHY_CHECK(out.good(), "i/o error writing csv file: " + path);
}

namespace {

// std::stoll and std::stod are these same strtoll/strtod calls plus throws
// on "nothing parsed" and ERANGE; checking those conditions here keeps the
// accepted set identical without the exception cost.
template <class T, class Strto>
bool parse_whole(const std::string& field, T& out, Strto strto) noexcept {
  const char* begin = field.c_str();
  char* end = nullptr;
  const int saved = errno;
  errno = 0;
  const T v = strto(begin, &end);
  const bool ok = end != begin && errno != ERANGE && end == begin + field.size();
  errno = saved;
  if (ok) out = v;
  return ok;
}

}  // namespace

bool parse_int(const std::string& field, std::int64_t& out) noexcept {
  static_assert(sizeof(long long) == sizeof(std::int64_t));
  return parse_whole(field, out,
                     [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

bool parse_double(const std::string& field, double& out) noexcept {
  return parse_whole(field, out, [](const char* s, char** end) { return std::strtod(s, end); });
}

}  // namespace peachy::data
