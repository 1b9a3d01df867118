/// \file tune.cpp
/// \brief Profile parsing/serialization and the active-snapshot registry.
///
/// The JSON handling is a self-contained recursive-descent parser over a
/// tiny value model — the container bakes in no JSON library, and the
/// profile grammar is small enough that a dependency would cost more
/// than these ~150 lines.  Parsing is strict about structure (it is a
/// versioned artifact, not a config DSL) but deliberately lenient about
/// *unknown* keys, so a newer tuner can add fields without breaking an
/// older loader — the versioned schema string gates real incompatibility.

#include "tune/tune.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

namespace peachy::tune {

namespace {

constexpr std::string_view kSchema = "peachy-tune/2";

// ---- minimal JSON value model + parser --------------------------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;  // order kept

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::shared_ptr<JsonArray> arr;
  std::shared_ptr<JsonObject> obj;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject || !obj) return nullptr;
    for (const auto& [k, v] : *obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  /// Parses one document; on failure `error()` names the problem and the
  /// byte offset where it was detected.
  [[nodiscard]] bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after document");
    return true;
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return at_end() ? '\0' : text_[pos_]; }
  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (depth_ > 32) return fail("nesting too deep");
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.s);
      case 't':
        if (!consume_word("true")) return fail("bad literal");
        out.kind = JsonValue::Kind::kBool;
        out.b = true;
        return true;
      case 'f':
        if (!consume_word("false")) return fail("bad literal");
        out.kind = JsonValue::Kind::kBool;
        out.b = false;
        return true;
      case 'n':
        if (!consume_word("null")) return fail("bad literal");
        out.kind = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++depth_;
    consume('{');
    out.kind = JsonValue::Kind::kObject;
    out.obj = std::make_shared<JsonObject>();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (peek() != '"' || !parse_string(key)) return fail("expected object key string");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.obj->emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    ++depth_;
    consume('[');
    out.kind = JsonValue::Kind::kArray;
    out.arr = std::make_shared<JsonArray>();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.arr->push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // Profiles are ASCII artifacts; accept \uXXXX but only map
            // the Basic Latin range — anything else is a parse error.
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            if (code > 0x7F) return fail("non-ASCII \\u escape in profile");
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            return fail("unknown escape in string");
        }
        continue;
      }
      out.push_back(c);
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) != 0)) ++pos_;
    bool is_double = false;
    if (peek() == '.') {
      is_double = true;
      ++pos_;
      while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) != 0)) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      is_double = true;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) != 0)) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("expected a JSON value");
    }
    const std::string tok{text_.substr(start, pos_ - start)};
    if (is_double) {
      out.kind = JsonValue::Kind::kDouble;
      out.d = std::strtod(tok.c_str(), nullptr);
    } else {
      out.kind = JsonValue::Kind::kInt;
      errno = 0;
      out.i = std::strtoll(tok.c_str(), nullptr, 10);
      if (errno == ERANGE) return fail("integer out of range");
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

// ---- field extraction helpers ----------------------------------------------

/// Reads a non-negative integer field of rule `where` into `out`.  Absent
/// is fine (keeps the default).  Negative, non-integer, or too large for
/// T records a named warning and returns false: the caller skips the
/// whole rule rather than apply it over a range nobody wrote.
template <typename T>
bool read_nonneg(const JsonValue& obj, const std::string& where, std::string_view key, T& out,
                 std::vector<std::string>& warnings) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (v->kind != JsonValue::Kind::kInt || v->i < 0) {
    warnings.push_back(where + ": field '" + std::string(key) +
                       "' must be a non-negative integer; rule skipped");
    return false;
  }
  if (static_cast<std::uint64_t>(v->i) > std::uint64_t{std::numeric_limits<T>::max()}) {
    warnings.push_back(where + ": field '" + std::string(key) + "' = " + std::to_string(v->i) +
                       " exceeds " + std::to_string(std::numeric_limits<T>::max()) +
                       "; rule skipped");
    return false;
  }
  out = static_cast<T>(v->i);
  return true;
}

}  // namespace

// ---- names ------------------------------------------------------------------

const char* coll_op_name(CollOp op) noexcept {
  switch (op) {
    case CollOp::kBroadcast: return "broadcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
  }
  return "?";
}

const char* coll_algo_name(CollAlgo algo) noexcept {
  switch (algo) {
    case CollAlgo::kAuto: return "auto";
    case CollAlgo::kLinear: return "linear";
    case CollAlgo::kBinomial: return "binomial";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecDouble: return "recdouble";
  }
  return "?";
}

bool parse_coll_op(std::string_view name, CollOp& out) noexcept {
  for (const CollOp op : {CollOp::kBroadcast, CollOp::kReduce, CollOp::kAllreduce,
                          CollOp::kAllgather}) {
    if (name == coll_op_name(op)) {
      out = op;
      return true;
    }
  }
  return false;
}

bool parse_coll_algo(std::string_view name, CollAlgo& out) noexcept {
  for (const CollAlgo a : {CollAlgo::kAuto, CollAlgo::kLinear, CollAlgo::kBinomial,
                           CollAlgo::kRing, CollAlgo::kRecDouble}) {
    if (name == coll_algo_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

// ---- selection ---------------------------------------------------------------

CollAlgo Tunables::coll_algo(CollOp op, int p, std::int64_t bytes) const noexcept {
  for (const CollRule& r : coll_rules) {
    if (r.op != op) continue;
    if (p < r.p_min || p > r.p_max) continue;
    if (bytes == kBytesUnknown) {
      // Unknown sizes may only match rules that cannot split ranks by
      // size — see the header's communication-free selection contract.
      if (!r.byte_range_unconstrained()) continue;
    } else {
      if (bytes < r.bytes_min || bytes > r.bytes_max) continue;
    }
    // Recursive doubling exists only for power-of-two rank counts; a
    // rule that names it elsewhere silently takes the default path.
    if (r.algo == CollAlgo::kRecDouble && (p <= 0 || (p & (p - 1)) != 0)) {
      return CollAlgo::kAuto;
    }
    return r.algo;
  }
  return CollAlgo::kAuto;
}

// ---- serialization -----------------------------------------------------------

std::string to_json(const Profile& profile) {
  const Tunables& t = profile.tunables;
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"";
  out += kSchema;
  out += "\",\n";
  out += "  \"isa\": ";
  append_escaped(out, profile.isa);
  out += ",\n  \"tuned_for\": ";
  append_escaped(out, profile.tuned_for);
  out += ",\n  \"collectives\": [";
  for (std::size_t i = 0; i < t.coll_rules.size(); ++i) {
    const CollRule& r = t.coll_rules[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"op\": \"";
    out += coll_op_name(r.op);
    out += "\", \"algo\": \"";
    out += coll_algo_name(r.algo);
    out += "\"";
    if (r.p_min != 1) out += ", \"p_min\": " + std::to_string(r.p_min);
    if (r.p_max != std::numeric_limits<int>::max()) {
      out += ", \"p_max\": " + std::to_string(r.p_max);
    }
    if (r.bytes_min != 0) out += ", \"bytes_min\": " + std::to_string(r.bytes_min);
    if (r.bytes_max != kBytesMax) out += ", \"bytes_max\": " + std::to_string(r.bytes_max);
    out += "}";
  }
  out += t.coll_rules.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---- parsing -----------------------------------------------------------------

LoadResult parse_profile(std::string_view json_text) {
  LoadResult res;
  JsonValue doc;
  JsonParser parser{json_text};
  if (!parser.parse(doc)) {
    res.warnings.push_back("malformed JSON: " + parser.error());
    return res;
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    res.warnings.push_back("top-level value is not an object");
    return res;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    res.warnings.push_back("missing 'schema' field (expected \"" + std::string(kSchema) + "\")");
    return res;
  }
  if (schema->s != kSchema) {
    res.warnings.push_back("schema version mismatch: got \"" + schema->s + "\", this build reads \"" +
                           std::string(kSchema) + "\"");
    return res;
  }
  res.ok = true;

  if (const JsonValue* isa = doc.find("isa");
      isa != nullptr && isa->kind == JsonValue::Kind::kString) {
    res.profile.isa = isa->s;
  }
  if (const JsonValue* tf = doc.find("tuned_for");
      tf != nullptr && tf->kind == JsonValue::Kind::kString) {
    res.profile.tuned_for = tf->s;
  }

  Tunables& t = res.profile.tunables;
  if (const JsonValue* rules = doc.find("collectives"); rules != nullptr) {
    if (rules->kind != JsonValue::Kind::kArray) {
      res.warnings.push_back("'collectives' is not an array; keeping no rules");
    } else {
      for (std::size_t i = 0; i < rules->arr->size(); ++i) {
        const JsonValue& rv = (*rules->arr)[i];
        const std::string where = "collectives[" + std::to_string(i) + "]";
        if (rv.kind != JsonValue::Kind::kObject) {
          res.warnings.push_back(where + " is not an object; rule skipped");
          continue;
        }
        CollRule rule;
        const JsonValue* opv = rv.find("op");
        const JsonValue* algov = rv.find("algo");
        if (opv == nullptr || opv->kind != JsonValue::Kind::kString ||
            !parse_coll_op(opv->s, rule.op)) {
          res.warnings.push_back(where + ": unknown or missing 'op'; rule skipped");
          continue;
        }
        if (algov == nullptr || algov->kind != JsonValue::Kind::kString ||
            !parse_coll_algo(algov->s, rule.algo)) {
          res.warnings.push_back(where + ": unknown or missing 'algo'; rule skipped");
          continue;
        }
        if (!read_nonneg(rv, where, "p_min", rule.p_min, res.warnings) ||
            !read_nonneg(rv, where, "p_max", rule.p_max, res.warnings) ||
            !read_nonneg(rv, where, "bytes_min", rule.bytes_min, res.warnings) ||
            !read_nonneg(rv, where, "bytes_max", rule.bytes_max, res.warnings)) {
          continue;
        }
        if (rule.p_min > rule.p_max || rule.bytes_min > rule.bytes_max) {
          res.warnings.push_back(where + ": empty p/bytes range; rule skipped");
          continue;
        }
        t.coll_rules.push_back(rule);
      }
    }
  }
  return res;
}

LoadResult load_profile_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    LoadResult res;
    res.warnings.push_back("cannot open '" + path + "'");
    return res;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  LoadResult res = parse_profile(buf.str());
  for (std::string& w : res.warnings) w = path + ": " + w;
  return res;
}

bool write_profile_file(const Profile& profile, const std::string& path) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "peachy-tune: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << to_json(profile);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "peachy-tune: write to '%s' failed\n", path.c_str());
    return false;
  }
  return true;
}

// ---- the active snapshot -----------------------------------------------------

namespace {

/// Resolve the startup snapshot from PEACHY_TUNE.  Returns a pointer into
/// storage that lives forever (leaked on purpose: Machines constructed
/// during static destruction must still be able to read it).
const Tunables* resolve_from_env() {
  const char* env = std::getenv("PEACHY_TUNE");
  if (env == nullptr || *env == '\0') return &defaults();
  LoadResult res = load_profile_file(env);
  if (!res.ok) {
    std::fprintf(stderr,
                 "peachy-tune: PEACHY_TUNE profile rejected, using compiled-in defaults:\n");
    for (const std::string& w : res.warnings) {
      std::fprintf(stderr, "peachy-tune:   %s\n", w.c_str());
    }
    return &defaults();
  }
  for (const std::string& w : res.warnings) {
    std::fprintf(stderr, "peachy-tune: warning: %s\n", w.c_str());
  }
  return new Tunables{std::move(res.profile.tunables)};
}

}  // namespace

const Tunables& defaults() noexcept {
  static const Tunables kDefaults{};
  return kDefaults;
}

const Tunables& active() noexcept {
  static const Tunables* const kActive = resolve_from_env();
  return *kActive;
}

}  // namespace peachy::tune
