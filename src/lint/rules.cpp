/// \file rules.cpp
/// \brief The six peachy-lint rules.
///
/// Every rule is a pattern over the token stream plus just enough scope
/// tracking to keep the clean tree clean.  The rules deliberately trade
/// recall for precision: a static finding interrupts a student *before*
/// their first run slot, so a false positive here costs more trust than a
/// false negative (the runtime checkers are the backstop).

#include "lint/rules.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace peachy::lint {

namespace {

using Toks = std::vector<Token>;

[[nodiscard]] bool is(const Toks& t, std::size_t i, std::string_view s) {
  return i < t.size() && t[i].text == s;
}
[[nodiscard]] bool is_ident(const Toks& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::identifier;
}
[[nodiscard]] const std::string& text(const Toks& t, std::size_t i) {
  static const std::string kEmpty;
  return i < t.size() ? t[i].text : kEmpty;
}

/// Index of the closer matching the `(`/`{`/`[` at `open` (or t.size()).
/// Counts only the one bracket family, which suffices: bracket kinds nest
/// in a balanced way in any code that parses.
[[nodiscard]] std::size_t close_of(const Toks& t, std::size_t open) {
  const std::string& o = t[open].text;
  const char* c = o == "(" ? ")" : o == "{" ? "}" : o == "[" ? "]" : "";
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == o) {
      ++depth;
    } else if (t[i].text == c) {
      if (--depth == 0) return i;
    }
  }
  return t.size();
}

/// Walk back from `i` to the first token after the previous `;`, `{`, `}`.
[[nodiscard]] std::size_t stmt_start(const Toks& t, std::size_t i) {
  while (i > 0) {
    const std::string& s = t[i - 1].text;
    if (s == ";" || s == "{" || s == "}") break;
    --i;
  }
  return i;
}

/// Index just past the statement (to `;`) or brace block starting at `k`.
[[nodiscard]] std::size_t skip_stmt_or_block(const Toks& t, std::size_t k) {
  if (k >= t.size()) return k;
  if (t[k].text == "{") return close_of(t, k) + 1;
  int depth = 0;
  for (std::size_t i = k; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "{" || s == "[") {
      ++depth;
    } else if (s == ")" || s == "}" || s == "]") {
      --depth;
    } else if (s == ";" && depth <= 0) {
      return i + 1;
    }
  }
  return t.size();
}

/// Comma-separated argument ranges ([begin,end) token indices) between the
/// call parens (`open` is the `(`, `close` its `)`).
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_args(const Toks& t,
                                                                          std::size_t open,
                                                                          std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  if (open + 1 >= close) return args;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "{" || s == "[") {
      ++depth;
    } else if (s == ")" || s == "}" || s == "]") {
      --depth;
    } else if (s == "," && depth == 0) {
      args.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  args.emplace_back(begin, close);
  return args;
}

void add(std::vector<Finding>& out, Rule r, const std::string& path, const Token& at,
         std::string msg) {
  out.push_back(Finding{r, path, at.line, at.col, std::move(msg)});
}

/// Brace-balanced bodies of things that look like functions: a `{` whose
/// preceding tokens walk back (over cv/ref/noexcept/trailing-return
/// spellings) to a `)` whose matching `(` follows a plain identifier that
/// is not a control keyword.  Lambdas are excluded on purpose — a lambda
/// belongs to its enclosing function's scope.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> function_bodies(const Toks& t) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "{") continue;
    std::size_t j = i;
    bool saw_paren = false;
    for (int steps = 0; j > 0 && steps < 16; ++steps) {
      const Token& p = t[j - 1];
      if (p.text == ")") {
        saw_paren = true;
        break;
      }
      const bool glue = p.text == "->" || p.text == "::" || p.text == "&" || p.text == "&&" ||
                        p.text == "*" || p.text == "<" || p.text == ">" ||
                        p.kind == TokKind::identifier;
      if (!glue) break;
      --j;
    }
    if (!saw_paren) continue;
    int depth = 0;
    std::size_t p = j - 1;
    while (true) {
      if (t[p].text == ")") {
        ++depth;
      } else if (t[p].text == "(") {
        if (--depth == 0) break;
      }
      if (p == 0) break;
      --p;
    }
    if (depth != 0 || p == 0) continue;
    const Token& before = t[p - 1];
    if (before.kind != TokKind::identifier) continue;
    if (before.text == "if" || before.text == "while" || before.text == "for" ||
        before.text == "switch" || before.text == "catch" || before.text == "return") {
      continue;
    }
    out.emplace_back(i, close_of(t, i));
  }
  return out;
}

// ---------------------------------------------------------------------------
// L1 — capture-race
// ---------------------------------------------------------------------------

const std::set<std::string>& parallel_free_fns() {
  static const std::set<std::string> k{"parallel_for", "parallel_for_threads",
                                       "parallel_reduce"};
  return k;
}
const std::set<std::string>& parallel_members() {
  static const std::set<std::string> k{"forall", "coforall", "coforall_locales"};
  return k;
}

struct Captures {
  bool default_ref = false;
  bool default_val = false;
  std::set<std::string> by_ref;
  std::set<std::string> by_val;
};

[[nodiscard]] Captures parse_captures(const Toks& t, std::size_t open, std::size_t close) {
  Captures c;
  for (const auto& [b, e] : split_args(t, open, close)) {
    if (b >= e) continue;
    if (t[b].text == "&" && e == b + 1) {
      c.default_ref = true;
    } else if (t[b].text == "=" && e == b + 1) {
      c.default_val = true;
    } else if (t[b].text == "&" && is_ident(t, b + 1)) {
      c.by_ref.insert(t[b + 1].text);  // `&x` and init-capture `&x = expr`
    } else if (is_ident(t, b) && t[b].text != "this") {
      c.by_val.insert(t[b].text);  // `x` and init-capture `x = expr`
    }
  }
  return c;
}

/// Identifiers declared with std::atomic anywhere in the file — their
/// mutations are synchronized by definition.
[[nodiscard]] std::set<std::string> atomic_names(const Toks& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is(t, i, "atomic") && !is(t, i, "atomic_flag")) continue;
    std::size_t j = i + 1;
    if (is(t, j, "<")) {
      int depth = 0;
      for (; j < t.size() && j < i + 16; ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    if (is_ident(t, j)) names.insert(t[j].text);
  }
  return names;
}

const std::set<std::string>& mutating_ops() {
  static const std::set<std::string> k{"=",  "+=", "-=",  "*=",  "/=", "%=", "&=",
                                       "|=", "^=", "<<=", ">>=", "++", "--"};
  return k;
}
const std::set<std::string>& mutating_members() {
  static const std::set<std::string> k{"push_back", "emplace_back", "pop_back", "insert",
                                       "erase", "append"};
  return k;
}
/// Keywords that can precede an identifier without declaring it.
const std::set<std::string>& expr_keywords() {
  static const std::set<std::string> k{"return",   "co_return", "co_yield", "case",
                                       "goto",     "new",       "delete",   "throw",
                                       "operator", "sizeof",    "typename", "else",
                                       "do",       "co_await"};
  return k;
}

void scan_lambda_body(const Toks& t, std::size_t body_open, std::size_t body_end,
                      const Captures& caps, const std::set<std::string>& params,
                      const std::set<std::string>& atomics, const std::string& path,
                      const std::string& construct, std::vector<Finding>& out) {
  if (caps.default_val && !caps.default_ref && caps.by_ref.empty()) return;
  std::set<std::string> locals = params;
  std::vector<bool> lock_at_depth{false};
  for (std::size_t i = body_open + 1; i < body_end; ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      lock_at_depth.push_back(false);
      continue;
    }
    if (s == "}") {
      if (lock_at_depth.size() > 1) lock_at_depth.pop_back();
      continue;
    }
    if (t[i].kind != TokKind::identifier) continue;
    if (s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" || s == "shared_lock") {
      lock_at_depth.back() = true;
      continue;
    }
    const std::string& prev = text(t, i - 1);
    const std::string& next = text(t, i + 1);
    // Declaration heuristic: `auto x`, `int x`, `std::vector<T> x` — the
    // identifier right after another identifier or a closing `>`.
    const bool prev_is_type = (t[i - 1].kind == TokKind::identifier &&
                               expr_keywords().count(prev) == 0) ||
                              prev == ">" || prev == "*" || prev == "&" || prev == "&&";
    if (prev_is_type && (next == "=" || next == ";" || next == "{" || next == "(" ||
                         next == "," || next == ":" || next == ")" || next == "[")) {
      locals.insert(s);
      // Multi-declarator statements (`std::vector<double> u(n), un(n);`)
      // declare every `, name` sibling at the statement's top level too.
      int ddepth = 0;
      for (std::size_t j = i + 1; j < body_end; ++j) {
        const std::string& ds = t[j].text;
        if (ds == "(" || ds == "{" || ds == "[") ++ddepth;
        if (ds == ")" || ds == "}" || ds == "]") --ddepth;
        if (ddepth < 0 || (ddepth == 0 && ds == ";")) break;
        if (ddepth == 0 && ds == "," && is_ident(t, j + 1)) locals.insert(t[j + 1].text);
      }
      continue;
    }
    // Mutation of a bare identifier: `x op= ...`, `x++`, `++x`.
    const bool postfix_mut = mutating_ops().count(next) != 0;
    const bool prefix_mut = (prev == "++" || prev == "--");
    const bool mutating_call = next == "." && mutating_members().count(text(t, i + 2)) != 0 &&
                               is(t, i + 3, "(");
    if (!postfix_mut && !prefix_mut && !mutating_call) continue;
    if (prev == "." || prev == "->" || prev == "::") continue;  // member, not a capture
    if (locals.count(s) != 0 || atomics.count(s) != 0) continue;
    if (caps.by_val.count(s) != 0) continue;
    const bool by_ref = caps.default_ref || caps.by_ref.count(s) != 0;
    if (!by_ref) continue;
    bool locked = false;
    for (const bool l : lock_at_depth) locked = locked || l;
    if (locked) continue;
    add(out, Rule::L1_capture_race, path, t[i],
        "'" + s + "' is captured by reference and mutated inside a " + construct +
            " body with no lock; every iteration may run concurrently — use "
            "SharedArray/std::atomic, a TrackedMutex guard, or a reduction");
  }
}

void rule_l1(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  const std::set<std::string> atomics = atomic_names(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::string construct;
    std::size_t call_open = 0;
    if (is_ident(t, i) && parallel_free_fns().count(t[i].text) != 0 && is(t, i + 1, "(")) {
      construct = t[i].text;
      call_open = i + 1;
    } else if ((is(t, i, ".") || is(t, i, "->")) && is_ident(t, i + 1) &&
               parallel_members().count(t[i + 1].text) != 0 && is(t, i + 2, "(")) {
      construct = t[i + 1].text;
      call_open = i + 2;
    } else {
      continue;
    }
    const std::size_t call_close = close_of(t, call_open);
    for (std::size_t j = call_open + 1; j < call_close; ++j) {
      if (!is(t, j, "[")) continue;
      const std::string& before = text(t, j - 1);
      if (before != "(" && before != ",") continue;  // subscript, not a lambda
      const std::size_t cap_close = close_of(t, j);
      if (cap_close >= call_close) break;
      const Captures caps = parse_captures(t, j, cap_close);
      std::size_t k = cap_close + 1;
      std::set<std::string> params;
      if (is(t, k, "(")) {
        const std::size_t pc = close_of(t, k);
        for (const auto& [b, e] : split_args(t, k, pc)) {
          if (e > b && t[e - 1].kind == TokKind::identifier) params.insert(t[e - 1].text);
        }
        k = pc + 1;
      }
      while (k < call_close && !is(t, k, "{")) ++k;
      if (k >= call_close) break;
      const std::size_t body_end = close_of(t, k);
      scan_lambda_body(t, k, body_end, caps, params, atomics, path, construct, out);
      j = body_end;
    }
  }
}

// ---------------------------------------------------------------------------
// L2 — collective-divergence
// ---------------------------------------------------------------------------

const std::set<std::string>& collective_members() {
  static const std::set<std::string> k{
      "barrier",        "broadcast",      "broadcast_value",   "broadcast_into",
      "reduce",         "reduce_inplace", "allreduce",         "allreduce_inplace",
      "allreduce_value", "gather",        "allgather",         "allgather_into",
      "scatter_blocks", "alltoall",       "shrink",
  };
  return k;
}

[[nodiscard]] bool is_rank_name(const std::string& s) {
  std::string lower;
  lower.reserve(s.size());
  for (const char c : s) lower.push_back(static_cast<char>(std::tolower(c)));
  return lower.find("rank") != std::string::npos && lower.find("ranks") == std::string::npos;
}

/// Identifiers assigned from `.rank()` / `.world_rank()` anywhere in the
/// file (plus anything *named* like a rank).
[[nodiscard]] std::set<std::string> tainted_idents(const Toks& t) {
  std::set<std::string> tainted;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is(t, i, ".") || !is(t, i + 2, "(")) continue;
    if (!is(t, i + 1, "rank") && !is(t, i + 1, "world_rank")) continue;
    const std::size_t s = stmt_start(t, i);
    for (std::size_t j = s + 1; j < i; ++j) {
      if (t[j].text == "=" && t[j - 1].kind == TokKind::identifier) {
        tainted.insert(t[j - 1].text);
        break;
      }
    }
  }
  return tainted;
}

[[nodiscard]] bool cond_is_rank_dep(const Toks& t, std::size_t b, std::size_t e,
                                    const std::set<std::string>& tainted) {
  for (std::size_t j = b; j < e; ++j) {
    if (is(t, j, ".") && (is(t, j + 1, "rank") || is(t, j + 1, "world_rank")) &&
        is(t, j + 2, "(")) {
      return true;
    }
    if (t[j].kind == TokKind::identifier && text(t, j - 1) != "." && text(t, j - 1) != "->" &&
        (tainted.count(t[j].text) != 0 || is_rank_name(t[j].text))) {
      return true;
    }
  }
  return false;
}

void flag_collectives_in(const Toks& t, std::size_t b, std::size_t e, const std::string& path,
                         const char* where, std::vector<Finding>& out) {
  for (std::size_t j = b; j + 2 < e; ++j) {
    if ((is(t, j, ".") || is(t, j, "->")) && is_ident(t, j + 1) &&
        collective_members().count(t[j + 1].text) != 0 && is(t, j + 2, "(")) {
      add(out, Rule::L2_collective_divergence, path, t[j + 1],
          "collective '" + t[j + 1].text + "' is called " + where +
              "; every rank of the communicator must reach the same collective "
              "sequence or the group deadlocks");
    }
  }
}

void rule_l2(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  const std::set<std::string> tainted = tainted_idents(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i)) continue;
    const std::string& kw = t[i].text;
    if ((kw != "if" && kw != "while" && kw != "switch") || !is(t, i + 1, "(")) continue;
    const std::size_t cond_close = close_of(t, i + 1);
    if (!cond_is_rank_dep(t, i + 2, cond_close, tainted)) continue;
    std::size_t body_begin = cond_close + 1;
    std::size_t body_end = skip_stmt_or_block(t, body_begin);
    flag_collectives_in(t, body_begin, body_end, path, "inside a rank-dependent branch", out);
    bool has_else = false;
    if (kw == "if") {
      std::size_t e = body_end;
      while (is(t, e, "else")) {
        has_else = true;
        if (is(t, e + 1, "if") && is(t, e + 2, "(")) {
          const std::size_t c2 = close_of(t, e + 2);
          const std::size_t b2 = skip_stmt_or_block(t, c2 + 1);
          flag_collectives_in(t, c2 + 1, b2, path, "inside a rank-dependent branch", out);
          e = b2;
        } else {
          const std::size_t b2 = skip_stmt_or_block(t, e + 1);
          flag_collectives_in(t, e + 1, b2, path, "inside a rank-dependent branch", out);
          e = b2;
        }
      }
      // A rank-dependent `if` that returns makes everything after it
      // rank-dependent too (only some ranks get there).
      if (!has_else) {
        bool returns = false;
        for (std::size_t j = body_begin; j < body_end; ++j) {
          // A `return` inside a nested lambda returns from the lambda, not
          // from this branch — skip lambda bodies wholesale.
          if (is(t, j, "[") && j > 0 && t[j - 1].kind != TokKind::identifier &&
              text(t, j - 1) != "]" && text(t, j - 1) != ")") {
            std::size_t k = close_of(t, j) + 1;
            if (is(t, k, "(")) k = close_of(t, k) + 1;
            for (int steps = 0; steps < 4 && k < body_end; ++steps, ++k) {
              if (is(t, k, "{")) {
                j = close_of(t, k);
                break;
              }
            }
            continue;
          }
          if (is(t, j, "return")) {
            returns = true;
            break;
          }
        }
        if (returns) {
          int depth = 0;
          for (std::size_t j = body_end; j < t.size(); ++j) {
            if (t[j].text == "{") {
              ++depth;
            } else if (t[j].text == "}") {
              if (depth == 0) break;
              --depth;
            }
            if ((is(t, j, ".") || is(t, j, "->")) && is_ident(t, j + 1) &&
                collective_members().count(t[j + 1].text) != 0 && is(t, j + 2, "(")) {
              add(out, Rule::L2_collective_divergence, path, t[j + 1],
                  "collective '" + t[j + 1].text +
                      "' is reached after a rank-dependent early return; the ranks "
                      "that returned will never arrive");
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L3 — use-after-move
// ---------------------------------------------------------------------------

const std::set<std::string>& move_sinks() {
  static const std::set<std::string> k{"send_move",      "post_move", "send_bytes_move",
                                       "adopt",          "adopt_typed", "alltoall"};
  return k;
}
const std::set<std::string>& reinit_members() {
  static const std::set<std::string> k{"assign", "clear", "resize", "reserve", "swap",
                                       "emplace"};
  return k;
}

void rule_l3(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 5 < t.size(); ++i) {
    // std :: move ( name )
    if (!is(t, i, "std") || !is(t, i + 1, "::") || !is(t, i + 2, "move") || !is(t, i + 3, "(") ||
        !is_ident(t, i + 4) || !is(t, i + 5, ")")) {
      continue;
    }
    const std::string& name = t[i + 4].text;
    // Only flag moves handed to a pooled-buffer sink.
    const std::size_t s = stmt_start(t, i);
    bool sunk = false;
    for (std::size_t j = s; j + 2 < i + 1; ++j) {
      if ((is(t, j, ".") || is(t, j, "->")) && is_ident(t, j + 1) &&
          move_sinks().count(t[j + 1].text) != 0) {
        sunk = true;
        break;
      }
    }
    if (!sunk) continue;
    // Scan the rest of the enclosing block for the next use of `name`.
    std::size_t semi = i + 5;
    while (semi < t.size() && t[semi].text != ";") ++semi;
    int depth = 0;
    for (std::size_t j = semi + 1; j < t.size(); ++j) {
      const std::string& s2 = t[j].text;
      if (s2 == "{") {
        ++depth;
        continue;
      }
      if (s2 == "}") {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (t[j].kind != TokKind::identifier || s2 != name) continue;
      const std::string& prev = text(t, j - 1);
      const std::string& next = text(t, j + 1);
      if (prev == "." || prev == "->" || prev == "::") continue;  // member of something else
      // Reinitialization ends the moved-from window.
      const bool redecl = (t[j - 1].kind == TokKind::identifier &&
                           expr_keywords().count(prev) == 0) ||
                          prev == ">";
      const bool reassign = next == "=";
      const bool refill = next == "." && reinit_members().count(text(t, j + 2)) != 0 &&
                          is(t, j + 3, "(");
      if (redecl || reassign || refill) break;
      add(out, Rule::L3_use_after_move, path, t[j],
          "'" + name + "' was moved into a pooled-buffer send (line " +
              std::to_string(t[i + 4].line) +
              ") and is read again before being reassigned; the buffer now "
              "belongs to the transport");
      break;  // one finding per move is enough
    }
  }
}

// ---------------------------------------------------------------------------
// L4 — unbounded-recv
// ---------------------------------------------------------------------------

[[nodiscard]] bool range_has(const Toks& t, std::size_t b, std::size_t e, std::string_view s) {
  for (std::size_t j = b; j < e; ++j) {
    if (t[j].text == s) return true;
  }
  return false;
}

[[nodiscard]] bool is_chrono_number(const std::string& s) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) return false;
  // a pp-number whose tail is letters that are not a plain int/float suffix
  std::size_t k = s.size();
  while (k > 0 && std::isalpha(static_cast<unsigned char>(s[k - 1])) != 0) --k;
  const std::string suffix = s.substr(k);
  if (suffix.empty()) return false;
  static const std::set<std::string> int_suffixes{"u",  "U",  "l",   "L",   "ul", "UL",
                                                  "ll", "LL", "ull", "ULL", "f",  "F",
                                                  "uz", "z",  "lu",  "LU"};
  return int_suffixes.count(suffix) == 0;
}

[[nodiscard]] bool looks_like_timeout_ident(const std::string& s) {
  std::string lower;
  for (const char c : s) lower.push_back(static_cast<char>(std::tolower(c)));
  return lower.find("timeout") != std::string::npos ||
         lower.find("deadline") != std::string::npos;
}

void rule_l4(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  for (const auto& [b, e] : function_bodies(t)) {
    // Scope: only functions that *construct* fault-tolerance options —
    // `FtOptions`/`FaultPlan` followed by a binding — opt into the rule.
    bool configures_ft = false;
    for (std::size_t j = b; j < e; ++j) {
      if ((is(t, j, "FtOptions") || is(t, j, "FaultPlan")) &&
          (is_ident(t, j + 1) || is(t, j + 1, "{"))) {
        configures_ft = true;
        break;
      }
    }
    if (!configures_ft) continue;
    // A function that also bounds its ops is configured correctly.
    if (range_has(t, b, e, "set_op_timeout") || range_has(t, b, e, "op_timeout_ns")) continue;
    for (std::size_t j = b; j + 2 < e; ++j) {
      if (!is(t, j, ".") && !is(t, j, "->")) continue;
      if (!is_ident(t, j + 1) || t[j + 1].text.rfind("recv", 0) != 0) continue;
      std::size_t open = j + 2;
      if (is(t, open, "<")) {  // explicit template argument list
        int depth = 0;
        std::size_t k = open;
        for (; k < e && k < open + 16; ++k) {
          if (t[k].text == "<") ++depth;
          if (t[k].text == ">" && --depth == 0) {
            ++k;
            break;
          }
        }
        open = k;
      }
      if (!is(t, open, "(")) continue;
      const std::size_t close = close_of(t, open);
      bool timed = false;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (t[k].kind == TokKind::number && is_chrono_number(t[k].text)) timed = true;
        if (t[k].kind == TokKind::identifier && looks_like_timeout_ident(t[k].text)) timed = true;
      }
      if (timed) continue;
      add(out, Rule::L4_unbounded_recv, path, t[j + 1],
          "'" + t[j + 1].text +
              "' blocks forever, but this function configures fault tolerance "
              "(FtOptions/FaultPlan); a failed peer would hang it — pass a "
              "timeout or set RunOptions::op_timeout_ns");
    }
  }
}

// ---------------------------------------------------------------------------
// L5 — magic-tag
// ---------------------------------------------------------------------------

/// Member → index of its tag parameter.
const std::map<std::string, std::size_t>& tag_positions() {
  static const std::map<std::string, std::size_t> k{
      {"send", 1},          {"send_value", 1},      {"send_move", 1},
      {"send_bytes", 1},    {"send_bytes_move", 1}, {"recv", 1},
      {"recv_value", 1},    {"recv_bytes", 1},      {"recv_buffer", 1},
      {"probe", 1},         {"recv_into", 2},       {"recv_bytes_into", 2},
      {"post", 2},          {"post_move", 2},       {"take", 2},
      {"try_peek", 2},
  };
  return k;
}

[[nodiscard]] bool parse_int(const std::string& s, long long& out) {
  std::string clean;
  for (const char c : s) {
    if (c != '\'') clean.push_back(c);
  }
  char* end = nullptr;
  const long long v = std::strtoll(clean.c_str(), &end, 0);
  if (end == clean.c_str()) return false;
  // allow integer suffixes, reject float-looking remainders
  for (const char* p = end; *p != '\0'; ++p) {
    if (*p == '.' || *p == 'e' || *p == 'E') return false;
  }
  out = v;
  return true;
}

/// Named integer constants: `constexpr int kTag = 7;` → 7 → "kTag".
[[nodiscard]] std::map<long long, std::string> named_int_consts(const Toks& t) {
  std::map<long long, std::string> consts;
  for (std::size_t i = 2; i + 2 < t.size(); ++i) {
    if (!is(t, i, "=") || t[i + 1].kind != TokKind::number || !is(t, i + 2, ";")) continue;
    if (t[i - 1].kind != TokKind::identifier) continue;
    const std::size_t s = stmt_start(t, i - 1);
    bool is_const = false;
    for (std::size_t j = s; j < i; ++j) {
      if (is(t, j, "const") || is(t, j, "constexpr")) {
        is_const = true;
        break;
      }
    }
    if (!is_const) continue;
    // Only constants that *name a tag* count — matching any integer
    // constant of equal value would indict unrelated numbers.
    std::string lower;
    for (const char ch : t[i - 1].text) lower.push_back(static_cast<char>(std::tolower(ch)));
    if (lower.find("tag") == std::string::npos) continue;
    long long v = 0;
    if (parse_int(t[i + 1].text, v)) consts.emplace(v, t[i - 1].text);
  }
  return consts;
}

void rule_l5(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  const std::map<long long, std::string> consts = named_int_consts(t);
  std::map<long long, std::map<std::string, int>> tag_types;  // value → type → first line
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is(t, i, ".") && !is(t, i, "->")) continue;
    if (!is_ident(t, i + 1)) continue;
    const auto pos = tag_positions().find(t[i + 1].text);
    if (pos == tag_positions().end()) continue;
    std::size_t open = i + 2;
    std::string template_arg;
    if (is(t, open, "<")) {
      int depth = 0;
      std::size_t k = open;
      for (; k < t.size() && k < open + 16; ++k) {
        if (t[k].text == "<") ++depth;
        if (t[k].text == ">" && --depth == 0) break;
        if (depth >= 1 && k > open) template_arg += t[k].text;
      }
      if (!is(t, k, ">")) continue;
      open = k + 1;
    }
    if (!is(t, open, "(")) continue;
    const std::size_t close = close_of(t, open);
    const auto args = split_args(t, open, close);
    if (args.size() <= pos->second) continue;
    const auto [ab, ae] = args[pos->second];
    if (ae != ab + 1 || t[ab].kind != TokKind::number) continue;  // not a lone literal
    long long v = 0;
    if (!parse_int(t[ab].text, v)) continue;
    const auto named = consts.find(v);
    if (named != consts.end()) {
      add(out, Rule::L5_magic_tag, path, t[ab],
          "raw tag " + t[ab].text + " in '" + t[i + 1].text + "' — this file names that tag '" +
              named->second + "'; use the constant so senders and receivers cannot drift");
    }
    if (!template_arg.empty()) {
      auto& types = tag_types[v];
      const auto [it, inserted] = types.emplace(template_arg, t[ab].line);
      (void)it;
      if (!inserted) continue;
      if (types.size() == 2) {
        add(out, Rule::L5_magic_tag, path, t[ab],
            "tag " + t[ab].text + " carries payload type '" + template_arg +
                "' here but a different type elsewhere in this file; reusing one tag "
                "for two message streams invites type-confused matches");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L6 — ignored-result
// ---------------------------------------------------------------------------

const std::set<std::string>& discardable_members() {
  static const std::set<std::string> k{"try_peek", "probe", "shrink", "delay_ns", "load",
                                       "has"};
  return k;
}

void rule_l6(const std::string& path, const Toks& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool at_start = i == 0 || is(t, i - 1, ";") || is(t, i - 1, "{") || is(t, i - 1, "}") ||
                          is(t, i - 1, ":");
    if (!at_start || !is_ident(t, i)) continue;
    std::size_t j = i;
    std::string last = t[j].text;
    ++j;
    while (j + 1 < t.size() &&
           (is(t, j, ".") || is(t, j, "->") || is(t, j, "::")) && is_ident(t, j + 1)) {
      last = t[j + 1].text;
      j += 2;
    }
    if (!is(t, j, "(")) continue;
    const std::size_t close = close_of(t, j);
    if (!is(t, close + 1, ";")) continue;
    if (discardable_members().count(last) == 0) continue;
    add(out, Rule::L6_ignored_result, path, t[i],
        "result of '" + last +
            "' is discarded; it reports whether the operation found/did anything "
            "— check it or cast to void to state the intent");
  }
}

}  // namespace

void run_rules(const std::string& path, const TokenStream& ts, const Options& opts,
               std::vector<Finding>& out) {
  const Toks& t = ts.tokens;
  if (opts.on(Rule::L1_capture_race)) rule_l1(path, t, out);
  if (opts.on(Rule::L2_collective_divergence)) rule_l2(path, t, out);
  if (opts.on(Rule::L3_use_after_move)) rule_l3(path, t, out);
  if (opts.on(Rule::L4_unbounded_recv)) rule_l4(path, t, out);
  if (opts.on(Rule::L5_magic_tag)) rule_l5(path, t, out);
  if (opts.on(Rule::L6_ignored_result)) rule_l6(path, t, out);
}

}  // namespace peachy::lint
