#pragma once
// The one clause grammar of the schedule specs (fault/spec.hpp,
// replay/lifecycle.hpp): semicolon-separated clauses of the shape
//
//   kind@TICK[+DUR][:key=value,...]
//
// split the swss `tokenize` way, one delimiter at a time, with checked and
// range-bounded integers. Every error throws std::invalid_argument naming
// the offending clause.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vl::clause {

/// Largest tick a clause may name: message stamps carry 48-bit ticks.
constexpr std::uint64_t kMaxTick = (std::uint64_t{1} << 48) - 1;
/// Largest shard, link or channel index a clause may name (INT_MAX).
constexpr std::uint64_t kMaxIndex = 0x7fffffff;

/// Split on `delim`, keeping empty fields.
inline std::vector<std::string> tokenize(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t p = 0;
  for (std::size_t q; (q = s.find(delim, p)) != std::string::npos; p = q + 1)
    out.push_back(s.substr(p, q - p));
  out.push_back(s.substr(p));
  return out;
}

/// The clauses of `text`: split on ';', trimmed, empty ones dropped.
inline std::vector<std::string> clauses(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& t : tokenize(text, ';')) {
    const auto b = t.find_first_not_of(" \t");
    if (b != std::string::npos)
      out.push_back(t.substr(b, t.find_last_not_of(" \t") - b + 1));
  }
  return out;
}

struct Clause {
  std::string text;     ///< The whole clause, quoted in errors.
  std::string grammar;  ///< "fault", "lifecycle": names the grammar in errors.
  std::size_t kind = 0;  ///< Index into the grammar's kind names.
  std::uint64_t at = 0;
  std::optional<std::uint64_t> dur{};
  std::vector<std::pair<std::string, std::string>> params{};

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("bad " + grammar + " clause '" + text +
                                "': " + why);
  }

  /// `s` as a decimal integer in [0, max].
  std::uint64_t u64(const std::string& s, std::uint64_t max) const {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
      fail("expected a non-negative integer, got '" + s + "'");
    std::uint64_t v = 0;
    for (const char c : s) {
      const auto d = static_cast<std::uint64_t>(c - '0');
      if (d > max || v > (max - d) / 10)
        fail("'" + s + "' is out of range (max " + std::to_string(max) + ")");
      v = v * 10 + d;
    }
    return v;
  }

  /// `s` as a finite number.
  double f64(const std::string& s) const {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v))
      fail("expected a finite number, got '" + s + "'");
    return v;
  }
};

/// Split one clause into its kind (one of `kinds`), tick and optional
/// duration (both <= kMaxTick) and key=value parameters.
inline Clause parse(const std::string& text, const std::string& grammar,
                    std::span<const char* const> kinds) {
  Clause c{.text = text, .grammar = grammar};
  const auto at = text.find('@');
  if (at == std::string::npos) c.fail("missing '@TICK'");
  const std::string kind = text.substr(0, at);
  while (c.kind < kinds.size() && kind != kinds[c.kind]) ++c.kind;
  if (c.kind == kinds.size()) c.fail("unknown kind '" + kind + "'");
  const auto colon = text.find(':', at);
  const std::string when = text.substr(
      at + 1, (colon == std::string::npos ? text.size() : colon) - at - 1);
  const auto plus = when.find('+');
  c.at = c.u64(when.substr(0, plus), kMaxTick);
  if (plus != std::string::npos) c.dur = c.u64(when.substr(plus + 1), kMaxTick);
  if (colon == std::string::npos) return c;
  for (const std::string& kv : tokenize(text.substr(colon + 1), ',')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos)
      c.fail("parameter '" + kv + "' is not key=value");
    c.params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return c;
}

}  // namespace vl::clause
