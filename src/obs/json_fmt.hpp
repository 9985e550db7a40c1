// Number formatting shared by every observability export (trace JSONL and
// Perfetto, the runtime timeline, the flight recorder's JSONL and CSV).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace burst {

/// Deterministic %.17g: max_digits10 significant digits round-trip any
/// finite double exactly and, unlike shortest-round-trip printing, are
/// deterministic across platforms — the exports are golden-tested byte for
/// byte. std::to_chars with chars_format::general at precision 17 is
/// specified as the printf conversion "%.17g" in the "C" locale
/// ([charconv.to.chars]), so it writes the same bytes as snprintf without
/// the format parse and locale lookup (tests/json_fmt_test.cpp holds the
/// two to byte identity).
inline void append_double(std::string& out, double v) {
  char buf[32];  // longest %.17g: "-1.2345678901234567e-308" (24)
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];  // "-9223372036854775808" (20)
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];  // "18446744073709551615" (20)
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace burst
