// Number formatting shared by every observability export (trace JSONL and
// Perfetto, the runtime timeline, the flight recorder's JSONL and CSV).
#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>

namespace burst {

inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];  // "-9223372036854775808" (20)
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];  // "18446744073709551615" (20)
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

namespace json_fmt_detail {

using u128 = unsigned __int128;

/// 10^0 .. 10^22: the scales the fast path multiplies by (22 at 10^-6).
inline constexpr std::array<u128, 23> kPow10 = [] {
  std::array<u128, 23> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

inline constexpr std::uint64_t k10e16 = 10'000'000'000'000'000;
inline constexpr std::uint64_t k10e17 = 100'000'000'000'000'000;

/// "%.17g" of a finite, non-integer @p a in (10^-6, 2^52), written to @p p;
/// returns the end. The 17 significant digits are the exact product
/// m·10^k / 2^s (a = m·2^-s, 53-bit m, s <= 72, k <= 22, so m·10^k <
/// 2^127), rounded half to even as printf rounds, then laid out in %g's
/// fixed or exponent form with trailing zeros stripped.
inline char* format_fraction(char* p, double a) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(a);
  const int e2 = static_cast<int>(bits >> 52) - 1023;  // 2^e2 <= a < 2^(e2+1)
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int s = 52 - e2;  // >= 1: a is not an integer
  // floor((e2+1)·log10 2), with 78913/2^18 ≈ log10 2, is floor(log10 a)
  // or one more, so k is exact or one too small, never past the table.
  int k = 16 - (((e2 + 1) * 78913) >> 18);
  u128 n = static_cast<u128>(m) * kPow10[static_cast<std::size_t>(k)];
  std::uint64_t d = static_cast<std::uint64_t>(n >> s);
  if (d < k10e16) {
    ++k;
    n = static_cast<u128>(m) * kPow10[static_cast<std::size_t>(k)];
    d = static_cast<std::uint64_t>(n >> s);
  }
  const u128 rem = n & ((u128{1} << s) - 1);
  const u128 half = u128{1} << (s - 1);
  if (rem > half || (rem == half && (d & 1) != 0)) ++d;
  int x = 16 - k;  // decimal exponent of the rounded value
  if (d == k10e17) {
    d = k10e16;
    ++x;
  }

  char digits[17];
  std::to_chars(digits, digits + sizeof(digits), d);  // exactly 17
  int nd = 17;
  while (digits[nd - 1] == '0') --nd;

  if (x < -4) {  // exponent form: d.ddde-0X (x is -5 or -6 here)
    *p++ = digits[0];
    if (nd > 1) {
      *p++ = '.';
      for (int i = 1; i < nd; ++i) *p++ = digits[i];
    }
    *p++ = 'e';
    *p++ = '-';
    *p++ = '0';
    *p++ = static_cast<char>('0' - x);
    return p;
  }
  if (x < 0) {  // 0.000ddd
    *p++ = '0';
    *p++ = '.';
    for (int i = -1; i > x; --i) *p++ = '0';
    for (int i = 0; i < nd; ++i) *p++ = digits[i];
    return p;
  }
  for (int i = 0; i <= x; ++i) *p++ = i < nd ? digits[i] : '0';
  if (nd > x + 1) {
    *p++ = '.';
    for (int i = x + 1; i < nd; ++i) *p++ = digits[i];
  }
  return p;
}

}  // namespace json_fmt_detail

/// Deterministic %.17g: max_digits10 significant digits round-trip any
/// finite double exactly and, unlike shortest-round-trip printing, are
/// deterministic across platforms — the exports are golden-tested byte for
/// byte (tests/json_fmt_test.cpp holds this to snprintf).
///
/// Two exact fast paths cover what traces hold: integer-valued doubles
/// below 10^16 (at most 16 digits, so %.17g prints them as integers), and
/// other values in (10^-6, 10^16), formatted in 128-bit integer arithmetic
/// by format_fraction. The rest — negative zero, magnitudes up to the
/// double 1e-6 or from 10^16, and non-finite values — goes to
/// std::to_chars with chars_format::general at precision 17, which
/// [charconv.to.chars] specifies as printf's "%.17g" in the "C" locale.
inline void append_double(std::string& out, double v) {
  const double a = std::fabs(v);
  if (a < 1e16) {  // false for NaN
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      append_i64(out, i);
      return;
    }
    if (a > 1e-6) {  // the double 1e-6 lies below 10^-6
      char buf[32];
      char* p = buf;
      if (v < 0) *p++ = '-';
      out.append(buf, json_fmt_detail::format_fraction(p, a));
      return;
    }
  }
  char buf[32];  // longest %.17g: "-1.2345678901234567e-308" (24)
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

}  // namespace burst
