// The export formatters must write exactly what printf would: the JSONL
// golden and the lp1/lp2 byte-identity tests pin bytes, and this pins the
// bytes to the "%.17g" / "%lld" contract itself rather than to whichever
// formatting routine the library happens to use.
#include "src/obs/json_fmt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace burst {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string formatted(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(JsonFmt, AppendDoubleMatchesPrintfOnEdgeValues) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> edges = {
      0.0,     -0.0,    5e-324,  -5e-324, 1e-300, -1e-300, 1e300,
      -1e300,  kMax,    -kMax,   kInf,    -kInf,  2.2250738585072014e-308,
      1.0,     -1.0,    0.1,     1e-5,    1e16,   1e17,    123456789012345678.0,
      9007199254740992.0, 9007199254740993.0, 0.5, 1.5e-7, 20.0};
  for (const double v : edges) {
    EXPECT_EQ(formatted(v), printf_g17(v)) << "bits of " << printf_g17(v);
  }
}

// One seeded pass over well above 10^6 values from every family the exports
// can meet: subnormals, huge and tiny magnitudes, integers up to 2^53,
// simulation times in [0, 20) and their microsecond scalings, and raw bit
// patterns covering every exponent.
TEST(JsonFmt, AppendDoubleMatchesPrintfOnSeededValues) {
  std::mt19937_64 rng(20000613);
  std::uniform_real_distribution<double> times(0.0, 20.0);
  std::uniform_int_distribution<std::uint64_t> mantissa(
      1, (std::uint64_t{1} << 52) - 1);
  std::uniform_int_distribution<std::int64_t> ints(
      -(std::int64_t{1} << 53), std::int64_t{1} << 53);
  std::uniform_int_distribution<int> exp10(-300, 300);
  std::uniform_int_distribution<std::uint64_t> any_bits;

  constexpr int kPerFamily = 220000;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  auto check = [&](double v) {
    ++checked;
    const std::string got = formatted(v);
    const std::string want = printf_g17(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "to_chars " << got << " vs printf " << want;
    }
  };
  for (int i = 0; i < kPerFamily; ++i) {
    const double t = times(rng);
    check(t);
    check(t * 1e6);  // Perfetto's microsecond timestamps
    check(from_bits(mantissa(rng)));  // subnormal, positive
    check(-from_bits(mantissa(rng)));
    check(static_cast<double>(ints(rng)));
    check(times(rng) * std::pow(10.0, exp10(rng)));
    const double raw = from_bits(any_bits(rng));
    if (std::isfinite(raw)) check(raw);
  }
  EXPECT_GE(checked, std::size_t{1000000});
  EXPECT_EQ(mismatches, 0u);
}

// Checks v and -v against printf, counting mismatches and reporting the
// first few.
class PrintfOracle {
 public:
  void check(double v) {
    for (const double x : {v, -v}) {
      ++checked_;
      const std::string got = formatted(x);
      const std::string want = printf_g17(x);
      if (got != want && ++mismatches_ <= 5) {
        ADD_FAILURE() << "append_double " << got << " vs printf " << want;
      }
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

// The fast path's decimal exponent and its fixed/exponent switch move at
// powers of ten, and its range ends at 1e-6 and 1e16: every double within
// 64 ulps of 10^-7 .. 10^17, both signs.
TEST(JsonFmt, AppendDoubleMatchesPrintfAroundPowersOfTen) {
  PrintfOracle oracle;
  for (int e = -7; e <= 17; ++e) {
    char text[8];
    std::snprintf(text, sizeof(text), "1e%d", e);
    const std::uint64_t bits =
        std::bit_cast<std::uint64_t>(std::strtod(text, nullptr));
    for (int u = -64; u <= 64; ++u) oracle.check(from_bits(bits + u));
  }
  EXPECT_EQ(oracle.checked(), 25u * 129u * 2u);
  EXPECT_EQ(oracle.mismatches(), 0u);
}

// Values whose exact decimal expansion has 18 significant digits ending in
// 5 sit exactly halfway between two 17-digit results; printf rounds them
// to even. j·2^-d with odd j has d decimals ending in 5, and j·5^d in
// [10^17, 10^18) makes that 18 significant digits. Plus the family
// integer + k/8 in [10^15, 2^53).
TEST(JsonFmt, AppendDoubleMatchesPrintfOnExactTies) {
  std::mt19937_64 rng(17);
  PrintfOracle oracle;
  std::size_t ties = 0;
  for (int d = 1; d <= 24; ++d) {
    const double p5 = std::pow(5.0, d);
    const double lo = std::ceil(1e17 / p5);
    const double hi = std::min(std::floor(1e18 / p5), 9007199254740991.0);
    if (lo > hi) continue;
    std::uniform_int_distribution<std::uint64_t> pick(
        static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi));
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t j = pick(rng) | 1;
      if (static_cast<double>(j) > hi) continue;
      const double v = std::ldexp(static_cast<double>(j), -d);
      oracle.check(v);
      ++ties;
    }
  }
  std::uniform_int_distribution<std::uint64_t> ints(
      1'000'000'000'000'000, (std::uint64_t{1} << 53) - 1);
  for (int i = 0; i < 20000; ++i) {
    const double n = static_cast<double>(ints(rng));
    for (int k = 0; k < 8; ++k) oracle.check(n + k / 8.0);
  }
  EXPECT_GE(ties, std::size_t{20000});
  EXPECT_EQ(oracle.mismatches(), 0u);
}

// Integers too wide for a fractional bit: the integer path up to 10^16,
// then to_chars, across the boundary.
TEST(JsonFmt, AppendDoubleMatchesPrintfOnWideIntegers) {
  std::mt19937_64 rng(52);
  std::uniform_int_distribution<std::uint64_t> ints(
      std::uint64_t{1} << 52, 10'000'000'000'000'000 - 1);
  PrintfOracle oracle;
  for (int i = 0; i < 200000; ++i) {
    oracle.check(static_cast<double>(ints(rng)));
  }
  for (const double v : {4503599627370496.0, 4503599627370497.0,
                         9007199254740992.0, 9999999999999998.0,
                         10000000000000000.0, 10000000000000002.0}) {
    oracle.check(v);
  }
  EXPECT_EQ(oracle.mismatches(), 0u);
}

TEST(JsonFmt, AppendIntegersMatchPrintf) {
  const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      -1, 0, 1, 42, -9007199254740993};
  for (const std::int64_t v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    std::string out;
    append_i64(out, v);
    EXPECT_EQ(out, buf);
  }
  std::string out;
  append_u64(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "18446744073709551615");
}

}  // namespace
}  // namespace burst
