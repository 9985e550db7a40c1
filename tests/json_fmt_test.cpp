// The export formatters must write exactly what printf would: the JSONL
// golden and the lp1/lp2 byte-identity tests pin bytes, and this pins the
// bytes to the "%.17g" / "%lld" contract itself rather than to whichever
// formatting routine the library happens to use.
#include "src/obs/json_fmt.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
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
