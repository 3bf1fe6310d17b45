#include "util/strings.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace auric::util {
namespace {

TEST(Split, BasicAndEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Join, RoundTripsSplit) {
  const std::vector<std::string> parts{"rf", "knn", "cf"};
  EXPECT_EQ(join(parts, ","), "rf,knn,cf");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
}

TEST(Trim, RemovesOuterWhitespaceOnly) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(format_fixed(95.478, 2), "95.48");
  EXPECT_EQ(format_fixed(-0.5, 0), "-0");  // printf rounding semantics
}

/// append_general / append_fixed must reproduce snprintf byte for byte
/// (the serve bodies depend on it): edge values, then seeded doubles drawn
/// from raw bit patterns and from the ranges the bodies print.
TEST(AppendDouble, MatchesSnprintf) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.5, 0.00001, 0.0001, 123456.0,
                                999999.0, 999999.5, 1e6, 1e-5, 1e300, -1e-300, 5e-324,
                                0.00005, 0.99995, 1.00005, 2.5, 3.5, 1234.56785,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min()};
  Rng rng(20260);
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t bits = rng();
    double raw = 0.0;
    std::memcpy(&raw, &bits, sizeof(raw));
    if (std::isfinite(raw)) values.push_back(raw);
    values.push_back(rng.uniform());                        // support / margin
    values.push_back(std::round(rng.uniform() * 2e4) / 4);  // domain values
    const double scale = std::pow(10.0, static_cast<double>(rng.uniform_int(-8, 12)));
    values.push_back((rng.uniform() - 0.5) * scale);
  }
  char ref[512];
  for (const double v : values) {
    std::string got;
    append_general(got, v, 6);
    std::snprintf(ref, sizeof(ref), "%g", v);
    ASSERT_EQ(got, ref) << "general " << ref;
    got.clear();
    append_fixed(got, v, 4);
    std::snprintf(ref, sizeof(ref), "%.4f", v);
    ASSERT_EQ(got, ref) << "fixed " << ref;
  }
}

TEST(WithCommas, GroupsThousands) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(4528139), "4,528,139");
  EXPECT_EQ(with_commas(-12345), "-12,345");
}

}  // namespace
}  // namespace auric::util
