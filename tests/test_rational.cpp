#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <unordered_set>

namespace closfair {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_zero());
}

TEST(Rational, IntegerConstruction) {
  Rational r{7};
  EXPECT_EQ(r.num(), 7);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.is_integer());
}

TEST(Rational, ReducesToLowestTerms) {
  Rational r{6, 8};
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSignToDenominator) {
  Rational r{3, -4};
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
  EXPECT_TRUE(r.is_negative());

  Rational s{-3, -4};
  EXPECT_EQ(s.num(), 3);
  EXPECT_EQ(s.den(), 4);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, ZeroNumeratorNormalizes) {
  Rational r{0, 17};
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, Addition) {
  EXPECT_EQ(Rational(1, 3) + Rational(1, 6), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) + Rational(1, 2), Rational(1));
  EXPECT_EQ(Rational(-1, 2) + Rational(1, 2), Rational(0));
}

TEST(Rational, Subtraction) {
  EXPECT_EQ(Rational(1) - Rational(1, 3), Rational(2, 3));
  EXPECT_EQ(Rational(1, 3) - Rational(1, 2), Rational(-1, 6));
}

TEST(Rational, Multiplication) {
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 3) * Rational(3, 2), Rational(-1));
}

TEST(Rational, Division) {
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(Rational(1, 2) / Rational(-2), Rational(-1, 4));
  EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, DivisionBySignedValueKeepsDenPositive) {
  const Rational r = Rational(1, 3) / Rational(-2, 5);
  EXPECT_GT(r.den(), 0);
  EXPECT_EQ(r, Rational(-5, 6));
}

TEST(Rational, UnaryMinus) {
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_EQ(-Rational(0), Rational(0));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_EQ(Rational(2, 4) <=> Rational(1, 2), std::strong_ordering::equal);
  EXPECT_GT(Rational(5, 3), Rational(3, 2));
}

TEST(Rational, OrderingNearInt64Extremes) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  EXPECT_LT(Rational(big - 1), Rational(big));
  EXPECT_LT(Rational(big, 3), Rational(big, 2));
}

TEST(Rational, MinMaxAbs) {
  EXPECT_EQ(min(Rational(1, 3), Rational(1, 2)), Rational(1, 3));
  EXPECT_EQ(max(Rational(1, 3), Rational(1, 2)), Rational(1, 2));
  EXPECT_EQ(abs(Rational(-3, 7)), Rational(3, 7));
  EXPECT_EQ(abs(Rational(3, 7)), Rational(3, 7));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 4).to_double(), -0.25);
}

TEST(Rational, Streaming) {
  std::ostringstream os;
  os << Rational(3, 7) << ' ' << Rational(5) << ' ' << Rational(-1, 2);
  EXPECT_EQ(os.str(), "3/7 5 -1/2");
  EXPECT_EQ(Rational(2, 6).to_string(), "1/3");
}

TEST(Rational, ToStringMatchesStreamingAtTheExtremes) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const Rational cases[] = {
      Rational{0},           Rational{1},           Rational{-1},
      Rational{kMin},        Rational{kMax},        Rational{kMin + 1},
      Rational{kMin, 3},     Rational{kMax, 2},     Rational{-kMax, kMax - 1},
      Rational{1, kMax},     Rational{-1, kMax},    Rational{kMax - 1, kMax},
      Rational{-3, 7},       Rational{22, 7},       Rational{1000000007, 998244353},
  };
  for (const Rational& r : cases) {
    std::ostringstream os;
    os << r;
    EXPECT_EQ(r.to_string(), os.str());
  }
  EXPECT_EQ(Rational{kMin}.to_string(), "-9223372036854775808");
  EXPECT_EQ(Rational(-kMax, kMax - 1).to_string(),
            "-9223372036854775807/9223372036854775806");
}

TEST(Rational, AdditionOverflowThrows) {
  const Rational huge{std::numeric_limits<std::int64_t>::max()};
  EXPECT_THROW(huge + huge, RationalOverflow);
}

TEST(Rational, MultiplicationOverflowThrows) {
  const Rational big{std::int64_t{1} << 40};
  EXPECT_THROW(big * big, RationalOverflow);
}

TEST(Rational, MultiplicationReducesBeforeNarrowing) {
  // (2^40 / 3) * (3 / 2^40) = 1 — exact despite huge cross products.
  const Rational a{std::int64_t{1} << 40, 3};
  const Rational b{3, std::int64_t{1} << 40};
  EXPECT_EQ(a * b, Rational(1));
}

TEST(Rational, NegationOfInt64MinThrows) {
  // -INT64_MIN is unrepresentable; normalization must detect it.
  EXPECT_THROW(Rational(std::numeric_limits<std::int64_t>::min(), -1), RationalOverflow);
}

TEST(Rational, HashConsistentWithEquality) {
  std::hash<Rational> h;
  EXPECT_EQ(h(Rational(2, 4)), h(Rational(1, 2)));
  std::unordered_set<Rational> set;
  set.insert(Rational(1, 3));
  set.insert(Rational(2, 6));
  EXPECT_EQ(set.size(), 1u);
}

TEST(Rational, CompoundAssignmentChains) {
  Rational r{1, 2};
  r += Rational{1, 3};
  r -= Rational{1, 6};
  r *= Rational{3};
  r /= Rational{2};
  EXPECT_EQ(r, Rational(1));
}

// Fuzz: every operation agrees with a reference implementation over
// __int128 fractions (never normalized, compared by cross-multiplication).
TEST(Rational, ArithmeticAgreesWithInt128Oracle) {
  struct Frac {
    __int128 num;
    __int128 den;  // > 0
  };
  auto equal = [](Frac a, const Rational& b) {
    return a.num * b.den() == static_cast<__int128>(b.num()) * a.den;
  };
  std::uint64_t seed = 99;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((seed >> 33) % 41) - 20;  // [-20, 20]
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const std::int64_t an = next();
    const std::int64_t bn = next();
    std::int64_t ad = next();
    std::int64_t bd = next();
    if (ad == 0) ad = 7;
    if (bd == 0) bd = 3;
    const Rational a{an, ad};
    const Rational b{bn, bd};
    Frac fa{an, ad};
    Frac fb{bn, bd};
    if (fa.den < 0) {
      fa.num = -fa.num;
      fa.den = -fa.den;
    }
    if (fb.den < 0) {
      fb.num = -fb.num;
      fb.den = -fb.den;
    }
    ASSERT_TRUE(equal(Frac{fa.num * fb.den + fb.num * fa.den, fa.den * fb.den}, a + b));
    ASSERT_TRUE(equal(Frac{fa.num * fb.den - fb.num * fa.den, fa.den * fb.den}, a - b));
    ASSERT_TRUE(equal(Frac{fa.num * fb.num, fa.den * fb.den}, a * b));
    if (bn != 0) {
      Frac q{fa.num * fb.den, fa.den * fb.num};
      if (q.den < 0) {
        q.num = -q.num;
        q.den = -q.den;
      }
      ASSERT_TRUE(equal(q, a / b));
    }
    // Ordering agrees with cross-multiplication.
    ASSERT_EQ(a < b, fa.num * fb.den < fb.num * fa.den);
  }
}

// Water-filling produces sums of unit fractions; spot-check a telescoping
// identity exercised heavily by the allocation code.
TEST(Rational, HarmonicTelescoping) {
  Rational sum{0};
  for (int i = 1; i <= 50; ++i) {
    sum += Rational{1, static_cast<std::int64_t>(i) * (i + 1)};
  }
  EXPECT_EQ(sum, Rational(50, 51));
}

}  // namespace
}  // namespace closfair
