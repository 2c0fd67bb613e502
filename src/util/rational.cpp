#include "util/rational.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <ostream>

namespace closfair {
namespace {

using Int128 = __int128;

constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();

std::int64_t narrow(Int128 v, const char* op) {
  if (v < Int128{kMin64} || v > Int128{kMax64}) {
    throw RationalOverflow(std::string{"Rational overflow in "} + op);
  }
  return static_cast<std::int64_t>(v);
}

Int128 gcd128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

Rational::Rational(std::int64_t num, std::int64_t den) {
  if (den == 0) throw std::domain_error("Rational: zero denominator");
  if (num != kMin64 && den != kMin64) {
    // Common case entirely in 64-bit: negation is safe away from INT64_MIN,
    // and the reduced pair can only shrink, so nothing can overflow.
    if (den < 0) {
      num = -num;
      den = -den;
    }
    const std::uint64_t g =
        std::gcd(static_cast<std::uint64_t>(num < 0 ? -num : num),
                 static_cast<std::uint64_t>(den));
    if (g > 1) {
      num /= static_cast<std::int64_t>(g);
      den /= static_cast<std::int64_t>(g);
    }
    num_ = num;
    den_ = den;
    return;
  }
  // Normalize via 128-bit so that num == INT64_MIN does not overflow on negate.
  Int128 n = num;
  Int128 d = den;
  if (d < 0) {
    n = -n;
    d = -d;
  }
  Int128 g = gcd128(n, d);
  if (g > 1) {
    n /= g;
    d /= g;
  }
  num_ = narrow(n, "construction");
  den_ = narrow(d, "construction");
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::to_string() const {
  // operator<<'s "num" or "num/den", without a stream. An int64 takes at
  // most 20 characters, sign included.
  constexpr std::size_t kInt64Chars = 20;
  char buf[2 * kInt64Chars + 1];
  char* out = std::to_chars(buf, buf + kInt64Chars, num_).ptr;
  if (den_ != 1) {
    *out = '/';
    out = std::to_chars(out + 1, buf + sizeof(buf), den_).ptr;
  }
  return std::string(buf, out);
}

Rational& Rational::operator+=(const Rational& rhs) {
  // a/b + c/d = (ad + cb) / bd, reduced. 128-bit intermediates cannot
  // overflow since each factor fits in 64 bits.
  Int128 n = Int128{num_} * rhs.den_ + Int128{rhs.num_} * den_;
  Int128 d = Int128{den_} * rhs.den_;
  Int128 g = gcd128(n, d);
  if (g > 1) {
    n /= g;
    d /= g;
  }
  num_ = narrow(n, "addition");
  den_ = narrow(d, "addition");
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  Int128 n = Int128{num_} * rhs.den_ - Int128{rhs.num_} * den_;
  Int128 d = Int128{den_} * rhs.den_;
  Int128 g = gcd128(n, d);
  if (g > 1) {
    n /= g;
    d /= g;
  }
  num_ = narrow(n, "subtraction");
  den_ = narrow(d, "subtraction");
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  Int128 n = Int128{num_} * rhs.num_;
  Int128 d = Int128{den_} * rhs.den_;
  Int128 g = gcd128(n, d);
  if (g > 1) {
    n /= g;
    d /= g;
  }
  num_ = narrow(n, "multiplication");
  den_ = narrow(d, "multiplication");
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  if (rhs.num_ == 0) throw std::domain_error("Rational: division by zero");
  Int128 n = Int128{num_} * rhs.den_;
  Int128 d = Int128{den_} * rhs.num_;
  if (d < 0) {
    n = -n;
    d = -d;
  }
  Int128 g = gcd128(n, d);
  if (g > 1) {
    n /= g;
    d /= g;
  }
  num_ = narrow(n, "division");
  den_ = narrow(d, "division");
  return *this;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  // Cross-multiply in 128 bits: denominators are positive, so the sign of
  // a.num*b.den - b.num*a.den is the sign of a - b.
  Int128 lhs = Int128{a.num_} * b.den_;
  Int128 rhs = Int128{b.num_} * a.den_;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  os << r.num();
  if (r.den() != 1) os << '/' << r.den();
  return os;
}

std::int64_t gcd_i64(std::int64_t a, std::int64_t b) {
  return narrow(gcd128(Int128{a}, Int128{b}), "gcd");
}

bool checked_lcm_i64(std::int64_t a, std::int64_t b, std::int64_t& out) {
  const std::int64_t g = gcd_i64(a, b);
  if (g == 0) {
    out = 0;
    return true;
  }
  return checked_mul_i64(a / g, b, out);
}

Rational rational_from_string(std::string_view text) {
  const auto parse_i64 = [&](std::string_view token) -> std::int64_t {
    if (token.empty()) throw std::invalid_argument("empty rational component");
    std::int64_t value = 0;
    std::size_t i = 0;
    bool negative = false;
    if (token[0] == '-') {
      negative = true;
      i = 1;
      if (token.size() == 1) throw std::invalid_argument("bare '-' in rational");
    }
    for (; i < token.size(); ++i) {
      const char c = token[i];
      if (c < '0' || c > '9') {
        throw std::invalid_argument("invalid rational '" + std::string{text} + "'");
      }
      const std::int64_t digit = c - '0';
      if (value > (kMax64 - digit) / 10) {
        throw std::invalid_argument("rational component out of int64 range");
      }
      value = value * 10 + digit;
    }
    return negative ? -value : value;
  };

  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational{parse_i64(text)};
  const std::int64_t num = parse_i64(text.substr(0, slash));
  const std::int64_t den = parse_i64(text.substr(slash + 1));
  if (den == 0) throw std::invalid_argument("zero denominator in rational");
  return Rational{num, den};
}

}  // namespace closfair
