#include "flow/allocation.hpp"

#include <algorithm>
#include <sstream>

namespace closfair {
namespace {

std::string bracketed(const std::vector<Rational>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  os << ']';
  return os.str();
}

}  // namespace

void sorted_key(const std::vector<Rational>& rates, const std::vector<Rational>* divisors,
                std::vector<Rational>& out) {
  out.assign(rates.begin(), rates.end());
  if (divisors != nullptr) {
    for (std::size_t f = 0; f < out.size(); ++f) out[f] /= (*divisors)[f];
  }
  std::sort(out.begin(), out.end());
}

std::string format_sorted(const Allocation<Rational>& alloc) { return bracketed(alloc.sorted()); }

std::string format_rates(const Allocation<Rational>& alloc) { return bracketed(alloc.rates()); }

}  // namespace closfair
