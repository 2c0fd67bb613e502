// Generator self-tests: determinism, seed sensitivity, class shares,
// distinctness of the cold cells, and interactive deltas that address the
// working set. Exits 1 on the first failed check.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen.hpp"
#include "svc/spec.hpp"
#include "wire/protocol.hpp"

using namespace e2ebench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void check_share(const std::string& what, double count, double total, double target,
                 double tolerance) {
  const double share = count / total;
  check(std::fabs(share - target) <= tolerance,
        what + " share " + std::to_string(share) + " within " + std::to_string(tolerance) +
            " of " + std::to_string(target));
}

std::vector<Request> take(const std::function<Request()>& next, std::size_t n) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

std::vector<std::string> lines(const std::vector<Request>& reqs) {
  std::vector<std::string> out;
  for (const Request& r : reqs) out.push_back(r.line);
  return out;
}

std::string canonical(const std::string& line) {
  const closfair::wire::Request r = closfair::wire::parse_request(line);
  if (!r.spec.has_value()) return "unparsed: " + r.error;
  return r.spec->canonical();
}

void test_determinism_and_seeds() {
  const auto sweep = [](std::uint64_t seed) {
    SweepGen g(seed);
    return lines(take([&] { return g.next(); }, 500));
  };
  const auto exact = [](std::uint64_t seed) {
    ExactGen g(seed, 1);
    return lines(take([&] { return g.next(); }, 200));
  };
  const auto interactive = [](std::uint64_t seed) {
    const WorkingSet ws = make_working_set(seed);
    InteractiveGen g(ws, seed, 0);
    std::vector<std::string> out = ws.specs;
    for (const Request& r : take([&] { return g.next(); }, 1000)) out.push_back(r.line);
    return out;
  };
  check(sweep(7) == sweep(7), "sweep_cold: same seed, same bytes");
  check(exact(7) == exact(7), "exact_search: same seed, same bytes");
  check(interactive(7) == interactive(7), "interactive: same seed, same bytes");

  const auto disjoint = [](const std::vector<std::string>& a, const std::vector<std::string>& b) {
    std::set<std::string> sa(a.begin(), a.end());
    for (const std::string& s : b) {
      if (sa.contains(s)) return false;
    }
    return true;
  };
  check(disjoint(sweep(7), sweep(8)), "sweep_cold: another seed, other cells");
  check(disjoint(exact(7), exact(8)), "exact_search: another seed, other cells");
  const WorkingSet a = make_working_set(7);
  const WorkingSet b = make_working_set(8);
  check(disjoint(a.specs, b.specs), "interactive: another seed, another working set");
}

void test_sweep() {
  SweepGen g(11);
  const std::vector<Request> reqs = take([&] { return g.next(); }, 20000);
  std::map<std::string, double> n;
  std::set<std::string> canon;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::string& k = reqs[i].klass;
    n[k.starts_with("fattree") ? "fattree" : k.starts_with("thm42") ? "thm42" : "clos"] += 1;
    if (k.ends_with("_fault")) n["fault"] += 1;
    if (i < 5000) canon.insert(canonical(reqs[i].line));
  }
  check_share("sweep_cold fat-tree", n["fattree"], 20000, kSweepFattreeShare, 0.01);
  check_share("sweep_cold Thm 4.2", n["thm42"], 20000, kSweepThm42Share, 0.01);
  check_share("sweep_cold fault", n["fault"], 20000, kSweepFaultShare, 0.015);
  check(canon.size() == 5000 && !canon.contains(""), "sweep_cold: 5000 cells pairwise distinct");
}

void test_exact() {
  std::map<std::string, double> n;
  std::set<std::string> canon;
  double total = 0;
  for (unsigned stream = 0; stream < 2; ++stream) {
    ExactGen g(11, stream);
    for (const Request& r : take([&] { return g.next(); }, 10000)) {
      total += 1;
      n[r.klass == "replicate" ? "replicate" : "exhaustive"] += 1;
      if (r.klass.ends_with("_lp")) n["lp"] += 1;
      if (canon.size() < 4000 * (stream + 1)) canon.insert(canonical(r.line));
    }
  }
  check_share("exact_search replicate", n["replicate"], total, kExactReplicateShare, 0.01);
  check_share("exact_search LP objective (of exhaustive)", n["lp"], n["exhaustive"], kExactLpShare,
              0.015);
  check(canon.size() == 8000, "exact_search: 8000 cells over both streams pairwise distinct");
}

void test_interactive() {
  const WorkingSet ws = make_working_set(11);
  check(ws.specs.size() == kWorkingSetSize, "interactive: working set of 256");
  std::set<std::uint64_t> hashes(ws.hashes.begin(), ws.hashes.end());
  check(hashes.size() == ws.specs.size(), "interactive: working-set bases are distinct");
  std::map<std::string, double> n;
  bool targets_ok = true;
  bool resubmits_ok = true;
  bool respelled = false;
  double deltas = 0;
  double total = 0;
  for (unsigned stream = 0; stream < 2; ++stream) {
    InteractiveGen g(ws, 11, stream);
    for (const Request& r : take([&] { return g.next(); }, 10000)) {
      total += 1;
      n[r.klass] += 1;
      const closfair::wire::Request parsed = closfair::wire::parse_request(r.line);
      if (r.delta) {
        deltas += 1;
        targets_ok = targets_ok && parsed.is_delta() && hashes.contains(parsed.delta->base) &&
                     parsed.delta->base == ws.hashes[r.base];
      } else {
        resubmits_ok = resubmits_ok && parsed.spec.has_value() &&
                       parsed.spec->content_hash() == ws.hashes[r.base];
        respelled = respelled || r.line != ws.specs[r.base];
      }
    }
  }
  check_share("interactive delta", deltas, total, kInteractiveDeltaShare, 0.01);
  for (const char* k : kDeltaClasses) check_share(std::string{"interactive "} + k, n[k], deltas, 0.2, 0.02);
  check(targets_ok, "interactive: every delta targets a working-set base");
  check(resubmits_ok, "interactive: every resubmission addresses its working-set base");
  check(respelled, "interactive: resubmissions are respelled");
}

}  // namespace

int main() {
  test_determinism_and_seeds();
  test_sweep();
  test_exact();
  test_interactive();
  std::printf("%s\n", failures == 0 ? "all generator self-tests passed" : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
