#include "gen.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "svc/spec.hpp"
#include "wire/protocol.hpp"

namespace e2ebench {
namespace {

using closfair::Json;
using closfair::Rng;

Json num(std::int64_t v) { return Json::number(v); }
Json str(std::string v) { return Json::string(std::move(v)); }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Workload seeds that no other cell of the run shares: a seed-derived
/// 28-bit prefix, one stream bit, and a 20-bit per-stream counter (< 1M
/// cells per stream, far above what a run consumes). Distinct seeds make
/// distinct canonical specs, so the sweeps never hit the cache by accident.
std::uint64_t seed_base(std::uint64_t seed, unsigned stream) {
  return ((mix(seed) & 0xFFFFFFFULL) << 21) | (std::uint64_t{stream & 1U} << 20);
}

int pick(Rng& rng, int lo, int hi) { return static_cast<int>(rng.next_int(lo, hi)); }

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

Json clos_topology(int n) {
  Json t = Json::object();
  t.set("kind", str("clos"));
  t.set("n", num(n));
  return t;
}

constexpr const char* kGenerators[] = {"uniform", "zipf", "hotspot", "incast", "permutation"};

/// A named generator over C_n with at most 2n² flows (`gen` null: a random
/// one).
Json generated_workload(Rng& rng, int n, std::uint64_t seed, const char* gen_name = nullptr) {
  const std::string gen = gen_name != nullptr ? gen_name : pick(rng, kGenerators);
  Json w = Json::object();
  w.set("generator", str(gen));
  if (gen == "uniform" || gen == "zipf" || gen == "hotspot") {
    w.set("count", num(pick(rng, n, 2 * n * n)));
  } else if (gen == "incast") {
    w.set("count", num(pick(rng, 2, n * n)));
  }
  if (gen == "zipf") {
    static const double kSkews[] = {0.5, 1.0, 1.5};
    w.set("skew", Json::number(pick(rng, kSkews)));
  } else if (gen == "hotspot") {
    static const double kFractions[] = {0.25, 0.5, 0.75};
    w.set("hot_tor", num(pick(rng, 1, 2 * n)));
    w.set("hot_fraction", Json::number(pick(rng, kFractions)));
  } else if (gen == "incast") {
    w.set("dst_tor", num(pick(rng, 1, 2 * n)));
    w.set("dst_server", num(pick(rng, 1, n)));
  }
  w.set("seed", num(static_cast<std::int64_t>(seed)));
  return w;
}

/// local_search runs with an explicit move cap: under the default 10,000
/// moves about one C_5 cell in 10,000 cycles for ~3 s, and a single such
/// cell would own a whole sweep run.
constexpr std::int64_t kLocalSearchMoves = 64;

Json routing(const std::string& policy) {
  Json r = Json::object();
  r.set("policy", str(policy));
  if (policy == "local_search") r.set("max_moves", num(kLocalSearchMoves));
  return r;
}

std::string factor(Rng& rng) {
  const int q = pick(rng, 2, 9);
  return std::to_string(pick(rng, 1, q - 1)) + "/" + std::to_string(q);
}

Json derated_link(Rng& rng, int n) {
  Json d = Json::object();
  d.set("stage", str(rng.next_bool() ? "uplink" : "downlink"));
  d.set("tor", num(pick(rng, 1, 2 * n)));
  d.set("middle", num(pick(rng, 1, n)));
  d.set("factor", str(factor(rng)));
  return d;
}

/// One fault group on C_n: a failed middle, a derated link, or one sampled
/// middle outage.
Json fault_group(Rng& rng, int n) {
  Json f = Json::object();
  switch (rng.next_below(3)) {
    case 0: {
      Json m = Json::array();
      m.push_back(num(pick(rng, 1, n)));
      f.set("failed_middles", std::move(m));
      break;
    }
    case 1: {
      Json links = Json::array();
      links.push_back(derated_link(rng, n));
      f.set("derated_links", std::move(links));
      break;
    }
    default:
      f.set("sample_middles", num(1));
      f.set("seed", num(pick(rng, 2, 1 << 20)));
  }
  return f;
}

// Theorem 4.2 / Example 4.1 for n = 3 with the macro-switch target rates
// (examples/instances/theorem_4_2_n3.txt).
struct Thm42Flow {
  Flow4 flow;
  const char* rate;
};
constexpr Thm42Flow kThm42[] = {
    {{1, 2, 1, 2}, "1"},   {{1, 3, 1, 3}, "1"},   {{2, 2, 2, 2}, "1"},
    {{2, 3, 2, 3}, "1"},   {{3, 2, 3, 2}, "1"},   {{3, 3, 3, 3}, "1"},
    {{1, 1, 1, 1}, "1/3"}, {{2, 1, 2, 1}, "1/3"}, {{3, 1, 3, 1}, "1/3"},
    {{1, 1, 4, 1}, "1/3"}, {{1, 1, 4, 2}, "1/3"}, {{2, 1, 4, 1}, "1/3"},
    {{2, 1, 4, 2}, "1/3"}, {{3, 1, 4, 1}, "1/3"}, {{3, 1, 4, 2}, "1/3"},
    {{4, 3, 4, 3}, "1"},
};

std::string flow_line(const Flow4& f, const std::string& rate = "") {
  std::string line = "flow " + std::to_string(f[0]) + " " + std::to_string(f[1]) + " -> " +
                     std::to_string(f[2]) + " " + std::to_string(f[3]);
  if (!rate.empty()) line += " @" + rate;
  return line + "\n";
}

std::string instance_text(int n, const std::vector<Flow4>& flows) {
  std::string text = "clos n=" + std::to_string(n) + "\n";
  for (const Flow4& f : flows) text += flow_line(f);
  return text;
}

Flow4 random_flow(Rng& rng, int n) {
  return {pick(rng, 1, 2 * n), pick(rng, 1, n), pick(rng, 1, 2 * n), pick(rng, 1, n)};
}

/// Thm 4.2 n=3 in a shuffled flow order; `variant` 1 drops one flow,
/// variant 2 adds one random flow at rate 1/3.
std::string thm42_instance(Rng& rng, int variant) {
  std::vector<std::string> lines;
  for (const Thm42Flow& f : kThm42) lines.push_back(flow_line(f.flow, f.rate));
  rng.shuffle(lines);
  if (variant == 1) lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
  if (variant == 2) lines.push_back(flow_line(random_flow(rng, 3), "1/3"));
  std::string text = "clos n=3\n";
  for (const std::string& l : lines) text += l;
  return text;
}

Json instance_workload(std::string text, std::uint64_t seed) {
  Json w = Json::object();
  w.set("instance", str(std::move(text)));
  w.set("seed", num(static_cast<std::int64_t>(seed)));
  return w;
}

Json spec(Json topology, Json workload, Json routing_group) {
  Json s = Json::object();
  if (!topology.is_null()) s.set("topology", std::move(topology));
  s.set("workload", std::move(workload));
  s.set("routing", std::move(routing_group));
  return s;
}

/// A copy of object `base` with `key` set to `value` (appended or replaced).
Json with(const Json& base, const std::string& key, Json value) {
  Json out = base;
  out.set(key, std::move(value));
  return out;
}

Json envelope_id(Rng& rng) {
  return rng.next_bool() ? num(pick(rng, 0, 1 << 30))
                         : str("r" + std::to_string(rng.next_below(1 << 20)));
}

void whitespace(Rng& rng, std::string& out) {
  static const char* kSpaces[] = {"", "", " ", "  ", "\t"};
  out += pick(rng, kSpaces);
}

void respell_into(const Json& value, Rng& rng, std::string& out) {
  if (value.is_object()) {
    std::vector<std::size_t> order(value.members().size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    out += '{';
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& [key, member] = value.members()[order[i]];
      if (i > 0) out += ',';
      whitespace(rng, out);
      out += Json::string(key).dump();
      whitespace(rng, out);
      out += ':';
      whitespace(rng, out);
      respell_into(member, rng, out);
      whitespace(rng, out);
    }
    out += '}';
  } else if (value.is_array()) {
    out += '[';
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      if (i > 0) out += ',';
      whitespace(rng, out);
      respell_into(value.items()[i], rng, out);
    }
    whitespace(rng, out);
    out += ']';
  } else {
    out += value.dump();
  }
}

/// `value` with object keys in random order and random whitespace between
/// tokens. Leaves use Json::dump, so the parsed value is unchanged.
std::string respell(const Json& value, Rng& rng) {
  std::string out;
  whitespace(rng, out);
  respell_into(value, rng, out);
  whitespace(rng, out);
  return out;
}

}  // namespace

// ---------------------------------------------------------------- sweep_cold

SweepGen::SweepGen(std::uint64_t seed) : rng_(mix(seed) ^ 0x5157ULL), seed_base_(seed_base(seed, 0)) {}

Request SweepGen::next() {
  static const char* kPolicies[] = {"greedy", "ecmp", "local_search", "doom"};
  const std::uint64_t cell_seed = seed_base_ + ++count_;
  const double u = rng_.next_double();
  Request req;
  if (u < kSweepFattreeShare) {
    Json t = Json::object();
    t.set("kind", str("fattree"));
    t.set("k", num(8));
    Json w = Json::object();
    w.set("generator", str("uniform"));
    w.set("count", num(pick(rng_, 16, 64)));
    w.set("seed", num(static_cast<std::int64_t>(cell_seed)));
    req.line = spec(std::move(t), std::move(w), routing("ecmp")).dump();
    req.klass = "fattree_ecmp";
    return req;
  }
  const bool thm42 = u < kSweepFattreeShare + kSweepThm42Share;
  const int n = thm42 ? 3 : pick(rng_, 3, 5);
  Json s = thm42 ? spec(Json(), instance_workload(thm42_instance(rng_, 0), cell_seed),
                        routing(pick(rng_, kPolicies)))
                 : spec(clos_topology(n), generated_workload(rng_, n, cell_seed),
                        routing(pick(rng_, kPolicies)));
  req.klass = thm42 ? "thm42" : "clos";
  // Faults ride on the Clos and Thm 4.2 cells (fat-trees take none), scaled
  // so that kSweepFaultShare of all lines carry one.
  if (rng_.next_bool(kSweepFaultShare / (1.0 - kSweepFattreeShare))) {
    s.set("fault", fault_group(rng_, n));
    req.klass += "_fault";
  }
  req.line = s.dump();
  return req;
}

// -------------------------------------------------------------- exact_search

ExactGen::ExactGen(std::uint64_t seed, unsigned stream)
    : rng_(mix(seed) ^ (0xE7AC7ULL + stream)), seed_base_(seed_base(seed, stream)) {}

Request ExactGen::next() {
  // Stratified: every block of 10 requests holds the same classes in a
  // shuffled order, so two seeds differ in their cells but not in their
  // cost mix. The (n, flows) sizes cost ~10–150 ms of exact search at this
  // commit; 11-flow C_4/C_5 cells (0.2–0.7 s) would put a handful of
  // outliers in charge of the tail.
  struct Slot {
    int n;
    int flows;  ///< 0: a replicate cell on a Thm 4.2 n=3 variant
  };
  static const Slot kBlock[] = {{3, 0},  {3, 10}, {3, 10}, {3, 11}, {4, 9},
                                {4, 10}, {4, 10}, {5, 9},  {5, 10}, {5, 10}};
  if (block_.empty()) {
    block_ = rng_.permutation(std::size(kBlock));
  }
  const Slot slot = kBlock[block_.back()];
  block_.pop_back();
  const std::uint64_t cell_seed = seed_base_ + ++count_;
  Request req;
  if (slot.flows == 0) {
    const int variant = pick(rng_, 0, 2);
    req.line = spec(Json(), instance_workload(thm42_instance(rng_, variant), cell_seed),
                    routing("replicate"))
                   .dump();
    req.klass = "replicate";
    return req;
  }
  Json w = Json::object();
  const bool hotspot = rng_.next_bool(0.25);
  w.set("generator", str(hotspot ? "hotspot" : "uniform"));
  w.set("count", num(slot.flows));
  if (hotspot) {
    w.set("hot_tor", num(pick(rng_, 1, 2 * slot.n)));
    w.set("hot_fraction", Json::number(0.5));
  }
  w.set("seed", num(static_cast<std::int64_t>(cell_seed)));
  // lex and tput alternate; every fifth exhaustive cell takes the LP
  // objective (kExactLpShare).
  const std::uint64_t e = exhaustive_++;
  const std::string policy = e % 2 == 0 ? "exhaustive_lex" : "exhaustive_tput";
  Json s = spec(clos_topology(slot.n), std::move(w), routing(policy));
  req.klass = policy;
  if (e % 5 == 2) {
    s.set("objective", str("maxmin_lp"));
    req.klass += "_lp";
  }
  req.line = s.dump();
  return req;
}

// --------------------------------------------------------------- interactive

WorkingSet make_working_set(std::uint64_t seed) {
  static const char* kPolicies[] = {"greedy", "ecmp", "local_search"};
  Rng rng(mix(seed) ^ 0x1A7EULL);
  const std::uint64_t base = seed_base(seed, 0);
  WorkingSet ws;
  // Shapes (n, policy, flow count or generator) cycle by index, so every
  // seed's working set has the same cost mix; the flows themselves are drawn.
  for (std::size_t i = 0; i < kWorkingSetSize; ++i) {
    const bool inline_base = i % 2 == 1;
    const std::size_t j = i / 2;
    const char* policy = kPolicies[(j / 3) % 3];
    Json s;
    int n = 0;
    std::vector<Flow4> flows;
    if (inline_base) {
      n = 2 + static_cast<int>(j % 3);
      flows.resize(6 + (j / 9) % 11);
      for (Flow4& f : flows) f = random_flow(rng, n);
      s = spec(Json(), instance_workload(instance_text(n, flows), base + i + 1), routing(policy));
    } else {
      n = 3 + static_cast<int>(j % 2);
      s = spec(clos_topology(n),
               generated_workload(rng, n, base + i + 1, kGenerators[(j / 9) % 5]),
               routing(policy));
    }
    ws.specs.push_back(s.dump());
    ws.hashes.push_back(closfair::svc::ScenarioSpec::from_json(s).content_hash());
    ws.flows.push_back(std::move(flows));
    ws.n.push_back(n);
  }
  return ws;
}

InteractiveGen::InteractiveGen(const WorkingSet& ws, std::uint64_t seed, unsigned stream)
    : ws_(ws), rng_(mix(seed) ^ (0x1A7E0ULL + stream)) {
  for (std::size_t b = 0; b < ws.specs.size(); ++b) {
    base_json_.push_back(Json::parse(ws.specs[b]));
    if (!ws.flows[b].empty()) inline_bases_.push_back(b);
  }
}

namespace {

Json with_instance(const Json& base_spec, int n, const std::vector<Flow4>& flows) {
  const Json& w = base_spec.at("workload");
  return with(base_spec, "workload", with(w, "instance", str(instance_text(n, flows))));
}

}  // namespace

std::pair<Json, Json> InteractiveGen::make_patch(const std::string& klass, std::size_t b) {
  const Json& base_spec = base_json_[b];
  const int n = ws_.n[b];
  Json patch = Json::object();
  if (klass == "add_flow") {
    const Flow4 f = random_flow(rng_, n);
    Json item = Json::object();
    item.set("src_tor", num(f[0]));
    item.set("src_server", num(f[1]));
    item.set("dst_tor", num(f[2]));
    item.set("dst_server", num(f[3]));
    Json arr = Json::array();
    arr.push_back(std::move(item));
    patch.set("add_flows", std::move(arr));
    std::vector<Flow4> flows = ws_.flows[b];
    flows.push_back(f);
    return {std::move(patch), with_instance(base_spec, n, flows)};
  }
  if (klass == "remove_flow") {
    std::vector<Flow4> flows = ws_.flows[b];
    std::vector<std::size_t> idx = rng_.permutation(flows.size());
    idx.resize(rng_.next_bool() ? 1 : 2);
    Json arr = Json::array();
    for (const std::size_t i : idx) arr.push_back(num(static_cast<std::int64_t>(i)));
    patch.set("remove_flows", std::move(arr));
    std::sort(idx.rbegin(), idx.rend());
    for (const std::size_t i : idx) flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(i));
    return {std::move(patch), with_instance(base_spec, n, flows)};
  }
  Json fault = Json::object();
  if (klass == "fail_middle") {
    std::vector<std::size_t> middles = rng_.permutation(static_cast<std::size_t>(n));
    middles.resize(static_cast<std::size_t>(pick(rng_, 1, n - 1)));
    Json arr = Json::array();
    for (const std::size_t m : middles) arr.push_back(num(static_cast<std::int64_t>(m + 1)));
    patch.set("fail_middles", std::move(arr));
    std::sort(middles.begin(), middles.end());
    Json sorted = Json::array();
    for (const std::size_t m : middles) sorted.push_back(num(static_cast<std::int64_t>(m + 1)));
    fault.set("failed_middles", std::move(sorted));
    return {std::move(patch), with(base_spec, "fault", std::move(fault))};
  }
  if (klass == "derate_link") {
    Json arr = Json::array();
    arr.push_back(derated_link(rng_, n));
    patch.set("derate_links", arr);
    fault.set("derated_links", std::move(arr));
    return {std::move(patch), with(base_spec, "fault", std::move(fault))};
  }
  patch.set("objective", str("maxmin_lp"));
  return {std::move(patch), with(base_spec, "objective", str("maxmin_lp"))};
}

Request InteractiveGen::next() {
  Request req;
  if (!rng_.next_bool(kInteractiveDeltaShare)) {
    req.base = rng_.next_below(ws_.specs.size());
    const Json& s = base_json_[req.base];
    Json body = s;
    if (rng_.next_bool()) {
      body = Json::object();
      body.set("id", envelope_id(rng_));
      body.set("spec", s);
    }
    req.line = respell(body, rng_);
    req.klass = "resubmit";
    return req;
  }
  req.delta = true;
  req.klass = pick(rng_, kDeltaClasses);
  const bool flow_edit = req.klass == "add_flow" || req.klass == "remove_flow";
  // Fresh patch values: redraw (a bounded number of times) when this stream
  // already produced the same patched scenario. objective_switch has one
  // value per base, so its repeats are answered from the cache.
  std::pair<Json, Json> patch;
  for (int attempt = 0; attempt < 8; ++attempt) {
    req.base = flow_edit ? inline_bases_[rng_.next_below(inline_bases_.size())]
                         : rng_.next_below(ws_.specs.size());
    patch = make_patch(req.klass, req.base);
    if (req.klass == "objective_switch" || seen_.insert(patch.second.dump()).second) break;
  }
  Json body = Json::object();
  body.set("base", str(closfair::wire::hash_hex(ws_.hashes[req.base])));
  body.set("patch", std::move(patch.first));
  if (rng_.next_bool()) {
    Json envelope = Json::object();
    envelope.set("id", envelope_id(rng_));
    envelope.set("delta", std::move(body));
    body = std::move(envelope);
  }
  req.line = respell(body, rng_);
  req.direct = patch.second.dump();
  return req;
}

}  // namespace e2ebench
