// Tests for closfair::svc — scenario-spec parsing and canonicalization, the
// FNV content address, the LRU result cache with JSONL spill/reload, and the
// service's determinism + equivalence-with-the-library contracts through
// its batch request path, wire::answer_batch (docs/SERVICE.md).
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adversarial.hpp"
#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "io/text_format.hpp"
#include "net/macroswitch.hpp"
#include "obs/obs.hpp"
#include "routing/ecmp.hpp"
#include "routing/greedy.hpp"
#include "svc/cache.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"
#include "wire/server.hpp"

namespace closfair {
namespace {

svc::ScenarioSpec parse_spec(const std::string& text) {
  return svc::ScenarioSpec::from_json(Json::parse(text));
}

// ---------------------------------------------------------------- spec layer

TEST(SvcSpec, DefaultsAndPaperAliasShareOneCanonicalForm) {
  // Minimal spelling: defaults omitted everywhere.
  const svc::ScenarioSpec a = parse_spec(
      R"({"topology":{"kind":"clos","n":3},"workload":{"generator":"permutation"}})");
  // Fully spelled-out equivalent: explicit params matching C_3, explicit
  // defaults for routing/objective/seed.
  const svc::ScenarioSpec b = parse_spec(
      R"({"topology":{"kind":"clos","middles":3,"tors":6,"servers":3,"capacity":1},
          "workload":{"generator":"permutation","seed":1},
          "routing":{"policy":"greedy"},
          "objective":"maxmin"})");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.canonical(),
            R"({"topology":{"kind":"clos","n":3},"workload":{"generator":"permutation"}})");
}

TEST(SvcSpec, CanonicalIsAFixedPoint) {
  const svc::ScenarioSpec spec = parse_spec(
      R"({"topology":{"kind":"clos","middles":2,"tors":3,"servers":2,"capacity":"1/2"},
          "workload":{"generator":"zipf","count":12,"skew":1.3,"seed":9},
          "routing":{"policy":"lex_climb","max_moves":200},
          "objective":"maxmin_lp",
          "fault":{"worst_case_outage":1}})");
  const svc::ScenarioSpec reparsed = svc::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed.canonical(), spec.canonical());
  EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
}

TEST(SvcSpec, InlineInstanceNormalizesThroughTextFormat) {
  // Two identical flows spelled out coalesce to the x2 form, so both
  // spellings content-address identically.
  const svc::ScenarioSpec a = parse_spec(
      R"({"workload":{"instance":"clos n=2\nflow 1 1 -> 2 1\nflow 1 1 -> 2 1\n"},
          "routing":{"policy":"doom"}})");
  const svc::ScenarioSpec b = parse_spec(
      R"({"workload":{"instance":"clos n=2\nflow 1 1 -> 2 1 x2\n"},
          "routing":{"policy":"doom"}})");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.topology.params.num_middles, 2);
  EXPECT_EQ(a.topology.params.num_tors, 4);
}

TEST(SvcSpec, StrictParsingRejectsBadSpecs) {
  // Unknown key, anywhere.
  EXPECT_THROW(parse_spec(R"({"bogus":1})"), svc::SpecError);
  EXPECT_THROW(parse_spec(
                   R"({"workload":{"generator":"permutation","stride":2}})"),
               svc::SpecError);
  // Inline instance defines the topology; a topology group conflicts.
  EXPECT_THROW(parse_spec(
                   R"({"topology":{"kind":"clos","n":2},
                       "workload":{"instance":"clos n=2\nflow 1 1 -> 2 1\n"}})"),
               svc::SpecError);
  // Seed on an unseeded generator.
  EXPECT_THROW(parse_spec(
                   R"({"topology":{"kind":"clos","n":2},
                       "workload":{"generator":"all_to_all","seed":3}})"),
               svc::SpecError);
  // Unknown routing policy.
  EXPECT_THROW(parse_spec(
                   R"({"topology":{"kind":"clos","n":2},
                       "workload":{"generator":"permutation"},
                       "routing":{"policy":"magic"}})"),
               svc::SpecError);
  // reroute_dead without a start-based policy.
  EXPECT_THROW(parse_spec(
                   R"({"topology":{"kind":"clos","n":2},
                       "workload":{"generator":"permutation"},
                       "routing":{"policy":"ecmp","reroute_dead":true}})"),
               svc::SpecError);
  // Faults only make sense on a Clos fabric.
  EXPECT_THROW(parse_spec(
                   R"({"topology":{"kind":"macro","tors":4,"servers":2},
                       "workload":{"generator":"permutation"},
                       "fault":{"worst_case_outage":1}})"),
               svc::SpecError);
  // Malformed embedded instance text surfaces the text-format error.
  EXPECT_THROW(parse_spec(R"({"workload":{"instance":"clos n=2\nflow oops\n"}})"),
               svc::SpecError);
}

// ------------------------------------------------------------- policy matrix

/// Every routing key besides "policy", in canonical emission order, each with
/// a non-default value so an accepted key always survives canonicalization.
const std::pair<std::string, std::string> kRoutingKeys[] = {
    {"seed", "7"},
    {"max_moves", "5"},
    {"threads", "2"},
    {"prune_throughput_bound", "false"},
    {"fix_first_flow", "false"},
    {"max_routings", "100"},
    {"attempts", "3"},
    {"start", "[1,2]"},
    {"reroute_dead", "true"},
};

/// The routing keys each policy accepts besides "policy", and whether it
/// runs on a fat-tree.
const struct PolicyRow {
  std::string policy;
  std::vector<std::string> keys;
  bool fattree;
} kPolicyMatrix[] = {
    {"none", {}, true},
    {"static", {"start", "reroute_dead"}, false},
    {"ecmp", {"seed"}, true},
    {"greedy", {}, true},
    {"local_search", {"max_moves", "start", "reroute_dead"}, true},
    {"lex_climb", {"max_moves", "start", "reroute_dead"}, false},
    {"tput_climb", {"max_moves", "start", "reroute_dead"}, false},
    {"doom", {}, false},
    {"lp_round", {"seed", "attempts"}, false},
    {"exhaustive_lex", {"threads", "fix_first_flow", "max_routings"}, false},
    {"exhaustive_tput",
     {"threads", "prune_throughput_bound", "fix_first_flow", "max_routings"},
     false},
    {"replicate", {}, false},
};

bool accepts(const PolicyRow& row, const std::string& key) {
  return std::find(row.keys.begin(), row.keys.end(), key) != row.keys.end();
}

/// A canonical-order routing group carrying `key` (none when empty). "static"
/// always carries its required start, and an accepted reroute_dead carries one
/// too, so the only error left is the one under test.
std::string routing_text(const PolicyRow& row, const std::string& key) {
  std::string text = R"({"policy":")" + row.policy + '"';
  for (const auto& [name, value] : kRoutingKeys) {
    if (name == key && key != "start" && key != "reroute_dead") {
      text += ",\"" + name + "\":" + value;
    }
  }
  if (row.policy == "static" || key == "start" ||
      (key == "reroute_dead" && accepts(row, key))) {
    text += R"(,"start":[1,2])";
  }
  if (key == "reroute_dead") text += R"(,"reroute_dead":true)";
  return text + "}";
}

std::string spec_text(const std::string& topology, const std::string& routing) {
  return R"({"topology":)" + topology + R"(,"workload":{"generator":"permutation"})" +
         (routing.empty() ? "" : R"(,"routing":)" + routing) + "}";
}

std::string spec_error(const std::string& text) {
  try {
    (void)parse_spec(text);
  } catch (const svc::SpecError& e) {
    return e.what();
  }
  return "";
}

/// The spec parses, its canonical bytes are `expected`, and reparsing them is
/// a fixed point.
void expect_canonical(const std::string& text, const std::string& expected) {
  const svc::ScenarioSpec spec = parse_spec(text);
  EXPECT_EQ(spec.canonical(), expected) << text;
  EXPECT_EQ(svc::ScenarioSpec::from_json(spec.to_json()).canonical(), expected) << text;
}

TEST(SvcSpec, PolicyMatrixOnClos) {
  const std::string clos = R"({"kind":"clos","n":2})";
  for (const PolicyRow& row : kPolicyMatrix) {
    const std::string bare = routing_text(row, "");
    if (row.policy == "static") {
      EXPECT_EQ(spec_error(spec_text(clos, R"({"policy":"static"})")),
                "routing requires 'start'");
    } else {
      // The all-default routing group canonicalizes away.
      expect_canonical(spec_text(clos, bare),
                       spec_text(clos, row.policy == "greedy" ? "" : bare));
    }
    for (const auto& [key, value] : kRoutingKeys) {
      const std::string text = spec_text(clos, routing_text(row, key));
      if (accepts(row, key)) {
        expect_canonical(text, text);
      } else {
        EXPECT_EQ(spec_error(text), "unknown key '" + key + "' in routing") << text;
      }
    }
  }
  EXPECT_EQ(spec_error(spec_text(clos, R"({"policy":"magic"})")),
            "routing: unknown policy 'magic'");
}

TEST(SvcSpec, PolicyMatrixOnFatTree) {
  const std::string fattree = R"({"kind":"fattree","k":4})";
  for (const PolicyRow& row : kPolicyMatrix) {
    const std::string bare = routing_text(row, "");
    if (row.fattree) {
      expect_canonical(spec_text(fattree, bare),
                       spec_text(fattree, row.policy == "greedy" ? "" : bare));
    } else {
      EXPECT_EQ(spec_error(spec_text(fattree, bare)),
                "fattree topologies support policies none/ecmp/greedy/local_search");
    }
    for (const auto& [key, value] : kRoutingKeys) {
      const std::string text = spec_text(fattree, routing_text(row, key));
      if (!accepts(row, key)) {
        EXPECT_EQ(spec_error(text), "unknown key '" + key + "' in routing") << text;
      } else if (!row.fattree) {
        EXPECT_EQ(spec_error(text),
                  "fattree topologies support policies none/ecmp/greedy/local_search")
            << text;
      } else if (key == "start" || key == "reroute_dead") {
        EXPECT_EQ(spec_error(text), "fattree routing takes no 'start'") << text;
      } else {
        expect_canonical(text, text);
      }
    }
  }
}

TEST(SvcSpec, PolicyMatrixOnMacro) {
  const std::string macro = R"({"kind":"macro","tors":4,"servers":2})";
  const std::string unique_routing =
      "macro topologies have a unique routing; use policy 'none' or drop 'routing'";
  for (const PolicyRow& row : kPolicyMatrix) {
    const std::string bare = routing_text(row, "");
    if (row.policy == "none") {
      expect_canonical(spec_text(macro, bare), spec_text(macro, ""));
    } else {
      EXPECT_EQ(spec_error(spec_text(macro, bare)), unique_routing) << bare;
    }
    for (const auto& [key, value] : kRoutingKeys) {
      const std::string text = spec_text(macro, routing_text(row, key));
      EXPECT_EQ(spec_error(text),
                accepts(row, key) ? unique_routing : "unknown key '" + key + "' in routing")
          << text;
    }
  }
}

// Topology dimensions are ints: a JSON value int cannot hold is rejected,
// never truncated (4294967297 would alias 1), and so is a paper n whose 2n
// tors would overflow.
std::string workload_spec(const std::string& topology) {
  return R"({"topology":)" + topology + R"(,"workload":{"generator":"permutation"}})";
}

TEST(SvcSpec, ClosPaperNMustLeaveRoomFor2n) {
  const std::string too_big = "topology: n must be <= 1073741823 (2n tors must fit in int)";
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"clos","n":4294967297})")), too_big);
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"clos","n":1073741824})")), too_big);
  EXPECT_EQ(parse_spec(workload_spec(R"({"kind":"clos","n":1073741823})"))
                .topology.params.num_tors,
            2147483646);
}

TEST(SvcSpec, ClosMiddlesMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(
                R"({"kind":"clos","middles":4294967297,"tors":2,"servers":1})")),
            "topology: middles does not fit in int");
  EXPECT_EQ(spec_error(workload_spec(
                R"({"kind":"clos","middles":-4294967295,"tors":2,"servers":1})")),
            "topology: middles does not fit in int");
}

TEST(SvcSpec, ClosTorsMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(
                R"({"kind":"clos","middles":1,"tors":4294967298,"servers":1})")),
            "topology: tors does not fit in int");
}

TEST(SvcSpec, ClosServersMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(
                R"({"kind":"clos","middles":1,"tors":2,"servers":4294967297})")),
            "topology: servers does not fit in int");
}

TEST(SvcSpec, MacroTorsMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"macro","tors":4294967298,"servers":1})")),
            "topology: tors does not fit in int");
}

TEST(SvcSpec, MacroServersMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"macro","tors":2,"servers":4294967297})")),
            "topology: servers does not fit in int");
}

// The macro kind reads tors/servers/capacity with the clos reader, so a
// capacity that is not positive is a parse error on both kinds; before, a
// macro capacity of 0 was answered with all-zero rates and "-1" failed a
// contract check while the topology was built.
TEST(SvcSpec, MacroCapacityMustBePositive) {
  for (const std::string kind : {R"("kind":"macro")", R"("kind":"clos","middles":1)"}) {
    for (const std::string cap : {"0", R"("-1")", R"("-1/2")"}) {
      const std::string topology = "{" + kind + R"(,"tors":2,"servers":1,"capacity":)" + cap + "}";
      EXPECT_EQ(spec_error(workload_spec(topology)), "topology: capacity must be positive")
          << topology;
    }
  }
  EXPECT_EQ(parse_spec(workload_spec(R"({"kind":"macro","tors":2,"servers":1,"capacity":"1/2"})"))
                .topology.params.link_capacity,
            Rational(1, 2));
}

TEST(SvcSpec, FatTreeKMustFitInInt) {
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"fattree","k":4294967298})")),
            "topology: k does not fit in int");
  EXPECT_EQ(spec_error(workload_spec(R"({"kind":"fattree","k":-4294967298})")),
            "topology: fattree k must be even and >= 2");
}

// Every other int-typed field is read the same way: 2^32 + 1 is rejected
// with a reason naming the key, where truncation would have aliased it to 1
// (so `"failed_middles":[4294967297]` shared the content address of `[1]`,
// and a spilled result reloaded with another surviving-middle count).
TEST(SvcSpec, NarrowedIntFieldsAreRejectedNeverTruncated) {
  enum class Grammar { kSpec, kPatch, kResult };
  using enum Grammar;
  struct Row {
    Grammar grammar;
    std::string text;     // `X` marks the field under test
    std::string message;  // the SpecError for X = 4294967297
  };
  const std::string clos = R"({"topology":{"n":2},)";
  const std::string permutation = clos + R"("workload":{"generator":"permutation"},)";
  const std::string derated = permutation + R"("fault":{"derated_links":[{"stage":"uplink",)";
  const std::vector<Row> rows = {
      {kSpec,
       clos + R"("workload":{"generator":"hotspot","count":4,"hot_tor":X,"hot_fraction":0.5}})",
       "workload: hot_tor does not fit in int"},
      {kSpec, clos + R"("workload":{"generator":"incast","count":2,"dst_tor":X,"dst_server":1}})",
       "workload: dst_tor does not fit in int"},
      {kSpec, clos + R"("workload":{"generator":"incast","count":2,"dst_tor":1,"dst_server":X}})",
       "workload: dst_server does not fit in int"},
      {kSpec, clos + R"("workload":{"generator":"stride","stride":X}})",
       "workload: stride does not fit in int"},
      {kSpec, permutation + R"("fault":{"failed_middles":[X]}})",
       "fault: failed_middles does not fit in int"},
      {kSpec, derated + R"("tor":X,"middle":1,"factor":"1/2"}]}})",
       "fault: tor does not fit in int"},
      {kSpec, derated + R"("tor":1,"middle":X,"factor":"1/2"}]}})",
       "fault: middle does not fit in int"},
      {kSpec, permutation + R"("fault":{"degraded_pods":[{"tor":X,"factor":"1/2"}]}})",
       "fault: tor does not fit in int"},
      {kSpec, permutation + R"("fault":{"sample_middles":X}})",
       "fault: sample_middles does not fit in int"},
      {kSpec, permutation + R"("fault":{"worst_case_outage":X}})",
       "fault: worst_case_outage does not fit in int"},
      {kSpec, permutation + R"("routing":{"policy":"static","start":[X,1,1,1]}})",
       "routing: start does not fit in int"},
      {kPatch, R"({"add_flows":[{"src_tor":X,"src_server":1,"dst_tor":1,"dst_server":1}]})",
       "patch: src_tor does not fit in int"},
      {kPatch, R"({"add_flows":[{"src_tor":1,"src_server":X,"dst_tor":1,"dst_server":1}]})",
       "patch: src_server does not fit in int"},
      {kPatch, R"({"add_flows":[{"src_tor":1,"src_server":1,"dst_tor":X,"dst_server":1}]})",
       "patch: dst_tor does not fit in int"},
      {kPatch, R"({"add_flows":[{"src_tor":1,"src_server":1,"dst_tor":1,"dst_server":X}]})",
       "patch: dst_server does not fit in int"},
      {kPatch, R"({"fail_middles":[X]})", "patch: fail_middles does not fit in int"},
      {kResult,
       R"({"flows":0,"macro_rates":[],"macro_throughput":"0","surviving_middles":X})",
       "result: surviving_middles does not fit in int"},
  };
  const auto parse = [](Grammar grammar, const std::string& text) {
    if (grammar == kSpec) (void)parse_spec(text);
    if (grammar == kPatch) (void)svc::SpecPatch::from_json(Json::parse(text));
    if (grammar == kResult) (void)svc::ScenarioResult::from_json(Json::parse(text));
  };
  for (const Row& row : rows) {
    std::string valid = row.text;
    valid.replace(valid.find('X'), 1, "1");
    EXPECT_NO_THROW(parse(row.grammar, valid)) << valid;  // only the value under test fails
    std::string huge = row.text;
    huge.replace(huge.find('X'), 1, "4294967297");
    try {
      parse(row.grammar, huge);
      ADD_FAILURE() << "accepted " << huge;
    } catch (const svc::SpecError& e) {
      EXPECT_EQ(std::string{e.what()}, row.message) << huge;
    }
  }
}

// An inline instance is validated when it parses: its errors carry the
// instance line, never a contract violation naming a source file.
TEST(SvcSpec, InlineInstanceValidationErrorsAreLineNumbered) {
  const auto inline_error = [](const std::string& instance) {
    return spec_error(R"({"workload":{"instance":")" + instance + R"("}})");
  };
  EXPECT_EQ(inline_error(R"(clos middles=2 tors=2 servers=1 capacity=0\nflow 1 1 -> 2 1\n)"),
            "workload.instance: line 1: capacity must be positive");
  EXPECT_EQ(inline_error(R"(clos middles=2 tors=2 servers=1 capacity=-1/2\n)"),
            "workload.instance: line 1: capacity must be positive");
  EXPECT_EQ(inline_error(R"(clos middles=0 tors=2 servers=1\nflow 1 1 -> 2 1\n)"),
            "workload.instance: line 1: middles/tors/servers must be >= 1");
  EXPECT_EQ(inline_error(R"(clos n=1\nflow 1 1 -> 2 1\nflow 1 1 -> 3 1\n)"),
            "workload.instance: line 3: flow coordinates out of range for declared clos "
            "dimensions");
  EXPECT_EQ(inline_error(R"(clos n=1073741824\n)"),
            "workload.instance: line 1: n must be <= 1073741823 (2n tors must fit in int)");
}

TEST(SvcSpec, RerouteDeadRequiresStart) {
  // Without a start the flag has nothing to repair; accepting it would give
  // the same scenario a second content address.
  for (const char* topology : {R"("topology":{"kind":"clos","n":3})",
                               R"("topology":{"kind":"fattree","k":4})"}) {
    const std::string text = std::string{"{"} + topology +
                             R"(,"workload":{"generator":"uniform","count":8},)"
                             R"("routing":{"policy":"local_search","reroute_dead":true}})";
    EXPECT_EQ(spec_error(text), "routing: reroute_dead requires 'start'") << text;
  }
  for (const char* policy : {"lex_climb", "tput_climb"}) {
    EXPECT_EQ(spec_error(spec_text(R"({"kind":"clos","n":2})",
                                   std::string{R"({"policy":")"} + policy +
                                       R"(","reroute_dead":true})")),
              "routing: reroute_dead requires 'start'")
        << policy;
  }
  // With a start the flag is kept, and an explicit false is the default.
  const std::string clos = R"({"kind":"clos","n":2})";
  expect_canonical(
      spec_text(clos, R"({"policy":"lex_climb","start":[1,2],"reroute_dead":true})"),
      spec_text(clos, R"({"policy":"lex_climb","start":[1,2],"reroute_dead":true})"));
  expect_canonical(spec_text(clos, R"({"policy":"lex_climb","reroute_dead":false})"),
                   spec_text(clos, R"({"policy":"lex_climb"})"));
}

TEST(SvcSpec, Fnv1a64KnownVectors) {
  EXPECT_EQ(svc::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(svc::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(svc::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(SvcSpec, ResultJsonRoundTrips) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = "permutation";
  spec.workload.seed = 5;
  spec.routing.policy = "lex_climb";
  spec.routing.max_moves = 100;
  const svc::ScenarioResult result = svc::evaluate_scenario(spec);
  EXPECT_TRUE(result.routed);
  EXPECT_EQ(svc::ScenarioResult::from_json(result.to_json()), result);
}

// --------------------------------------------------------------- result cache

svc::ScenarioResult tiny_result(std::size_t num_flows) {
  svc::ScenarioResult r;
  r.num_flows = num_flows;
  r.macro_rates.assign(num_flows, Rational{1, 2});
  r.macro_throughput = Rational{static_cast<std::int64_t>(num_flows), 2};
  return r;
}

std::string seeded_spec_canonical(std::uint64_t seed) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  spec.workload.generator = "uniform";
  spec.workload.count = 4;
  spec.workload.seed = seed;
  return spec.canonical();
}

TEST(SvcCache, LruEvictsLeastRecentlyUsed) {
  svc::ResultCache cache(2);
  const std::string a = seeded_spec_canonical(1);
  const std::string b = seeded_spec_canonical(2);
  const std::string c = seeded_spec_canonical(3);
  cache.insert(a, tiny_result(1));
  cache.insert(b, tiny_result(2));
  EXPECT_TRUE(cache.lookup(a).has_value());  // refresh: b is now LRU
  cache.insert(c, tiny_result(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(b).has_value());
  ASSERT_TRUE(cache.lookup(a).has_value());
  EXPECT_EQ(cache.lookup(a)->num_flows, 1u);
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST(SvcCache, SpillAndReloadPreserveContentsAndRecency) {
  svc::ResultCache cache(4);
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  cache.insert(seeded_spec_canonical(2), tiny_result(2));
  cache.insert(seeded_spec_canonical(3), tiny_result(3));
  std::stringstream spill;
  cache.save(spill);

  svc::ResultCache reloaded(2);  // smaller: only the 2 most recent survive
  reloaded.load(spill);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_FALSE(reloaded.lookup(seeded_spec_canonical(1)).has_value());
  ASSERT_TRUE(reloaded.lookup(seeded_spec_canonical(2)).has_value());
  EXPECT_EQ(reloaded.lookup(seeded_spec_canonical(3))->num_flows, 3u);
}

TEST(SvcCache, LoadErrorsCarryLineNumbers) {
  // A malformed line *followed by more content* is real corruption — only a
  // torn final record is forgiven — and the error names the bad line.
  svc::ResultCache cache(4);
  std::stringstream one;
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  cache.save(one);
  std::stringstream two;
  svc::ResultCache other(4);
  other.insert(seeded_spec_canonical(2), tiny_result(2));
  other.save(two);
  std::stringstream bad(one.str() + "{not json\n" + two.str());
  svc::ResultCache target(4);
  try {
    target.load(bad);
    FAIL() << "expected a load error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("cache line 2"), std::string::npos) << e.what();
  }
}

TEST(SvcCache, TornTrailingRecordIsSkippedNotFatal) {
  // A crash mid-save() tears the last JSONL record. Reload must keep every
  // complete entry, skip the torn tail with a warning (and a
  // svc.cache_spill_skipped count), and not abort.
  svc::ResultCache cache(4);
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  cache.insert(seeded_spec_canonical(2), tiny_result(2));
  std::stringstream spill;
  cache.save(spill);
  const std::string full = spill.str();
  // Tear the final record in half (drop the last 20 bytes plus the newline).
  const std::string torn = full.substr(0, full.size() - 21) + "\n";

  if (obs::kEnabled) obs::Registry::instance().reset();
  std::stringstream in(torn);
  svc::ResultCache reloaded(4);
  std::size_t loaded = 0;
  EXPECT_NO_THROW(loaded = reloaded.load(in));
  EXPECT_EQ(loaded, 1u);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.lookup(seeded_spec_canonical(1)).has_value());
  EXPECT_FALSE(reloaded.lookup(seeded_spec_canonical(2)).has_value());
  if (obs::kEnabled) {
    std::uint64_t skipped = 0;
    for (const auto& c : obs::Registry::instance().snapshot().counters) {
      if (c.name == "svc.cache_spill_skipped") skipped = c.value;
    }
    EXPECT_EQ(skipped, 1u);
  }

  // A torn record with no trailing newline is the same torn-append shape.
  std::stringstream in2(full.substr(0, full.size() - 21));
  svc::ResultCache reloaded2(4);
  EXPECT_EQ(reloaded2.load(in2), 1u);
}

// Count fields of a spilled result are non-negative: before, "flows":-1
// reloaded and was served "cached":true. The reason names the key.
TEST(SvcCache, NegativeCountsInASpillAreRejected) {
  const std::string base = R"({"flows":1,"macro_rates":["1/2"],"macro_throughput":"1/2")";
  const std::pair<std::string, std::string> cases[] = {
      {R"(,"rerouted":-1})", "result: rerouted must be >= 0"},
      {R"(,"search":{"routings_evaluated":-1,"waterfill_invocations":1}})",
       "result.search: routings_evaluated must be >= 0"},
      {R"(,"search":{"routings_evaluated":1,"waterfill_invocations":-1}})",
       "result.search: waterfill_invocations must be >= 0"},
      {R"(,"replication":{"feasible":false,"nodes_explored":-1}})",
       "result.replication: nodes_explored must be >= 0"},
  };
  const auto reject_reason = [](const std::string& text) -> std::string {
    try {
      (void)svc::ScenarioResult::from_json(Json::parse(text));
    } catch (const svc::SpecError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(reject_reason(R"({"flows":-1,"macro_rates":["1/2"],"macro_throughput":"1/2"})"),
            "result: flows must be >= 0");
  for (const auto& [tail, reason] : cases) {
    EXPECT_EQ(reject_reason(base + tail), reason) << tail;
  }

  svc::ResultCache cache(4);
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  cache.insert(seeded_spec_canonical(2), tiny_result(2));
  std::stringstream spill;
  cache.save(spill);
  const std::string full = spill.str();
  const std::size_t second = full.find('\n') + 1;
  const std::string first_line = full.substr(0, second);
  std::string last_line = full.substr(second);
  const std::size_t flows = last_line.find(R"("flows":2)");
  ASSERT_NE(flows, std::string::npos) << last_line;
  last_line.replace(flows, 9, R"("flows":-1)");

  // As the trailing line it reads as a torn record: skipped, not served.
  std::stringstream trailing(first_line + last_line);
  svc::ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load(trailing), 1u);
  EXPECT_FALSE(reloaded.lookup(seeded_spec_canonical(2)).has_value());

  // Followed by more content it is corruption, reported with its line.
  std::stringstream mid_file(last_line + first_line);
  svc::ResultCache target(4);
  try {
    target.load(mid_file);
    FAIL() << "expected a load error";
  } catch (const svc::SpecError& e) {
    EXPECT_EQ(std::string(e.what()), "cache line 1: result: flows must be >= 0");
  }
}

// ------------------------------------------------------------------- service

TEST(SvcService, GreedyMatchesDirectLibraryComputation) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = "permutation";
  spec.workload.seed = 5;
  const svc::ScenarioResult via_svc = svc::evaluate_scenario(spec);

  const ClosNetwork net = ClosNetwork::paper(3);
  const MacroSwitch ms = MacroSwitch::paper(3);
  Rng rng(5);
  const FlowCollection flows_spec = random_permutation(Fabric{6, 3}, rng);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, flows_spec));
  const FlowSet flows = instantiate(net, flows_spec);
  std::vector<double> demands;
  for (FlowIndex f = 0; f < flows.size(); ++f) demands.push_back(macro.rate(f).to_double());
  const MiddleAssignment middles = greedy_routing(net, flows, demands);
  const auto alloc = max_min_fair<Rational>(net, flows, middles);

  EXPECT_EQ(via_svc.macro_rates, macro.rates());
  EXPECT_EQ(via_svc.middles, middles);
  EXPECT_EQ(via_svc.rates, alloc.rates());
  EXPECT_EQ(via_svc.throughput, alloc.throughput());
}

TEST(SvcService, SeedlessEcmpContinuesTheWorkloadStream) {
  // The sweep-bench convention: without routing.seed, ECMP draws from the
  // same Rng stream the workload generator advanced.
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = "uniform";
  spec.workload.count = 10;
  spec.workload.seed = 42;
  spec.routing.policy = "ecmp";
  const svc::ScenarioResult via_svc = svc::evaluate_scenario(spec);

  const ClosNetwork net = ClosNetwork::paper(3);
  Rng rng(42);
  const FlowCollection flows_spec = uniform_random(Fabric{6, 3}, 10, rng);
  const FlowSet flows = instantiate(net, flows_spec);
  EXPECT_EQ(via_svc.middles, ecmp_routing(net, flows, rng));
}

std::vector<svc::ScenarioSpec> small_batch() {
  std::vector<svc::ScenarioSpec> specs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* policy : {"ecmp", "greedy", "lex_climb"}) {
      svc::ScenarioSpec spec;
      spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
      spec.workload.generator = "uniform";
      spec.workload.count = 6;
      spec.workload.seed = seed;
      spec.routing.policy = policy;
      specs.push_back(spec);
    }
  }
  specs.push_back(specs[0]);  // in-batch duplicate
  return specs;
}

std::vector<std::string> as_lines(const std::vector<svc::ScenarioSpec>& specs) {
  std::vector<std::string> lines;
  for (const svc::ScenarioSpec& spec : specs) lines.push_back(spec.to_json().dump());
  return lines;
}

bool is_cached(const std::string& response) {
  return response.find("\"cached\":true") != std::string::npos;
}

/// The "result" member of a response: equal results render equal bytes.
std::string result_of(const std::string& response) {
  const std::size_t at = response.find("\"result\":");
  return at == std::string::npos ? std::string{} : response.substr(at);
}

TEST(SvcService, BatchIsDeterministicAcrossWorkerCounts) {
  const std::vector<std::string> lines = as_lines(small_batch());
  svc::ResultCache one(64);
  const std::vector<std::string> ref = wire::answer_batch(one, 1, lines);
  ASSERT_EQ(ref.size(), lines.size());
  for (const unsigned workers : {2u, 8u}) {
    svc::ResultCache cache(64);
    EXPECT_EQ(wire::answer_batch(cache, workers, lines), ref) << "workers=" << workers;
  }
}

TEST(SvcService, DuplicatesAndResubmissionsHitTheCache) {
  const std::vector<std::string> lines = as_lines(small_batch());
  svc::ResultCache cache(64);
  const std::vector<std::string> cold = wire::answer_batch(cache, 2, lines);
  EXPECT_FALSE(is_cached(cold.front()));
  EXPECT_TRUE(is_cached(cold.back()));  // in-batch duplicate of line 0
  EXPECT_EQ(result_of(cold.back()), result_of(cold.front()));
  EXPECT_FALSE(result_of(cold.front()).empty());
  const std::vector<std::string> warm = wire::answer_batch(cache, 2, lines);
  for (const std::string& response : warm) EXPECT_TRUE(is_cached(response)) << response;
}

TEST(SvcService, RuntimeErrorsBecomePerEntryErrors) {
  std::vector<svc::ScenarioSpec> specs = small_batch();
  svc::ScenarioSpec bad;
  bad.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  bad.workload.generator = "permutation";
  bad.routing.policy = "static";
  bad.routing.start = {1};  // wrong length for the permutation's flow count
  specs.insert(specs.begin() + 1, bad);

  svc::ResultCache cache(64);
  const std::vector<std::string> responses = wire::answer_batch(cache, 2, as_lines(specs));
  // A failed evaluation still reports its content address.
  EXPECT_EQ(responses[1].find("{\"hash\":\"" + svc::hash_hex(bad.content_hash()) +
                              "\",\"error\":"),
            0u)
      << responses[1];
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i != 1) {
      EXPECT_FALSE(result_of(responses[i]).empty()) << responses[i];
    }
  }
  // A failed evaluation must not be cached.
  EXPECT_FALSE(cache.lookup(bad.canonical()).has_value());
  const std::vector<std::string> retry = wire::answer_batch(cache, 2, as_lines({bad}));
  EXPECT_EQ(retry, (std::vector<std::string>{responses[1]}));
}

TEST(SvcService, LpRoundOnAFabricTooDegradedToSplitIsAnEvaluationError) {
  // The Theorem 4.2 n=3 instance with middle 1 failed: the two surviving
  // middles cannot carry the macro-switch rates even splittably, so the
  // demand-satisfaction folklore (a pristine-Clos fact) does not apply.
  const std::string line =
      R"({"workload":{"instance":"clos n=3\n)"
      R"(flow 1 2 -> 1 2 @1\nflow 1 3 -> 1 3 @1\nflow 2 2 -> 2 2 @1\n)"
      R"(flow 2 3 -> 2 3 @1\nflow 3 2 -> 3 2 @1\nflow 3 3 -> 3 3 @1\n)"
      R"(flow 1 1 -> 1 1 @1/3\nflow 2 1 -> 2 1 @1/3\nflow 3 1 -> 3 1 @1/3\n)"
      R"(flow 1 1 -> 4 1 @1/3\nflow 1 1 -> 4 2 @1/3\nflow 2 1 -> 4 1 @1/3\n)"
      R"(flow 2 1 -> 4 2 @1/3\nflow 3 1 -> 4 1 @1/3\nflow 3 1 -> 4 2 @1/3\n)"
      R"(flow 4 3 -> 4 3 @1\n"},)"
      R"("routing":{"policy":"lp_round","seed":1},"fault":{"failed_middles":[1]}})";
  svc::ResultCache cache(4);
  EXPECT_EQ(wire::answer_batch(cache, 1, {line}),
            (std::vector<std::string>{
                R"({"hash":"49451956e2cda5fb","error":)"
                R"("lp_round: the fabric cannot carry the macro-switch rates splittably"})"}));
}

TEST(SvcService, ContractViolationsNameRepositoryRelativePaths) {
  // Doom-Switch on a Clos with more servers per ToR than middles fails its
  // precondition check; the message names the source file relative to the
  // checkout root, so the response bytes do not depend on the build path.
  const std::string line =
      R"({"topology":{"kind":"clos","middles":2,"tors":4,"servers":3},)"
      R"("workload":{"generator":"permutation","seed":3},"routing":{"policy":"doom"}})";
  svc::ResultCache cache(4);
  const std::vector<std::string> responses = wire::answer_batch(cache, 1, {line});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find(" at src/routing/doom_switch.cpp:"), std::string::npos)
      << responses[0];
  EXPECT_EQ(responses[0].find(" at /"), std::string::npos) << responses[0];

  // The same holds for a check in a header template expanded in this TU.
  try {
    (void)lex_compare(std::vector<int>{1}, std::vector<int>{1, 2});
    ADD_FAILURE() << "lex_compare accepted vectors of different lengths";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(" at src/flow/allocation.hpp:"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ cache pinning

TEST(SvcCache, InsertReportsWhetherTheEntryIsNew) {
  svc::ResultCache cache(4);
  EXPECT_TRUE(cache.insert(seeded_spec_canonical(1), tiny_result(1)));
  EXPECT_FALSE(cache.insert(seeded_spec_canonical(1), tiny_result(1)));
  EXPECT_TRUE(cache.insert(seeded_spec_canonical(2), tiny_result(2)));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SvcCache, PinnedBasesAreExemptFromEviction) {
  svc::ResultCache cache(2);
  const std::string a = seeded_spec_canonical(1);
  cache.insert(a, tiny_result(1));
  auto pin = cache.pin_base(svc::fnv1a64(a));
  ASSERT_TRUE(pin.has_value());
  EXPECT_EQ(pin->canonical(), a);
  EXPECT_EQ(pin->result().num_flows, 1u);

  // Two more inserts would evict `a` under plain LRU; the pin protects it.
  cache.insert(seeded_spec_canonical(2), tiny_result(2));
  cache.insert(seeded_spec_canonical(3), tiny_result(3));
  EXPECT_TRUE(cache.lookup(a).has_value());

  // clear() also respects the pin, then the unpinned entry goes on the next
  // eviction pressure after release.
  cache.clear();
  EXPECT_TRUE(cache.lookup(a).has_value());
  pin.reset();
  cache.insert(seeded_spec_canonical(4), tiny_result(4));
  cache.insert(seeded_spec_canonical(5), tiny_result(5));
  EXPECT_FALSE(cache.lookup(a).has_value());
}

TEST(SvcCache, PinBaseMissesUnknownHashes) {
  svc::ResultCache cache(2);
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  EXPECT_FALSE(cache.pin_base(0xdeadbeefULL).has_value());
}

TEST(SvcCache, LoadCountsDistinctEntriesAndRefreshesTheGauge) {
  // Duplicate canonical lines in a spill (e.g. two services spilling the
  // same hot entry) must not inflate the loaded count.
  svc::ResultCache one(4);
  one.insert(seeded_spec_canonical(1), tiny_result(1));
  std::stringstream single;
  one.save(single);
  const std::string record = single.str();

  if (obs::kEnabled) obs::Registry::instance().reset();
  std::stringstream in(record + record + record);
  svc::ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load(in), 1u);
  EXPECT_EQ(reloaded.size(), 1u);

  if (obs::kEnabled) {
    std::int64_t gauge = -1;
    for (const auto& g : obs::Registry::instance().snapshot().gauges) {
      if (g.name == "svc.cache_size") gauge = g.value;
    }
    EXPECT_EQ(gauge, 1);
  }
}

TEST(SvcCache, GaugeIsHonestWhenTheFinalRecordIsTorn) {
  svc::ResultCache cache(4);
  cache.insert(seeded_spec_canonical(1), tiny_result(1));
  cache.insert(seeded_spec_canonical(2), tiny_result(2));
  std::stringstream spill;
  cache.save(spill);
  const std::string full = spill.str();

  if (obs::kEnabled) obs::Registry::instance().reset();
  std::stringstream in(full.substr(0, full.size() - 21) + "\n");
  svc::ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load(in), 1u);
  if (obs::kEnabled) {
    std::int64_t gauge = -1;
    for (const auto& g : obs::Registry::instance().snapshot().gauges) {
      if (g.name == "svc.cache_size") gauge = g.value;
    }
    // The gauge must reflect what actually loaded, not count the torn tail.
    EXPECT_EQ(gauge, 1);
  }
}

// ------------------------------------------------------------------- deltas

svc::SpecPatch parse_patch(const std::string& text) {
  return svc::SpecPatch::from_json(Json::parse(text));
}

TEST(SvcDelta, PatchParsingIsStrict) {
  EXPECT_TRUE(parse_patch("{}").empty());
  EXPECT_THROW(parse_patch(R"({"bogus":1})"), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"objective":"fastest"})"), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"remove_flows":[0,0]})"), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"remove_flows":[-1]})"), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"fail_middles":[0]})"), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"add_flows":[{"src_tor":0}]})"), svc::SpecError);
  EXPECT_THROW(
      parse_patch(R"({"derate_links":[{"stage":"up","tor":1,"middle":1,"factor":"1/2"}]})"),
      svc::SpecError);
  EXPECT_THROW(
      parse_patch(R"({"derate_links":[{"stage":"uplink","tor":1,"middle":1,"factor":"3/2"}]})"),
      svc::SpecError);
}

TEST(SvcDelta, DeltaRequestParsesContentAddresses) {
  const svc::DeltaRequest delta = svc::DeltaRequest::from_json(
      Json::parse(R"({"base":"00000000deadbeef","patch":{"fail_middles":[2]}})"));
  EXPECT_EQ(delta.base, 0xdeadbeefULL);
  EXPECT_EQ(delta.patch.fail_middles, std::vector<int>{2});
  // Wrong length, uppercase, and non-hex addresses are all rejected.
  EXPECT_THROW(svc::DeltaRequest::from_json(Json::parse(R"({"base":"abc"})")),
               svc::SpecError);
  EXPECT_THROW(svc::DeltaRequest::from_json(Json::parse(R"({"base":"00000000DEADBEEF"})")),
               svc::SpecError);
  EXPECT_THROW(svc::DeltaRequest::from_json(Json::parse(R"({"base":"00000000deadbeeg"})")),
               svc::SpecError);
  EXPECT_THROW(svc::DeltaRequest::from_json(Json::parse(R"({"patch":{}})")),
               svc::SpecError);
}

svc::ScenarioSpec instance_base() {
  return parse_spec(
      R"({"workload":{"instance":"clos n=2\nflow 1 1 -> 3 1\nflow 2 1 -> 4 1\n"},
          "routing":{"policy":"greedy"}})");
}

TEST(SvcDelta, FlowEditsRewriteTheInlineInstance) {
  const svc::ScenarioSpec base = instance_base();
  const svc::ScenarioSpec added =
      parse_patch(R"({"add_flows":[{"src_tor":1,"src_server":2,"dst_tor":2,"dst_server":1}]})")
          .apply(base);
  EXPECT_NE(added.canonical(), base.canonical());
  EXPECT_NE(added.workload.instance.find("1 2 -> 2 1"), std::string::npos);

  const svc::ScenarioSpec removed = parse_patch(R"({"remove_flows":[0]})").apply(base);
  EXPECT_EQ(removed.workload.instance.find("1 1 -> 3 1"), std::string::npos);
  EXPECT_NE(removed.workload.instance.find("2 1 -> 4 1"), std::string::npos);

  // Out-of-range removal, removing every flow, and flow edits against a
  // generator workload all fail with a patch error.
  EXPECT_THROW(parse_patch(R"({"remove_flows":[7]})").apply(base), svc::SpecError);
  EXPECT_THROW(parse_patch(R"({"remove_flows":[0,1]})").apply(base), svc::SpecError);
  svc::ScenarioSpec generated;
  generated.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  generated.workload.generator = "permutation";
  EXPECT_THROW(parse_patch(R"({"remove_flows":[0]})").apply(generated), svc::SpecError);
}

TEST(SvcDelta, FaultAndObjectivePatchesComposeWithExistingGroups) {
  svc::ScenarioSpec base = instance_base();
  base.fault.scenario.failed_middles = {2};
  const svc::ScenarioSpec patched =
      parse_patch(R"({"fail_middles":[1,2],"objective":"maxmin_lp"})").apply(base);
  EXPECT_EQ(patched.fault.scenario.failed_middles, (std::vector<int>{1, 2}));
  EXPECT_EQ(patched.objective, "maxmin_lp");
  // The patched spec is canonical: reparsing is a fixed point.
  EXPECT_EQ(svc::ScenarioSpec::from_json(patched.to_json()).canonical(),
            patched.canonical());
}

/// Every delta class: warm evaluation must be byte-identical to the cold
/// evaluation of the patched spec (the tentpole contract).
TEST(SvcDelta, WarmEvaluationMatchesColdBytesForEveryClass) {
  svc::ScenarioSpec clos_base;
  clos_base.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  clos_base.workload.generator = "uniform";
  clos_base.workload.count = 6;
  clos_base.workload.seed = 3;

  const struct {
    const char* name;
    svc::ScenarioSpec base;
    const char* patch;
  } cases[] = {
      {"add_flow", instance_base(),
       R"({"add_flows":[{"src_tor":1,"src_server":2,"dst_tor":2,"dst_server":1}]})"},
      {"remove_flow", instance_base(), R"({"remove_flows":[0]})"},
      {"fail_middle", clos_base, R"({"fail_middles":[1]})"},
      {"derate_link", clos_base,
       R"({"derate_links":[{"stage":"uplink","tor":1,"middle":2,"factor":"1/2"}]})"},
      {"objective_switch", clos_base, R"({"objective":"maxmin_lp"})"},
  };
  for (const auto& tc : cases) {
    const svc::ScenarioSpec patched = parse_patch(tc.patch).apply(tc.base);
    const svc::ScenarioResult base_result = svc::evaluate_scenario(tc.base);
    const svc::ScenarioResult warm =
        svc::evaluate_scenario_warm(patched, tc.base, base_result);
    const svc::ScenarioResult cold = svc::evaluate_scenario(patched);
    EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump()) << tc.name;
  }
}

TEST(SvcDelta, ServiceEvaluateDeltaMatchesColdService) {
  const svc::ScenarioSpec base = instance_base();
  const std::string base_hash = svc::hash_hex(base.content_hash());
  const std::string delta =
      R"({"base":")" + base_hash + R"(","patch":{"objective":"maxmin_lp"}})";

  svc::ResultCache warm_cache(16);
  ASSERT_FALSE(result_of(wire::answer_batch(warm_cache, 1, as_lines({base})).at(0)).empty());
  const std::vector<std::string> warm = wire::answer_batch(warm_cache, 1, {delta});

  svc::ResultCache cold_cache(16);
  const svc::ScenarioSpec patched =
      svc::SpecPatch::from_json(Json::parse(R"({"objective":"maxmin_lp"})")).apply(base);
  const std::vector<std::string> cold = wire::answer_batch(cold_cache, 1, as_lines({patched}));
  ASSERT_FALSE(result_of(cold.at(0)).empty()) << cold.at(0);
  EXPECT_EQ(warm, cold);  // same hash, same result bytes, cached:false

  // Re-submitting the same delta is a cache hit on the patched spec.
  EXPECT_TRUE(is_cached(wire::answer_batch(warm_cache, 1, {delta}).at(0)));

  // A base the cache has never seen resolves to an error with no hash.
  const std::string unknown = svc::hash_hex(base.content_hash() ^ 1);
  EXPECT_EQ(wire::answer_batch(warm_cache, 1, {R"({"base":")" + unknown + R"("})"}).at(0),
            R"({"error":"unknown base )" + unknown + R"(: not in the result cache"})");

  // A patch that does not apply reports the patch error, with no hash.
  const std::string bad_patch =
      R"({"base":")" + base_hash + R"(","patch":{"remove_flows":[9]}})";
  const std::string broken = wire::answer_batch(warm_cache, 1, {bad_patch}).at(0);
  EXPECT_EQ(broken.find(R"({"error":)"), 0u) << broken;
  EXPECT_EQ(broken.find("\"hash\""), std::string::npos) << broken;
}

TEST(SvcCache, ReloadedSpillHitsServeTheColdBytes) {
  // Entries hold rendered result bytes; a reload re-renders each spilled
  // result through ScenarioResult, so even a hand-edited spill — here one
  // whose result was rewritten with extra whitespace — serves exactly the
  // bytes a cold evaluation renders.
  std::vector<svc::ScenarioSpec> specs = small_batch();
  specs.resize(3);
  specs.push_back(instance_base());
  const std::vector<std::string> lines = as_lines(specs);

  svc::ResultCache first(16);
  const std::vector<std::string> cold = wire::answer_batch(first, 1, lines);
  std::stringstream saved;
  first.save(saved);
  const std::string spill = saved.str();

  // Loosen every result (never a spec) with spaces around its punctuation.
  std::string edited;
  std::istringstream in(spill);
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find("\"result\":");
    ASSERT_NE(at, std::string::npos) << line;
    std::string loose = line.substr(0, at);
    for (const char c : line.substr(at)) {
      if (c == ',' || c == ':' || c == '[' || c == '{') {
        loose += ' ';
        loose += c;
        loose += ' ';
      } else {
        loose += c;
      }
    }
    edited += loose + "\n";
  }
  ASSERT_NE(edited, spill);

  svc::ResultCache second(16);
  std::stringstream edited_in(edited);
  EXPECT_EQ(second.load(edited_in), specs.size());
  for (const svc::ScenarioSpec& spec : specs) {
    EXPECT_EQ(second.find(spec.canonical()),
              svc::evaluate_scenario(spec).to_json().dump());
  }
  const std::vector<std::string> warm = wire::answer_batch(second, 1, lines);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(is_cached(warm[i])) << warm[i];
    EXPECT_EQ(result_of(warm[i]), result_of(cold[i])) << i;
    EXPECT_EQ(warm[i].substr(0, warm[i].find("\"cached\"")),
              cold[i].substr(0, cold[i].find("\"cached\"")));
  }
  // The spill written back is the canonical one again.
  std::stringstream resaved;
  second.save(resaved);
  EXPECT_EQ(resaved.str(), spill);
}

TEST(SvcDelta, DeltaCountersTrackOutcomesWhenEnabled) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::Registry::instance().reset();
  const svc::ScenarioSpec base = instance_base();
  svc::ResultCache cache(16);
  (void)wire::answer_batch(cache, 1, as_lines({base}));

  const std::string objective_delta = R"({"base":")" + svc::hash_hex(base.content_hash()) +
                                      R"(","patch":{"objective":"maxmin_lp"}})";
  (void)wire::answer_batch(cache, 1, {objective_delta});  // warm: wholesale result reuse
  (void)wire::answer_batch(cache, 1, {objective_delta});  // cache hit on patched spec
  (void)wire::answer_batch(cache, 1, {R"({"base":"00000000000000aa"})"});  // base miss

  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  std::uint64_t requests = 0, hits = 0, misses = 0, reuses = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "svc.delta_requests") requests = c.value;
    if (c.name == "svc.delta_hits") hits = c.value;
    if (c.name == "svc.delta_base_misses") misses = c.value;
    if (c.name == "svc.delta_result_reuses") reuses = c.value;
  }
  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(reuses, 1u);
}

// --------------------------------------------------------- shared topologies
//
// evaluate_scenario keeps pristine topologies in a small per-thread cache and
// degrades copies for faulted cells. A new thread starts with an empty cache,
// exactly like a fresh process, so its answer is the reference.

svc::ScenarioResult evaluate_fresh(const svc::ScenarioSpec& spec) {
  svc::ScenarioResult result;
  std::thread([&] { result = svc::evaluate_scenario(spec); }).join();
  return result;
}

/// A degraded C_3 cell and the pristine cell of the same shape.
std::pair<svc::ScenarioSpec, svc::ScenarioSpec> faulted_and_pristine() {
  const std::string cell =
      R"("topology":{"kind":"clos","n":3},"workload":{"generator":"uniform","count":14,"seed":8},
         "routing":{"policy":"local_search","max_moves":64})";
  return {parse_spec("{" + cell + R"(,"fault":{"failed_middles":[2],"derated_links":[
                       {"stage":"uplink","tor":1,"middle":1,"factor":"1/3"}]}})"),
          parse_spec("{" + cell + "}")};
}

TEST(SvcTopologyCache, FaultedCellsNeverLeakIntoPristineCellsOnOneThread) {
  const auto [faulted, pristine] = faulted_and_pristine();
  const svc::ScenarioResult want_faulted = evaluate_fresh(faulted);
  const svc::ScenarioResult want_pristine = evaluate_fresh(pristine);
  ASSERT_EQ(want_faulted.surviving_middles, 2);
  ASSERT_EQ(want_pristine.surviving_middles, 3);
  ASSERT_NE(want_faulted.rates, want_pristine.rates);
  std::thread([&] {
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(svc::evaluate_scenario(faulted), want_faulted) << "rep " << rep;
      EXPECT_EQ(svc::evaluate_scenario(pristine), want_pristine) << "rep " << rep;
    }
  }).join();
}

TEST(SvcTopologyCache, FaultedCellsNeverLeakIntoPristineCellsAcrossThreads) {
  const auto [faulted, pristine] = faulted_and_pristine();
  const svc::ScenarioResult want_faulted = evaluate_fresh(faulted);
  const svc::ScenarioResult want_pristine = evaluate_fresh(pristine);
  // Opposite orders on two concurrent threads, each over its own cache.
  const auto run = [&](const svc::ScenarioSpec& first, const svc::ScenarioResult& want_first,
                       const svc::ScenarioSpec& second, const svc::ScenarioResult& want_second) {
    for (int rep = 0; rep < 10; ++rep) {
      EXPECT_EQ(svc::evaluate_scenario(first), want_first) << "rep " << rep;
      EXPECT_EQ(svc::evaluate_scenario(second), want_second) << "rep " << rep;
    }
  };
  std::thread a(run, std::cref(faulted), std::cref(want_faulted), std::cref(pristine),
                std::cref(want_pristine));
  std::thread b(run, std::cref(pristine), std::cref(want_pristine), std::cref(faulted),
                std::cref(want_faulted));
  a.join();
  b.join();
}

TEST(SvcTopologyCache, DistinctCapacitiesNeverShareAnEntry) {
  const auto cell = [](const std::string& capacity) {
    return parse_spec(R"({"topology":{"kind":"clos","middles":2,"tors":4,"servers":2,
                          "capacity":)" + capacity + R"(},
                          "workload":{"generator":"uniform","count":12,"seed":3}})");
  };
  const svc::ScenarioSpec unit = cell("1");
  const svc::ScenarioSpec half = cell("\"1/2\"");
  const svc::ScenarioSpec triple = cell("3");
  const svc::ScenarioResult want_unit = evaluate_fresh(unit);
  const svc::ScenarioResult want_half = evaluate_fresh(half);
  const svc::ScenarioResult want_triple = evaluate_fresh(triple);
  // Max-min rates scale linearly with a uniform capacity.
  for (std::size_t f = 0; f < want_unit.rates.size(); ++f) {
    EXPECT_EQ(want_half.rates[f], want_unit.rates[f] * Rational(1, 2));
    EXPECT_EQ(want_triple.rates[f], want_unit.rates[f] * Rational{3});
  }
  std::thread([&] {
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(svc::evaluate_scenario(unit), want_unit);
      EXPECT_EQ(svc::evaluate_scenario(half), want_half);
      EXPECT_EQ(svc::evaluate_scenario(triple), want_triple);
    }
  }).join();
}

TEST(SvcTopologyCache, EvictedAndOversizedTopologiesAnswerAsFreshOnes) {
  // More shapes than the cache keeps, revisited, plus a fabric above the
  // link ceiling (4 + 4 * 1100 links) that is built per cell.
  std::vector<svc::ScenarioSpec> specs;
  for (int n = 1; n <= 10; ++n) {
    specs.push_back(parse_spec(R"({"topology":{"kind":"clos","n":)" + std::to_string(n) +
                               R"(},"workload":{"generator":"permutation","seed":4}})"));
  }
  specs.push_back(parse_spec(R"({"topology":{"kind":"clos","middles":1100,"tors":2,
      "servers":1},"workload":{"generator":"uniform","count":3,"seed":2}})"));
  std::vector<svc::ScenarioResult> want;
  for (const svc::ScenarioSpec& spec : specs) want.push_back(evaluate_fresh(spec));
  std::thread([&] {
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(svc::evaluate_scenario(specs[i]), want[i]) << "spec " << i << " rep " << rep;
      }
    }
  }).join();
}

TEST(SvcTopologyCache, RatesMatchTheGenericEngineOnFreshTopologies) {
  // The service's int64 final and macro-reference fills, and the
  // allocations the exact policies hand back, against the generic Rational
  // engine on topologies built for each spec.
  const char* const kPolicies[] = {"greedy", "ecmp", "local_search", "doom",
                                   "lex_climb", "tput_climb", "exhaustive_lex",
                                   "exhaustive_tput"};
  const Rational kCapacities[] = {Rational{1}, Rational{1, 2}, Rational{3, 7}, Rational{2}};
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const int n = static_cast<int>(rng.next_int(2, 5));
    svc::ScenarioSpec spec;
    spec.topology.params = ClosNetwork::Params{n, 2 * n, n, kCapacities[rng.next_below(4)]};
    spec.routing.policy = kPolicies[rng.next_below(std::size(kPolicies))];
    const bool exact = spec.routing.policy.starts_with("exhaustive");
    const bool climb = spec.routing.policy.ends_with("climb");
    spec.routing.max_moves = 16;
    spec.workload.generator = "uniform";
    spec.workload.count = static_cast<std::size_t>(
        exact ? rng.next_int(1, 4) : rng.next_int(1, climb ? 8 : 2 * n * n));
    spec.workload.seed = rng.next_u64();
    switch (rng.next_below(4)) {
      case 0:
        spec.fault.scenario.failed_middles = {static_cast<int>(rng.next_int(1, n))};
        break;
      case 1:
        spec.fault.scenario.derated_links.push_back(
            {rng.next_bool() ? fault::LinkStage::kUplink : fault::LinkStage::kDownlink,
             static_cast<int>(rng.next_int(1, 2 * n)), static_cast<int>(rng.next_int(1, n)),
             Rational(rng.next_int(0, 3), 4)});
        break;
      case 2:
        spec.fault.sample_middles = 1;
        spec.fault.seed = rng.next_u64();
        break;
      default:
        break;
    }
    const svc::ScenarioResult got = svc::evaluate_scenario(spec);

    ClosNetwork net(spec.topology.params);
    if (!spec.fault.scenario.empty()) fault::apply(net, spec.fault.scenario);
    if (spec.fault.sample_middles > 0) {
      Rng fault_rng(spec.fault.seed);
      fault::apply(net, fault::sample_middle_outage(net, 1, fault_rng));
    }
    const MacroSwitch ms(MacroSwitch::Params{2 * n, n, spec.topology.params.link_capacity});
    Rng workload_rng(spec.workload.seed);
    const FlowCollection flows_spec =
        uniform_random(Fabric{2 * n, n}, spec.workload.count, workload_rng);
    const FlowSet flows = instantiate(net, flows_spec);
    ASSERT_EQ(got.middles.size(), flows.size()) << spec.canonical();
    EXPECT_EQ(got.macro_rates, max_min_fair<Rational>(ms, instantiate(ms, flows_spec)).rates())
        << spec.canonical();
    EXPECT_EQ(got.rates, max_min_fair<Rational>(net, flows, got.middles).rates())
        << spec.canonical();
    EXPECT_EQ(got.surviving_middles,
              static_cast<int>(fault::surviving_middles(net).size()));
  }
}

TEST(SvcService, ObsCountersTrackRequestsWhenEnabled) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  obs::Registry::instance().reset();
  svc::ResultCache cache(64);
  const std::vector<svc::ScenarioSpec> specs = small_batch();
  (void)wire::answer_batch(cache, 2, as_lines(specs));
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  std::uint64_t requests = 0;
  std::uint64_t dedup = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "wire.requests") requests = c.value;
    if (c.name == "wire.dedup_hits") dedup = c.value;
  }
  EXPECT_EQ(requests, specs.size());
  EXPECT_EQ(dedup, 1u);
}

}  // namespace
}  // namespace closfair
