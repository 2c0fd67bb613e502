#include "io/text_format.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace closfair {
namespace {

TEST(TextFormat, ParsesPaperForm) {
  const InstanceSpec spec = parse_instance("clos n=3\nflow 1 2 -> 4 1\n");
  EXPECT_EQ(spec.params.num_middles, 3);
  EXPECT_EQ(spec.params.num_tors, 6);
  EXPECT_EQ(spec.params.servers_per_tor, 3);
  ASSERT_EQ(spec.flows.size(), 1u);
  EXPECT_EQ(spec.flows[0], (FlowSpec{1, 2, 4, 1}));
}

TEST(TextFormat, ParsesExplicitForm) {
  const InstanceSpec spec =
      parse_instance("clos middles=4 tors=3 servers=2 capacity=1/2\nflow 3 2 -> 1 1\n");
  EXPECT_EQ(spec.params.num_middles, 4);
  EXPECT_EQ(spec.params.num_tors, 3);
  EXPECT_EQ(spec.params.servers_per_tor, 2);
  EXPECT_EQ(spec.params.link_capacity, Rational(1, 2));
}

TEST(TextFormat, MultiplicityExpands) {
  const InstanceSpec spec = parse_instance("clos n=1\nflow 2 1 -> 1 1 x3\n");
  ASSERT_EQ(spec.flows.size(), 3u);
  for (const auto& f : spec.flows) EXPECT_EQ(f, (FlowSpec{2, 1, 1, 1}));
}

TEST(TextFormat, CommentsAndBlanksIgnored) {
  const InstanceSpec spec = parse_instance(
      "# Example 3.3\n\nclos n=1  # the paper's C_1\n"
      "flow 1 1 -> 1 1\n# middle comment\nflow 2 1 -> 2 1\n");
  EXPECT_EQ(spec.flows.size(), 2u);
}

TEST(TextFormat, ErrorsCarryLineNumbers) {
  try {
    parse_instance("clos n=1\nflaw 1 1 -> 1 1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

struct ErrorCase {
  const char* text;
  const char* error;  ///< the full ParseError::what()
};

std::string parse_error(std::string_view text) {
  try {
    (void)parse_instance(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "<parsed>";
}

void expect_errors(const std::vector<ErrorCase>& cases) {
  for (const ErrorCase& c : cases) {
    EXPECT_EQ(parse_error(c.text), c.error) << "input: " << ::testing::PrintToString(c.text);
  }
}

// Every rejection of the reader, with its full message: one row per error
// site. Out-of-range coordinates, a zero dimension, a non-positive capacity
// and an n whose 2n overflows are ParseErrors too, so no message names a
// source file.
TEST(TextFormat, RejectsMalformedInput) {
  expect_errors({
      {"", "missing 'clos' line"},
      {"flow 1 1 -> 1 1\n", "line 1: 'flow' before 'clos'"},
      {"clos n=1\nclos n=2\n", "line 2: duplicate 'clos' line"},
      {"clos n=0\n", "line 1: n must be >= 1"},
      {"clos n=-3\n", "line 1: n must be >= 1"},
      {"clos n=a\n", "line 1: expected integer for n, got 'a'"},
      {"clos n=99999999999\n", "line 1: expected integer for n, got '99999999999'"},
      {"clos n=1x\n", "line 1: expected integer for n, got '1x'"},
      {"clos n=+1\n", "line 1: expected integer for n, got '+1'"},
      {"clos n=1 middles=2\n",
       "line 1: use either n=... or middles=/tors=/servers=, not both"},
      {"clos middles=2 tors=2\n",
       "line 1: clos needs n=... or all of middles=, tors=, servers="},
      {"clos\n", "line 1: clos needs n=... or all of middles=, tors=, servers="},
      {"clos middles=x tors=2 servers=1\n", "line 1: expected integer for middles, got 'x'"},
      {"clos middles=2 tors=y servers=1\n", "line 1: expected integer for tors, got 'y'"},
      {"clos middles=2 tors=2 servers=z\n", "line 1: expected integer for servers, got 'z'"},
      {"clos middles=2 tors=2 servers=1 capacity=q\n",
       "line 1: expected integer for capacity, got 'q'"},
      {"clos middles=2 tors=2 servers=1 capacity=1/q\n",
       "line 1: expected integer for capacity, got 'q'"},
      {"clos middles=2 tors=2 servers=1 capacity=q/2\n",
       "line 1: expected integer for capacity, got 'q'"},
      {"clos middles=2 tors=2 servers=1 capacity=1/2/3\n",
       "line 1: expected integer for capacity, got '2/3'"},
      {"clos capacity=1/0 middles=1 tors=2 servers=1\n", "line 1: capacity: zero denominator"},
      {"clos n=1 bogus=3\n", "line 1: unknown clos option 'bogus'"},
      {"clos n\n", "line 1: expected key=value, got 'n'"},
      {"clos =3\n", "line 1: expected key=value, got '=3'"},
      {"clos n=\n", "line 1: expected key=value, got 'n='"},
      {"clos n==1\n", "line 1: expected integer for n, got '=1'"},
      {"flaw 1 1 -> 1 1\n", "line 1: unknown directive 'flaw'"},
      {"clos n=1\nflow 1 1 -> 1\n",
       "line 2: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
      {"clos n=1\nflow 1 1 => 1 1\n",
       "line 2: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
      {"clos n=1\nflow\n",
       "line 2: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
      {"clos n=1\nflow a 1 -> 1 1\n", "line 2: expected integer for src_tor, got 'a'"},
      {"clos n=1\nflow 1 b -> 1 1\n", "line 2: expected integer for src_server, got 'b'"},
      {"clos n=1\nflow 1 1 -> c 1\n", "line 2: expected integer for dst_tor, got 'c'"},
      {"clos n=1\nflow 1 1 -> 1 d\n", "line 2: expected integer for dst_server, got 'd'"},
      {"clos n=1\nflow 1 1 -> 1 1 x0\n", "line 2: multiplicity must be >= 1"},
      {"clos n=1\nflow 1 1 -> 1 1 x-2\n", "line 2: multiplicity must be >= 1"},
      {"clos n=1\nflow 1 1 -> 1 1 xx\n", "line 2: expected integer for multiplicity, got 'x'"},
      {"clos n=1\nflow 1 1 -> 1 1 x\n",
       "line 2: unexpected token 'x' after flow (want xK or @rate)"},
      {"clos n=1\nflow 1 1 -> 1 1 @\n",
       "line 2: unexpected token '@' after flow (want xK or @rate)"},
      {"clos n=1\nflow 1 1 -> 1 1 y2\n",
       "line 2: unexpected token 'y2' after flow (want xK or @rate)"},
      {"clos n=1\nflow 1 1 -> 1 1 x2 junk\n",
       "line 2: unexpected token 'junk' after flow (want xK or @rate)"},
      {"clos n=1\nflow 1 1 -> 1 1 @-1/2\n", "line 2: target rate must be non-negative"},
      {"clos n=1\nflow 1 1 -> 1 1 @a\n", "line 2: expected integer for rate, got 'a'"},
      {"clos n=1\nflow 1 1 -> 1 1 @1/0\n", "line 2: rate: zero denominator"},
      {"clos n=1\nflow 1 1 -> 1 1 @1/b\n", "line 2: expected integer for rate, got 'b'"},
      // A syntax error on a later line outranks an out-of-range flow.
      {"clos n=1\nflow 3 1 -> 1 1\nflow x\n",
       "line 3: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
      // Out-of-range coordinates name the first offending flow line.
      {"clos n=1\nflow 3 1 -> 1 1\n",
       "line 2: flow coordinates out of range for declared clos dimensions"},
      {"clos n=1\nflow 0 1 -> 1 1\n",
       "line 2: flow coordinates out of range for declared clos dimensions"},
      {"clos n=1\nflow 1 1 -> 1 1\nflow 1 2 -> 1 1\nflow 1 1 -> 9 1\n",
       "line 3: flow coordinates out of range for declared clos dimensions"},
      // Dimensions must be >= 1, the capacity positive, and 2n must fit in an int.
      {"clos middles=0 tors=2 servers=1\n", "line 1: middles/tors/servers must be >= 1"},
      {"clos middles=1 tors=2 servers=-1\n", "line 1: middles/tors/servers must be >= 1"},
      {"clos middles=2 tors=2 servers=1 capacity=0\n", "line 1: capacity must be positive"},
      {"clos middles=2 tors=2 servers=1 capacity=-1/2\n", "line 1: capacity must be positive"},
      {"clos n=1073741824\n", "line 1: n must be <= 1073741823 (2n tors must fit in int)"},
  });
  // The largest n whose 2n fits still parses.
  EXPECT_EQ(parse_instance("clos n=1073741823\n").params.num_tors, 2147483646);
}

TEST(TextFormat, RateAnnotations) {
  const InstanceSpec spec = parse_instance(
      "clos n=2\nflow 1 1 -> 3 1 @2/3\nflow 1 2 -> 3 2\nflow 2 1 -> 4 1 x2 @1/2\n");
  ASSERT_EQ(spec.flows.size(), 4u);
  ASSERT_EQ(spec.rates.size(), 4u);
  ASSERT_TRUE(spec.rates[0].has_value());
  EXPECT_EQ(*spec.rates[0], Rational(2, 3));
  EXPECT_FALSE(spec.rates[1].has_value());
  ASSERT_TRUE(spec.rates[2].has_value());
  EXPECT_EQ(*spec.rates[2], Rational(1, 2));
  EXPECT_EQ(spec.rates[2], spec.rates[3]);
  EXPECT_TRUE(spec.has_rates());
}

TEST(TextFormat, RateBeforeMultiplicityAlsoAccepted) {
  const InstanceSpec spec = parse_instance("clos n=1\nflow 2 1 -> 1 1 @1/3 x2\n");
  ASSERT_EQ(spec.flows.size(), 2u);
  EXPECT_EQ(*spec.rates[0], Rational(1, 3));
}

TEST(TextFormat, RateErrors) {
  EXPECT_THROW(parse_instance("clos n=1\nflow 1 1 -> 1 1 @-1/2\n"), ParseError);
  EXPECT_THROW(parse_instance("clos n=1\nflow 1 1 -> 1 1 @a\n"), ParseError);
  EXPECT_THROW(parse_instance("clos n=1\nflow 1 1 -> 1 1 @1/0\n"), ParseError);
}

TEST(TextFormat, RoundTripWithRates) {
  const std::string text = "clos n=2\nflow 1 1 -> 3 1 x2 @1/3\nflow 2 1 -> 4 1\n";
  const InstanceSpec spec = parse_instance(text);
  EXPECT_EQ(format_instance(spec), text);
  EXPECT_FALSE(parse_instance("clos n=1\nflow 1 1 -> 1 1\n").has_rates());
}

TEST(TextFormat, RoundTripPaperForm) {
  const std::string text = "clos n=2\nflow 1 2 -> 2 1 x3\nflow 2 1 -> 1 1\n";
  const InstanceSpec spec = parse_instance(text);
  EXPECT_EQ(format_instance(spec), text);
}

TEST(TextFormat, RoundTripExplicitForm) {
  const std::string text = "clos middles=4 tors=3 servers=2 capacity=2/3\nflow 1 1 -> 3 2\n";
  const InstanceSpec spec = parse_instance(text);
  EXPECT_EQ(format_instance(spec), text);
  // And the re-parse matches.
  const InstanceSpec again = parse_instance(format_instance(spec));
  EXPECT_EQ(again.flows, spec.flows);
  EXPECT_EQ(again.params.link_capacity, spec.params.link_capacity);
}

// Every error path must name the offending line: comments and blank lines
// count toward the number the user sees in their editor. Tokens split on
// operator>>'s whitespace (space, \t, \n, \v, \f, \r) but lines only on \n,
// and '#' starts a comment only at the start of a token.
TEST(TextFormat, ErrorLineNumbersSkipCommentsAndBlanks) {
  expect_errors({
      {"# header\n\nclos n=1\n# note\nflow 1 1 -> 1 1 @bad\n",
       "line 5: expected integer for rate, got 'bad'"},
      {"clos n=1\nflow 1 1 -> 1 1\n\nflow 1 1 -> 1 1 x0\n", "line 4: multiplicity must be >= 1"},
      {"clos n=1\n\nclos n=2\n", "line 3: duplicate 'clos' line"},
      {"# only a comment\nflow 1 1 -> 1 1\n", "line 2: 'flow' before 'clos'"},
      {"# only a comment\n# and another\n", "missing 'clos' line"},
      {"\n\n  \t\n", "missing 'clos' line"},
      {"clos n=1\nflaw 1 1 -> 1 1\n", "line 2: unknown directive 'flaw'"},
      {"clos n=1\n#flow 1 1 -> 1 1\nbad\n", "line 3: unknown directive 'bad'"},
      {"#clos n=1\nflow 1 1 -> 1 1\n", "line 2: 'flow' before 'clos'"},
      // Tabs, \r\n line ends, \v and \f separate tokens; \v does not end a line.
      {"clos\tn=1\nflow\t1\t1\t->\t1\tq\n", "line 2: expected integer for dst_server, got 'q'"},
      {"clos n=1\r\nflow 1 1 -> 1 1\r\nflow 1 1 -> 1 z\r\n",
       "line 3: expected integer for dst_server, got 'z'"},
      {"clos n=1\vflow 1 1 -> 1 1\n", "line 1: expected key=value, got 'flow'"},
      {"clos n=1\n\fflow 1 1 -> 1 1 x0\f\n", "line 2: multiplicity must be >= 1"},
      // '#' glued to a token is part of it; as a whole token it ends the line.
      {"clos n=1\nflow 1#c 1 -> 1 1\n", "line 2: expected integer for src_tor, got '1#c'"},
      {"clos n=1 #\nflow 1 1 -> 1 1 x2#\n",
       "line 2: expected integer for multiplicity, got '2#'"},
      {"clos n=1\nflow 1 1 # -> 1 1\n",
       "line 2: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
      // A last line without '\n' is still a line.
      {"clos n=1\nflow 1 1 -> 1 1 #x0\nflow 1 1 -> 1 1 x0", "line 3: multiplicity must be >= 1"},
      {"clos n=1\nflow 1 1 -> 1 1\nflow 1 1 -> 1",
       "line 3: expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]"},
  });
  // The same separators parse cleanly where the input is well-formed.
  const InstanceSpec spec =
      parse_instance("clos\tn=2\r\n\f# c\nflow 1\v1 -> 3 1 x2 #tail\nflow 2 1 -> 4 1 # c");
  EXPECT_EQ(spec.params.num_middles, 2);
  EXPECT_EQ(spec.flows, (FlowCollection{{1, 1, 3, 1}, {1, 1, 3, 1}, {2, 1, 4, 1}}));
}

// serialize -> parse -> serialize is a fixed point even on input that is far
// from canonical: scattered duplicates coalesce, rate/multiplicity order
// normalizes, and a second round trip changes nothing.
TEST(TextFormat, SerializeParseSerializeIsAFixedPoint) {
  const std::string messy =
      "# adversarial spacing and ordering\n"
      "clos   middles=3   tors=6  servers=3  capacity=1\n"
      "flow 1 1 -> 4 1 @1/3 x2\n"
      "flow 1 1 -> 4 1 @1/3\n"  // coalesces with the preceding pair
      "flow 2 1 -> 5 1\n"
      "flow 2 2 -> 5 2 x1\n";
  const std::string once = format_instance(parse_instance(messy));
  const std::string twice = format_instance(parse_instance(once));
  EXPECT_EQ(twice, once);
  // The canonical form coalesced the split run of identical rated flows.
  EXPECT_NE(once.find("x3 @1/3"), std::string::npos) << once;
  // Semantics survive: same expanded flows and rates either way.
  const InstanceSpec a = parse_instance(messy);
  const InstanceSpec b = parse_instance(once);
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_EQ(a.rates, b.rates);
  EXPECT_EQ(a.params.num_middles, b.params.num_middles);
}

// Reference formatter over ostringstream: format_instance must produce
// exactly its bytes.
std::string reference_format(const InstanceSpec& spec) {
  std::ostringstream os;
  const auto& p = spec.params;
  if (p.num_tors == 2 * p.num_middles && p.servers_per_tor == p.num_middles &&
      p.link_capacity == Rational{1}) {
    os << "clos n=" << p.num_middles << '\n';
  } else {
    os << "clos middles=" << p.num_middles << " tors=" << p.num_tors
       << " servers=" << p.servers_per_tor;
    if (!(p.link_capacity == Rational{1})) os << " capacity=" << p.link_capacity;
    os << '\n';
  }
  const bool with_rates = spec.rates.size() == spec.flows.size();
  for (std::size_t i = 0; i < spec.flows.size();) {
    std::size_t j = i;
    while (j < spec.flows.size() && spec.flows[j] == spec.flows[i] &&
           (!with_rates || spec.rates[j] == spec.rates[i])) {
      ++j;
    }
    const FlowSpec& f = spec.flows[i];
    os << "flow " << f.src_tor << ' ' << f.src_server << " -> " << f.dst_tor << ' '
       << f.dst_server;
    if (j - i > 1) os << " x" << (j - i);
    if (with_rates && spec.rates[i].has_value()) os << " @" << *spec.rates[i];
    os << '\n';
    i = j;
  }
  return os.str();
}

// A seeded instance in paper or explicit form, with repeated flows (so
// multiplicities coalesce), optional target rates, and fractional
// capacities.
InstanceSpec random_instance(Rng& rng) {
  InstanceSpec spec;
  if (rng.next_bool(0.4)) {
    const int n = static_cast<int>(rng.next_int(1, 5));
    spec.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
  } else {
    spec.params.num_middles = static_cast<int>(rng.next_int(1, 6));
    spec.params.num_tors = static_cast<int>(rng.next_int(1, 8));
    spec.params.servers_per_tor = static_cast<int>(rng.next_int(1, 4));
    if (rng.next_bool(0.6)) {
      spec.params.link_capacity = Rational{rng.next_int(1, 9), rng.next_int(1, 6)};
    }
  }
  const auto rate = [&]() -> std::optional<Rational> {
    if (rng.next_bool(0.4)) return std::nullopt;
    return Rational{rng.next_int(0, 7), rng.next_int(1, 5)};
  };
  const bool with_rates = rng.next_bool(0.6);
  const std::size_t runs = 1 + rng.next_below(16);
  for (std::size_t r = 0; r < runs; ++r) {
    const FlowSpec flow{static_cast<int>(rng.next_int(1, spec.params.num_tors)),
                        static_cast<int>(rng.next_int(1, spec.params.servers_per_tor)),
                        static_cast<int>(rng.next_int(1, spec.params.num_tors)),
                        static_cast<int>(rng.next_int(1, spec.params.servers_per_tor))};
    const std::optional<Rational> run_rate = with_rates ? rate() : std::nullopt;
    const std::size_t copies = rng.next_bool(0.3) ? 2 + rng.next_below(4) : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      spec.flows.push_back(flow);
      if (with_rates) spec.rates.push_back(run_rate);
    }
  }
  return spec;
}

// The same instance spelled by hand: varied whitespace, comments, blank
// lines, \r\n line ends, explicit x1, and rate before multiplicity.
std::string respell(const InstanceSpec& spec, Rng& rng) {
  static const char* const kSeps[] = {" ", "\t", "  ", " \t ", "\v", "\f"};
  const auto sep = [&] { return std::string{kSeps[rng.next_below(6)]}; };
  const auto eol = [&] {
    std::string end = rng.next_bool(0.2) ? sep() + "# note" : "";
    end += rng.next_bool(0.3) ? "\r\n" : "\n";
    if (rng.next_bool(0.2)) end += "\n# comment line\n";
    return end;
  };
  std::string text = rng.next_bool(0.3) ? "# instance\n" : "";
  const auto& p = spec.params;
  text += "clos" + sep() + "middles=" + std::to_string(p.num_middles) + sep() +
          "tors=" + std::to_string(p.num_tors) + sep() +
          "servers=" + std::to_string(p.servers_per_tor);
  if (!(p.link_capacity == Rational{1}) || rng.next_bool(0.3)) {
    text += sep() + "capacity=" + p.link_capacity.to_string();
  }
  text += eol();
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    const FlowSpec& f = spec.flows[i];
    text += "flow" + sep() + std::to_string(f.src_tor) + sep() + std::to_string(f.src_server) +
            sep() + "->" + sep() + std::to_string(f.dst_tor) + sep() +
            std::to_string(f.dst_server);
    const std::string rate = i < spec.rates.size() && spec.rates[i].has_value()
                                 ? sep() + "@" + spec.rates[i]->to_string()
                                 : "";
    const std::string once = rng.next_bool(0.3) ? sep() + "x1" : "";
    text += rng.next_bool(0.5) ? rate + once : once + rate;
    text += eol();
  }
  return text;
}

TEST(TextFormat, GeneratedInstancesRoundTripByteForByte) {
  Rng rng(20240617);
  for (int i = 0; i < 1500; ++i) {
    const InstanceSpec spec = random_instance(rng);
    const std::string text = format_instance(spec);
    ASSERT_EQ(text, reference_format(spec)) << "instance " << i;

    const InstanceSpec parsed = parse_instance(text);
    EXPECT_EQ(parsed.params.num_middles, spec.params.num_middles) << text;
    EXPECT_EQ(parsed.params.num_tors, spec.params.num_tors) << text;
    EXPECT_EQ(parsed.params.servers_per_tor, spec.params.servers_per_tor) << text;
    EXPECT_EQ(parsed.params.link_capacity, spec.params.link_capacity) << text;
    EXPECT_EQ(parsed.flows, spec.flows) << text;
    if (!spec.rates.empty()) {
      EXPECT_EQ(parsed.rates, spec.rates) << text;
    }
    EXPECT_EQ(format_instance(parsed), text) << "format(parse(x)) is not a fixed point";

    const std::string messy = respell(spec, rng);
    EXPECT_EQ(format_instance(parse_instance(messy)), text)
        << ::testing::PrintToString(messy);
  }
}

TEST(TextFormat, StreamReaderAgreesWithStringReader) {
  const std::string inputs[] = {
      "# Example 3.3\nclos n=1\nflow 1 1 -> 1 1\nflow 2 1 -> 2 1\nflow 2 1 -> 1 1\n",
      "clos middles=4 tors=6 servers=2 capacity=1/2\r\nflow 1 2 -> 2 1 x3\r\n"
      "flow 2 1 -> 1 1 @2/3",
      "clos n=1\nflow 1 1 -> 1 1\n\nflow 1 1 -> 1 1 x0\n",
      "clos n=1\nflow 3 1 -> 1 1\n",
      "",
  };
  for (const std::string& text : inputs) {
    std::istringstream in(text);
    std::string from_stream;
    std::string from_string;
    try {
      from_stream = format_instance(parse_instance_stream(in));
    } catch (const ParseError& e) {
      from_stream = e.what();
    }
    try {
      from_string = format_instance(parse_instance(text));
    } catch (const ParseError& e) {
      from_string = e.what();
    }
    EXPECT_EQ(from_stream, from_string) << ::testing::PrintToString(text);
  }
}

TEST(TextFormat, BuildClosMatchesParams) {
  const InstanceSpec spec = parse_instance("clos n=2\nflow 1 1 -> 3 1\n");
  const ClosNetwork net = spec.build_clos();
  EXPECT_EQ(net.num_middles(), 2);
  EXPECT_EQ(net.num_tors(), 4);
  // Flows instantiate cleanly.
  const FlowSet flows = instantiate(net, spec.flows);
  EXPECT_EQ(flows.size(), 1u);
}

TEST(TextFormat, CsvOutput) {
  const FlowCollection flows = {FlowSpec{1, 1, 2, 1}, FlowSpec{2, 1, 1, 1}};
  const std::vector<std::string> labels = {"a", "b"};
  const Allocation<Rational> macro({Rational{1}, Rational{1, 3}});
  const Allocation<Rational> clos({Rational{1, 2}, Rational{1, 3}});
  std::ostringstream os;
  write_rates_csv(os, flows, labels,
                  {NamedAllocation{"macro", &macro}, NamedAllocation{"clos", &clos}});
  const std::string out = os.str();
  EXPECT_NE(out.find("flow,src_tor,src_server,dst_tor,dst_server,label,macro,macro_approx,"
                     "clos,clos_approx"),
            std::string::npos);
  EXPECT_NE(out.find("0,1,1,2,1,a,1,1,1/2,0.5"), std::string::npos);
  EXPECT_NE(out.find("1,2,1,1,1,b,1/3,"), std::string::npos);
}

TEST(TextFormat, CsvRejectsMismatch) {
  const FlowCollection flows = {FlowSpec{1, 1, 2, 1}};
  const Allocation<Rational> wrong({Rational{1}, Rational{2}});
  std::ostringstream os;
  EXPECT_THROW(
      write_rates_csv(os, flows, {}, {NamedAllocation{"x", &wrong}}),
      ContractViolation);
}

}  // namespace
}  // namespace closfair
