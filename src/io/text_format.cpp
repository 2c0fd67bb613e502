#include "io/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

namespace closfair {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw ParseError("line " + std::to_string(line) + ": " + message);
}

std::string quoted(std::string_view token) {
  std::string out{"'"};
  out.append(token);
  out += '\'';
  return out;
}

// The whitespace operator>> splits on under the classic locale.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

// Split `line` into views of its tokens; a token starting with '#' begins a
// trailing comment and ends the line.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size() || line[i] == '#') return;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

int parse_int(std::string_view token, std::size_t line, const char* what) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    fail(line, std::string{"expected integer for "} + what + ", got " + quoted(token));
  }
  return value;
}

Rational parse_rational(std::string_view token, std::size_t line, const char* what) {
  const auto slash = token.find('/');
  if (slash == std::string_view::npos) {
    return Rational{parse_int(token, line, what)};
  }
  const int num = parse_int(token.substr(0, slash), line, what);
  const int den = parse_int(token.substr(slash + 1), line, what);
  if (den == 0) fail(line, std::string{what} + ": zero denominator");
  return Rational{num, den};
}

// key=value option on the `clos` line.
std::pair<std::string_view, std::string_view> split_option(std::string_view token,
                                                           std::size_t line) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
    fail(line, "expected key=value, got " + quoted(token));
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

void parse_clos_line(const std::vector<std::string_view>& tokens, std::size_t line,
                     InstanceSpec& spec, bool& have_clos) {
  if (have_clos) fail(line, "duplicate 'clos' line");
  have_clos = true;

  bool paper_form = false;
  ClosNetwork::Params params;
  bool saw_middles = false;
  bool saw_tors = false;
  bool saw_servers = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto [key, value] = split_option(tokens[i], line);
    if (key == "n") {
      const int n = parse_int(value, line, "n");
      if (n < 1) fail(line, "n must be >= 1");
      if (n > std::numeric_limits<int>::max() / 2) {
        fail(line, "n must be <= " + std::to_string(std::numeric_limits<int>::max() / 2) +
                       " (2n tors must fit in int)");
      }
      params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
      paper_form = true;
    } else if (key == "middles") {
      params.num_middles = parse_int(value, line, "middles");
      saw_middles = true;
    } else if (key == "tors") {
      params.num_tors = parse_int(value, line, "tors");
      saw_tors = true;
    } else if (key == "servers") {
      params.servers_per_tor = parse_int(value, line, "servers");
      saw_servers = true;
    } else if (key == "capacity") {
      params.link_capacity = parse_rational(value, line, "capacity");
      if (params.link_capacity.is_negative() || params.link_capacity.is_zero()) {
        fail(line, "capacity must be positive");
      }
    } else {
      fail(line, "unknown clos option " + quoted(key));
    }
  }
  if (paper_form && (saw_middles || saw_tors || saw_servers)) {
    fail(line, "use either n=... or middles=/tors=/servers=, not both");
  }
  if (!paper_form && !(saw_middles && saw_tors && saw_servers)) {
    fail(line, "clos needs n=... or all of middles=, tors=, servers=");
  }
  if (params.num_middles < 1 || params.num_tors < 1 || params.servers_per_tor < 1) {
    fail(line, "middles/tors/servers must be >= 1");
  }
  spec.params = params;
}

// Parses one flow line into `spec`; returns whether its coordinates lie
// within the declared clos dimensions.
bool parse_flow_line(const std::vector<std::string_view>& tokens, std::size_t line,
                     InstanceSpec& spec) {
  // flow A B -> C D [xK] [@R]
  if (tokens.size() < 6 || tokens[3] != "->") {
    fail(line,
         "expected: flow <src_tor> <src_server> -> <dst_tor> <dst_server> [xK] [@rate]");
  }
  FlowSpec flow;
  flow.src_tor = parse_int(tokens[1], line, "src_tor");
  flow.src_server = parse_int(tokens[2], line, "src_server");
  flow.dst_tor = parse_int(tokens[4], line, "dst_tor");
  flow.dst_server = parse_int(tokens[5], line, "dst_server");

  int multiplicity = 1;
  std::optional<Rational> rate;
  for (std::size_t i = 6; i < tokens.size(); ++i) {
    const std::string_view t = tokens[i];
    if (t.size() >= 2 && t[0] == 'x') {
      multiplicity = parse_int(t.substr(1), line, "multiplicity");
      if (multiplicity < 1) fail(line, "multiplicity must be >= 1");
    } else if (t.size() >= 2 && t[0] == '@') {
      rate = parse_rational(t.substr(1), line, "rate");
      if (rate->is_negative()) fail(line, "target rate must be non-negative");
    } else {
      fail(line, "unexpected token " + quoted(t) + " after flow (want xK or @rate)");
    }
  }
  const auto count = static_cast<std::size_t>(multiplicity);
  spec.flows.insert(spec.flows.end(), count, flow);
  spec.rates.insert(spec.rates.end(), count, rate);

  const ClosNetwork::Params& p = spec.params;
  return flow.src_tor >= 1 && flow.src_tor <= p.num_tors && flow.dst_tor >= 1 &&
         flow.dst_tor <= p.num_tors && flow.src_server >= 1 &&
         flow.src_server <= p.servers_per_tor && flow.dst_server >= 1 &&
         flow.dst_server <= p.servers_per_tor;
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

InstanceSpec parse_instance(std::string_view text) {
  InstanceSpec spec;
  bool have_clos = false;
  // Coordinates are checked against the dimensions only once every line
  // has parsed, so a syntax error on any line takes precedence.
  std::size_t first_out_of_range = 0;
  std::vector<std::string_view> tokens;
  std::size_t line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    ++line_number;
    tokenize(text.substr(pos, eol - pos), tokens);
    pos = eol + 1;
    if (tokens.empty()) continue;
    if (tokens[0] == "clos") {
      parse_clos_line(tokens, line_number, spec, have_clos);
    } else if (tokens[0] == "flow") {
      if (!have_clos) fail(line_number, "'flow' before 'clos'");
      if (!parse_flow_line(tokens, line_number, spec) && first_out_of_range == 0) {
        first_out_of_range = line_number;
      }
    } else {
      fail(line_number, "unknown directive " + quoted(tokens[0]));
    }
  }
  if (!have_clos) throw ParseError("missing 'clos' line");
  if (first_out_of_range != 0) {
    fail(first_out_of_range, "flow coordinates out of range for declared clos dimensions");
  }
  return spec;
}

InstanceSpec parse_instance_stream(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_instance(text);
}

std::string format_instance(const InstanceSpec& spec) {
  std::string out;
  out.reserve(64 + 24 * spec.flows.size());
  const auto& p = spec.params;
  if (p.num_tors == 2 * p.num_middles && p.servers_per_tor == p.num_middles &&
      p.link_capacity == Rational{1}) {
    out += "clos n=";
    append_int(out, p.num_middles);
  } else {
    out += "clos middles=";
    append_int(out, p.num_middles);
    out += " tors=";
    append_int(out, p.num_tors);
    out += " servers=";
    append_int(out, p.servers_per_tor);
    if (!(p.link_capacity == Rational{1})) {
      out += " capacity=";
      out += p.link_capacity.to_string();
    }
  }
  out += '\n';
  // Coalesce consecutive identical flows (same endpoints and target rate)
  // into multiplicities.
  const bool with_rates = spec.rates.size() == spec.flows.size();
  for (std::size_t i = 0; i < spec.flows.size();) {
    std::size_t j = i;
    while (j < spec.flows.size() && spec.flows[j] == spec.flows[i] &&
           (!with_rates || spec.rates[j] == spec.rates[i])) {
      ++j;
    }
    const FlowSpec& f = spec.flows[i];
    out += "flow ";
    append_int(out, f.src_tor);
    out += ' ';
    append_int(out, f.src_server);
    out += " -> ";
    append_int(out, f.dst_tor);
    out += ' ';
    append_int(out, f.dst_server);
    if (j - i > 1) {
      out += " x";
      append_int(out, j - i);
    }
    if (with_rates && spec.rates[i].has_value()) {
      out += " @";
      out += spec.rates[i]->to_string();
    }
    out += '\n';
    i = j;
  }
  return out;
}

void write_rates_csv(std::ostream& out, const FlowCollection& flows,
                     const std::vector<std::string>& labels,
                     const std::vector<NamedAllocation>& allocations) {
  CF_CHECK(labels.empty() || labels.size() == flows.size());
  for (const NamedAllocation& named : allocations) {
    CF_CHECK(named.alloc != nullptr);
    CF_CHECK_MSG(named.alloc->size() == flows.size(),
                 "allocation '" << named.name << "' covers " << named.alloc->size()
                                << " flows, expected " << flows.size());
  }
  out << "flow,src_tor,src_server,dst_tor,dst_server";
  if (!labels.empty()) out << ",label";
  for (const NamedAllocation& named : allocations) {
    out << ',' << named.name << ',' << named.name << "_approx";
  }
  out << '\n';
  for (std::size_t f = 0; f < flows.size(); ++f) {
    out << f << ',' << flows[f].src_tor << ',' << flows[f].src_server << ','
        << flows[f].dst_tor << ',' << flows[f].dst_server;
    if (!labels.empty()) out << ',' << labels[f];
    for (const NamedAllocation& named : allocations) {
      const Rational& r = named.alloc->rate(f);
      out << ',' << r << ',' << r.to_double();
    }
    out << '\n';
  }
}

}  // namespace closfair
