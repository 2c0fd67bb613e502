#include "net/clos.hpp"

#include <string>

namespace closfair {
namespace {

std::string coord_name(const char* stem, int i, int j) {
  return std::string{stem} + std::to_string(i) + "^" + std::to_string(j);
}

}  // namespace

ClosNetwork ClosNetwork::paper(int n) {
  CF_CHECK_MSG(n >= 1, "C_n requires n >= 1");
  return ClosNetwork(Params{n, 2 * n, n, Rational{1}});
}

ClosNetwork::ClosNetwork(Params params) : params_(params) {
  CF_CHECK(params_.num_middles >= 1);
  CF_CHECK(params_.num_tors >= 1);
  CF_CHECK(params_.servers_per_tor >= 1);

  const int tors = params_.num_tors;
  const int servers = params_.servers_per_tor;
  const int middles = params_.num_middles;

  inputs_.reserve(static_cast<std::size_t>(tors));
  outputs_.reserve(static_cast<std::size_t>(tors));
  for (int i = 1; i <= tors; ++i) {
    inputs_.push_back(topo_.add_node("I" + std::to_string(i), NodeKind::kInputSwitch));
    outputs_.push_back(topo_.add_node("O" + std::to_string(i), NodeKind::kOutputSwitch));
  }
  middles_.reserve(static_cast<std::size_t>(middles));
  for (int m = 1; m <= middles; ++m) {
    middles_.push_back(topo_.add_node("M" + std::to_string(m), NodeKind::kMiddleSwitch));
  }

  sources_.resize(static_cast<std::size_t>(tors) * servers);
  dests_.resize(sources_.size());
  source_links_.resize(sources_.size());
  dest_links_.resize(sources_.size());
  for (int i = 1; i <= tors; ++i) {
    for (int j = 1; j <= servers; ++j) {
      const NodeId s = topo_.add_node(coord_name("s", i, j), NodeKind::kSource);
      const NodeId t = topo_.add_node(coord_name("t", i, j), NodeKind::kDestination);
      if (first_source_ == kInvalidNode) first_source_ = s;
      if (first_dest_ == kInvalidNode) first_dest_ = t;
      sources_[server_index(i, j)] = s;
      dests_[server_index(i, j)] = t;
      source_links_[server_index(i, j)] =
          topo_.add_link(s, input_switch(i), params_.link_capacity);
      dest_links_[server_index(i, j)] =
          topo_.add_link(output_switch(i), t, params_.link_capacity);
    }
  }

  uplinks_.resize(static_cast<std::size_t>(tors) * middles);
  downlinks_.resize(uplinks_.size());
  for (int i = 1; i <= tors; ++i) {
    for (int m = 1; m <= middles; ++m) {
      uplinks_[static_cast<std::size_t>(i - 1) * middles + (m - 1)] =
          topo_.add_link(input_switch(i), middle(m), params_.link_capacity);
      downlinks_[static_cast<std::size_t>(m - 1) * tors + (i - 1)] =
          topo_.add_link(middle(m), output_switch(i), params_.link_capacity);
    }
  }
}

std::size_t ClosNetwork::server_index(int i, int j) const {
  CF_CHECK_MSG(i >= 1 && i <= params_.num_tors, "ToR index " << i << " out of [1, "
                                                              << params_.num_tors << "]");
  CF_CHECK_MSG(j >= 1 && j <= params_.servers_per_tor,
               "server index " << j << " out of [1, " << params_.servers_per_tor << "]");
  return static_cast<std::size_t>(i - 1) * params_.servers_per_tor + (j - 1);
}

NodeId ClosNetwork::source(int i, int j) const { return sources_[server_index(i, j)]; }
NodeId ClosNetwork::destination(int i, int j) const { return dests_[server_index(i, j)]; }

NodeId ClosNetwork::input_switch(int i) const {
  CF_CHECK(i >= 1 && i <= params_.num_tors);
  return inputs_[static_cast<std::size_t>(i - 1)];
}

NodeId ClosNetwork::middle(int m) const {
  CF_CHECK_MSG(m >= 1 && m <= params_.num_middles,
               "middle index " << m << " out of [1, " << params_.num_middles << "]");
  return middles_[static_cast<std::size_t>(m - 1)];
}

NodeId ClosNetwork::output_switch(int i) const {
  CF_CHECK(i >= 1 && i <= params_.num_tors);
  return outputs_[static_cast<std::size_t>(i - 1)];
}

LinkId ClosNetwork::source_link(int i, int j) const { return source_links_[server_index(i, j)]; }
LinkId ClosNetwork::dest_link(int i, int j) const { return dest_links_[server_index(i, j)]; }

LinkId ClosNetwork::uplink(int i, int m) const {
  CF_CHECK(i >= 1 && i <= params_.num_tors);
  CF_CHECK(m >= 1 && m <= params_.num_middles);
  return uplinks_[static_cast<std::size_t>(i - 1) * params_.num_middles + (m - 1)];
}

LinkId ClosNetwork::downlink(int m, int i) const {
  CF_CHECK(i >= 1 && i <= params_.num_tors);
  CF_CHECK(m >= 1 && m <= params_.num_middles);
  return downlinks_[static_cast<std::size_t>(m - 1) * params_.num_tors + (i - 1)];
}

bool ClosNetwork::middles_symmetric() const {
  const int middles = params_.num_middles;
  for (int i = 1; i <= params_.num_tors; ++i) {
    const Rational up = topo_.link(uplink(i, 1)).capacity;
    const Rational down = topo_.link(downlink(1, i)).capacity;
    for (int m = 2; m <= middles; ++m) {
      if (topo_.link(uplink(i, m)).capacity != up) return false;
      if (topo_.link(downlink(m, i)).capacity != down) return false;
    }
  }
  return true;
}

void ClosNetwork::set_uplink_capacity(int i, int m, Rational capacity) {
  topo_.set_link_capacity(uplink(i, m), capacity);
}

void ClosNetwork::set_downlink_capacity(int m, int i, Rational capacity) {
  topo_.set_link_capacity(downlink(m, i), capacity);
}

ClosNetwork::ServerCoord ClosNetwork::source_coord(NodeId src) const {
  CF_CHECK_MSG(topo_.node(src).kind == NodeKind::kSource, "node is not a source server");
  // Sources and destinations are interleaved in creation order: the k'th
  // created source has id first_source_ + 2k.
  const auto offset = static_cast<std::size_t>(src - first_source_) / 2;
  const int servers = params_.servers_per_tor;
  return ServerCoord{static_cast<int>(offset) / servers + 1,
                     static_cast<int>(offset) % servers + 1};
}

ClosNetwork::ServerCoord ClosNetwork::dest_coord(NodeId dst) const {
  CF_CHECK_MSG(topo_.node(dst).kind == NodeKind::kDestination, "node is not a destination server");
  const auto offset = static_cast<std::size_t>(dst - first_dest_) / 2;
  const int servers = params_.servers_per_tor;
  return ServerCoord{static_cast<int>(offset) / servers + 1,
                     static_cast<int>(offset) % servers + 1};
}

Path ClosNetwork::path(NodeId src, NodeId dst, int m) const {
  const ServerCoord s = source_coord(src);
  const ServerCoord t = dest_coord(dst);
  return Path{source_link(s.tor, s.server), uplink(s.tor, m), downlink(m, t.tor),
              dest_link(t.tor, t.server)};
}

std::vector<Path> ClosNetwork::paths(NodeId src, NodeId dst) const {
  const ServerCoord s = source_coord(src);
  const ServerCoord t = dest_coord(dst);
  std::vector<Path> all;
  all.reserve(static_cast<std::size_t>(num_middles()));
  for (int m = 1; m <= num_middles(); ++m) {
    all.push_back(Path{source_link(s.tor, s.server), uplink(s.tor, m), downlink(m, t.tor),
                       dest_link(t.tor, t.server)});
  }
  return all;
}

}  // namespace closfair
