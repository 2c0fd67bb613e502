// The three-stage Clos network C_n of the paper (§2.1).
//
// C_n has n middle switches, 2n input and 2n output ToR switches, and n
// source (destination) servers per input (output) ToR; every link has unit
// capacity, and every source-destination pair is connected by exactly n
// paths, one per middle switch. A generalized constructor (arbitrary middle /
// ToR / server counts) is provided for workload studies; the paper's C_n is
// `ClosNetwork::paper(n)`.
//
// All accessors are 1-based to match the paper's indexing: i ∈ [num_tors],
// j ∈ [servers_per_tor], m ∈ [num_middles].
#pragma once

#include <vector>

#include "net/topology.hpp"

namespace closfair {

/// Builder + index map for a Clos network topology.
class ClosNetwork {
 public:
  struct Params {
    int num_middles = 1;      ///< n middle switches
    int num_tors = 2;         ///< input ToRs (= output ToRs)
    int servers_per_tor = 1;  ///< sources per input ToR (= dests per output ToR)
    Rational link_capacity{1};

    friend bool operator==(const Params&, const Params&) = default;
  };

  /// The paper's C_n: n middles, 2n ToRs per side, n servers per ToR.
  static ClosNetwork paper(int n);

  explicit ClosNetwork(Params params);

  [[nodiscard]] int num_middles() const { return params_.num_middles; }
  [[nodiscard]] int num_tors() const { return params_.num_tors; }
  [[nodiscard]] int servers_per_tor() const { return params_.servers_per_tor; }
  [[nodiscard]] int num_sources() const { return params_.num_tors * params_.servers_per_tor; }
  [[nodiscard]] int num_destinations() const { return num_sources(); }

  /// Source server s_i^j.
  [[nodiscard]] NodeId source(int i, int j) const;
  /// Destination server t_i^j.
  [[nodiscard]] NodeId destination(int i, int j) const;
  /// Input ToR switch I_i.
  [[nodiscard]] NodeId input_switch(int i) const;
  /// Middle switch M_m.
  [[nodiscard]] NodeId middle(int m) const;
  /// Output ToR switch O_i.
  [[nodiscard]] NodeId output_switch(int i) const;

  /// Link s_i^j -> I_i.
  [[nodiscard]] LinkId source_link(int i, int j) const;
  /// Link I_i -> M_m.
  [[nodiscard]] LinkId uplink(int i, int m) const;
  /// Link M_m -> O_i.
  [[nodiscard]] LinkId downlink(int m, int i) const;
  /// Link O_i -> t_i^j.
  [[nodiscard]] LinkId dest_link(int i, int j) const;

  /// Coordinates (ToR index i, server index j) of a server node, 1-based.
  struct ServerCoord {
    int tor = 0;
    int server = 0;
  };
  [[nodiscard]] ServerCoord source_coord(NodeId src) const;
  [[nodiscard]] ServerCoord dest_coord(NodeId dst) const;

  /// The unique src-dst path through middle switch m (4 links).
  [[nodiscard]] Path path(NodeId src, NodeId dst, int m) const;
  /// All n src-dst paths, through middles 1..n in order.
  [[nodiscard]] std::vector<Path> paths(NodeId src, NodeId dst) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// True when the middle switches are interchangeable: for every input ToR
  /// all n uplink capacities are equal, and for every output ToR all n
  /// downlink capacities are equal. Any permutation of middle labels is then
  /// a capacity-preserving automorphism, which licenses the symmetry-reduced
  /// (canonical) enumeration of middle assignments in routing/search_engine.
  /// Freshly constructed networks are always symmetric; the capacity setters
  /// below can break it.
  [[nodiscard]] bool middles_symmetric() const;

  /// Override the capacity of link I_i -> M_m (breaks middle symmetry when
  /// the new value differs from ToR i's other uplinks).
  void set_uplink_capacity(int i, int m, Rational capacity);
  /// Override the capacity of link M_m -> O_i.
  void set_downlink_capacity(int m, int i, Rational capacity);

 private:
  Params params_;
  Topology topo_;
  std::vector<NodeId> sources_;       // [tor-1][server-1] flattened
  std::vector<NodeId> dests_;
  std::vector<NodeId> inputs_;        // [tor-1]
  std::vector<NodeId> middles_;       // [middle-1]
  std::vector<NodeId> outputs_;
  std::vector<LinkId> source_links_;  // same shape as sources_
  std::vector<LinkId> dest_links_;
  std::vector<LinkId> uplinks_;       // [tor-1][middle-1] flattened
  std::vector<LinkId> downlinks_;     // [middle-1][tor-1] flattened
  NodeId first_source_ = kInvalidNode;
  NodeId first_dest_ = kInvalidNode;

  [[nodiscard]] std::size_t server_index(int i, int j) const;
};

}  // namespace closfair
