// Max-min fair allocation by progressive filling (Definition 2.1; the
// "water-filling algorithm" of Bertsekas & Gallager cited by the paper).
//
// Given a fixed routing, all flows' rates rise together from zero; whenever a
// link saturates, the flows crossing it freeze at the current water level,
// and the rest keep rising. The result is the unique max-min fair allocation
// for that routing, characterized by the bottleneck property (Lemma 2.2,
// checked independently in fairness/bottleneck.hpp).
//
// Two engines share the algorithm:
//  - the generic template below, for any Topology/Routing and either rate
//    domain (R = Rational exact, R = double for the simulator), built on a
//    bind-time bounded-link index so rounds never re-deref the topology;
//  - WaterfillWorkspace, the Clos engine of exhaustive search and of the
//    service's final and macro-reference allocations, which adds an int64
//    fixed-denominator fast path and a bitset link-membership sweep (see
//    waterfill.cpp and docs/ALGORITHMS.md "Water-fill fast path").
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "flow/allocation.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"

namespace closfair {
namespace detail {

/// Flow-count as a rate value, in either numeric domain.
template <typename R>
[[nodiscard]] R count_as_rate(std::size_t k) {
  if constexpr (std::is_same_v<R, Rational>) {
    return Rational{static_cast<std::int64_t>(k)};
  } else {
    return static_cast<R>(k);
  }
}

/// Dense progressive-filling state over the *bounded* links of a topology:
/// link l's dense slot is slot_of[l] (kNoSlot for unbounded links), flows per
/// slot and bounded slots per flow are CSR-indexed, and count_rate caches
/// count_as_rate for every possible active count so the round loop never
/// constructs a fresh R per link per round. Shared by the generic
/// max_min_fair (both domains) so the simulator and LP layers run the same
/// core the search path does.
template <typename R>
struct FillIndex {
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  std::vector<std::uint32_t> slot_of;   // per link id -> dense slot
  std::vector<R> capacity;              // per slot
  std::vector<std::size_t> slot_off;    // per slot: CSR offset into slot_flows
  std::vector<FlowIndex> slot_flows;    // flows crossing each slot
  std::vector<std::size_t> flow_off;    // per flow: CSR offset into flow_slots
  std::vector<std::uint32_t> flow_slots;  // bounded slots on each flow's path
  std::vector<R> count_rate;            // count_as_rate(k) for k = 0..max_active

  [[nodiscard]] std::size_t num_slots() const { return capacity.size(); }

  void bind(const Topology& topo, const Routing& routing) {
    const std::size_t num_links = topo.num_links();
    const std::size_t num_flows = routing.size();

    // One topology pass hoists the per-round `topo.link(l).unbounded`
    // re-lookup into this bind-time bounded-link index.
    slot_of.assign(num_links, kNoSlot);
    capacity.clear();
    for (std::size_t l = 0; l < num_links; ++l) {
      const Link& link = topo.link(static_cast<LinkId>(l));
      if (link.unbounded) continue;
      slot_of[l] = static_cast<std::uint32_t>(capacity.size());
      capacity.push_back(capacity_as<R>(link));
    }

    // CSR in both directions, counting first.
    slot_off.assign(num_slots() + 1, 0);
    flow_off.assign(num_flows + 1, 0);
    for (FlowIndex f = 0; f < num_flows; ++f) {
      for (LinkId l : routing.path(f)) {
        const std::uint32_t s = slot_of[static_cast<std::size_t>(l)];
        if (s == kNoSlot) continue;
        ++slot_off[s + 1];
        ++flow_off[f + 1];
      }
    }
    for (std::size_t s = 0; s < num_slots(); ++s) slot_off[s + 1] += slot_off[s];
    for (FlowIndex f = 0; f < num_flows; ++f) flow_off[f + 1] += flow_off[f];

    slot_flows.assign(slot_off[num_slots()], 0);
    flow_slots.assign(flow_off[num_flows], 0);
    std::vector<std::size_t> cursor(slot_off.begin(), slot_off.end() - 1);
    std::size_t flow_cursor = 0;
    for (FlowIndex f = 0; f < num_flows; ++f) {
      for (LinkId l : routing.path(f)) {
        const std::uint32_t s = slot_of[static_cast<std::size_t>(l)];
        if (s == kNoSlot) continue;
        slot_flows[cursor[s]++] = f;
        flow_slots[flow_cursor++] = s;
      }
    }

    std::size_t max_active = 0;
    for (std::size_t s = 0; s < num_slots(); ++s) {
      max_active = std::max(max_active, slot_off[s + 1] - slot_off[s]);
    }
    count_rate.clear();
    count_rate.reserve(max_active + 1);
    for (std::size_t k = 0; k <= max_active; ++k) {
      count_rate.push_back(count_as_rate<R>(k));
    }
  }
};

}  // namespace detail

/// Max-min fair allocation for a fixed routing.
///
/// Preconditions: the routing is valid for `flows`, and every flow traverses
/// at least one capacity-bounded link (otherwise its max-min rate would be
/// unbounded; in Clos networks and macro-switches the server links always
/// bound it). Throws ContractViolation if violated.
template <typename R>
[[nodiscard]] Allocation<R> max_min_fair(const Topology& topo, const FlowSet& flows,
                                         const Routing& routing) {
  CF_CHECK(routing.size() == flows.size());
  const std::size_t num_flows = flows.size();

  detail::FillIndex<R> index;
  index.bind(topo, routing);
  const std::size_t num_slots = index.num_slots();

  // Per-slot state: residual capacity after frozen flows, and the number of
  // still-active (unfrozen) flows crossing the link.
  std::vector<R> residual = index.capacity;
  std::vector<std::size_t> active_count(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    active_count[s] = index.slot_off[s + 1] - index.slot_off[s];
  }

  std::vector<R> rates(num_flows, R{0});
  std::vector<bool> frozen(num_flows, false);
  std::size_t num_frozen = 0;
  std::vector<std::uint32_t> saturated;  // slots attaining the round's level
  std::vector<FlowIndex> to_freeze;      // both reused across rounds
  saturated.reserve(num_slots);
  std::uint64_t obs_rounds = 0;          // reported once, below

  while (num_frozen < num_flows) {
    // The next saturation level: the smallest fair share (residual / active)
    // over bounded links that still carry active flows. All active flows
    // currently sit at the previous level, already subtracted from residual.
    // One pass computes each slot's share once, tracking the minimum and the
    // slots that attain it.
    bool have_level = false;
    R level{0};
    saturated.clear();
    for (std::size_t s = 0; s < num_slots; ++s) {
      if (active_count[s] == 0) continue;
      R share = residual[s] / index.count_rate[active_count[s]];
      if (!have_level || share < level) {
        have_level = true;
        level = std::move(share);
        saturated.clear();
        saturated.push_back(static_cast<std::uint32_t>(s));
      } else if (share == level) {
        saturated.push_back(static_cast<std::uint32_t>(s));
      }
    }
    CF_CHECK_MSG(have_level,
                 "flow with no bounded link: max-min rate would be unbounded");

    // Freeze every active flow crossing a link that saturates at this level.
    to_freeze.clear();
    for (std::uint32_t s : saturated) {
      for (std::size_t idx = index.slot_off[s]; idx < index.slot_off[s + 1]; ++idx) {
        const FlowIndex f = index.slot_flows[idx];
        if (!frozen[f]) to_freeze.push_back(f);
      }
    }
    CF_CHECK(!to_freeze.empty());

    // The increment applies to *all* active flows; links keep carrying the
    // unfrozen ones, so charge every slot for its active flows first, then
    // retire the frozen flows from the active sets.
    for (std::size_t s = 0; s < num_slots; ++s) {
      if (active_count[s] == 0) continue;
      residual[s] -= level * index.count_rate[active_count[s]];
    }
    for (FlowIndex f = 0; f < num_flows; ++f) {
      if (!frozen[f]) rates[f] += level;
    }
    for (FlowIndex f : to_freeze) {
      if (frozen[f]) continue;
      frozen[f] = true;
      ++num_frozen;
      for (std::size_t idx = index.flow_off[f]; idx < index.flow_off[f + 1]; ++idx) {
        --active_count[index.flow_slots[idx]];
      }
    }
    ++obs_rounds;
  }
  OBS_COUNTER_INC("waterfill.generic_calls");
  OBS_COUNTER_ADD("waterfill.generic_rounds", obs_rounds);
  return Allocation<R>(std::move(rates));
}

/// Convenience: max-min fair allocation in a Clos network for a compact
/// middle assignment.
template <typename R>
[[nodiscard]] Allocation<R> max_min_fair(const ClosNetwork& net, const FlowSet& flows,
                                         const MiddleAssignment& middles) {
  return max_min_fair<R>(net.topology(), flows, expand_routing(net, flows, middles));
}

/// Convenience: the (unique) max-min fair allocation in a macro-switch.
template <typename R>
[[nodiscard]] Allocation<R> max_min_fair(const MacroSwitch& ms, const FlowSet& flows) {
  return max_min_fair<R>(ms.topology(), flows, macro_routing(ms, flows));
}

/// Reusable exact water-filling state for repeated evaluation of Clos middle
/// assignments — the exhaustive-search inner loop, and the service's one-shot
/// Clos and macro-switch allocations.
///
/// `bind` precomputes, per flow, the two routing-independent links (source
/// and destination) and a per-middle uplink/downlink lookup table, so a
/// candidate MiddleAssignment maps directly onto link loads without building
/// a Routing (`expand_routing`) or a per-link flow index (`flows_per_link`)
/// per candidate. Every buffer is pre-sized at bind: no heap allocation
/// happens per candidate (steady_state_allocs() audits this; the search
/// engine exports it as the waterfill.steady_state_allocs gauge).
///
/// Candidate state is SoA over the *used* links only: each used link gets a
/// dense slot holding its residual, active count, and a bitset of the flows
/// crossing it, so the min-share scan runs over contiguous arrays and a
/// freeze round is a masked word sweep with popcount instead of CSR pointer
/// chasing. Endpoint (source/destination) links do not depend on the middle
/// assignment, so their slots are built once at bind and replayed per call
/// with three memcpys; endpoint links carrying exactly one flow fold into a
/// single per-flow ceiling slot (among constraints on the same lone flow,
/// only the tightest can ever bind — the rest are dominated and saturate no
/// earlier, freezing nothing new).
///
/// Arithmetic runs on an int64 fixed-denominator fast path whenever bind
/// found a common denominator that scales every capacity into int64: levels,
/// residual updates, and share comparisons are then pure integer ops (shares
/// compared by 128-bit cross-multiplication, state rescaled by the freezing
/// link's active count each round). Any checked-arithmetic overflow abandons
/// the call and transparently re-runs it on the exact Rational engine, so
/// results are byte-identical to `max_min_fair<Rational>(net, flows,
/// middles)` by construction — gated by tests/test_waterfill_fastpath.cpp.
class WaterfillWorkspace {
 public:
  WaterfillWorkspace() = default;

  /// Bind to an instance; sizes all buffers. May be called again to re-bind.
  void bind(const ClosNetwork& net, const FlowSet& flows);

  /// Bind to the server links alone: the macro-switch of `params`, whose
  /// unbounded middle stage constrains nothing (§2.1), over the
  /// coordinate-level `flows`. No topology is built, and every slot is a
  /// fixed endpoint slot; max_min_rates then takes an empty assignment.
  void bind_server_links(const MacroSwitch::Params& params, const FlowCollection& flows);

  /// Max-min fair rates in flow order for `middles` (empty after
  /// bind_server_links). The returned reference (and its `data()` pointer)
  /// stays valid and stable until the next call; callers needing persistence
  /// must copy.
  const std::vector<Rational>& max_min_rates(const MiddleAssignment& middles);

  /// True when bind found a common denominator scaling every capacity into
  /// int64 — the precondition of the fixed-denominator fast path.
  [[nodiscard]] bool fast_path_available() const { return fast_ok_; }

  /// Route every call onto the exact Rational engine regardless of
  /// fast-path availability (differential tests, fallback benchmarks).
  void set_force_fallback(bool force) { force_fallback_ = force; }

  /// True iff the most recent max_min_rates call completed on the fast path.
  [[nodiscard]] bool last_call_was_fast() const { return last_call_fast_; }

  /// Buffer-growth events observed since bind. Zero proves the steady state
  /// allocates nothing; the search engine sums this across workers into the
  /// waterfill.steady_state_allocs gauge.
  [[nodiscard]] std::uint64_t steady_state_allocs() const {
    return steady_state_allocs_;
  }

 private:
  /// The bind tail shared by both modes: given capacity_ and each flow's
  /// endpoint links in flow_links_, derives the fixed-denominator scaling,
  /// sizes every buffer and builds the fixed endpoint slots.
  void bind_slots();

  /// Maps `middles` onto dense per-used-link slots (capacities, flow
  /// bitsets). Shared prologue of both engines.
  void map_candidate(const MiddleAssignment& middles);

  /// Int64 fixed-denominator filling. Returns false when a checked op
  /// overflows (state is then abandoned; the caller re-runs on Rationals).
  /// Internally retries once via reseed_fast() with the running state
  /// gcd-reduced before every round.
  bool run_fast(std::uint64_t& rounds, std::uint64_t& saturations);

  /// One filling attempt over the mapped slots. No overflow snapshots: a
  /// failed round leaves the int64 state consumed and returns false.
  bool fill_fast(bool reduce_each_round, std::uint64_t& rounds,
                 std::uint64_t& saturations);

  /// Re-derives the int64 residuals (and, for multi-word bitsets, the
  /// active counts) consumed by a failed fill_fast attempt.
  void reseed_fast();

  /// Exact Rational filling over the same mapped slots.
  void run_fallback(std::uint64_t& rounds, std::uint64_t& saturations);

  /// Sum of every member buffer's capacity — the steady-state alloc audit.
  [[nodiscard]] std::size_t buffer_capacity_sum() const;

  int num_middles_ = 0;  ///< 0 after bind_server_links: no middle stage
  std::size_t num_flows_ = 0;
  std::size_t words_ = 0;  ///< bitset words per flow set: ceil(num_flows / 64)

  // Bind-time tables. flow_links_ holds each flow's fixed endpoint links in
  // slots 0 (source link) and 3 (destination link); the per-candidate uplink
  // and downlink come straight from the lookup tables in map_candidate and
  // never touch memory.
  std::vector<LinkId> flow_links_;     // 4 * num_flows_
  std::vector<LinkId> updown_of_;      // [2 * (flow * n + (m-1))] -> {up, down}
  std::vector<Rational> capacity_;     // per link
  std::vector<std::int64_t> scaled_capacity_;  // per link, over common_den_
  std::vector<Rational> count_rational_;       // Rational{k}, k = 0..num_flows_
  std::int64_t common_den_ = 1;
  bool fast_ok_ = false;
  bool force_fallback_ = false;
  bool last_call_fast_ = false;

  // Fixed endpoint slots, built once at bind: slots [0, num_fixed_) hold the
  // source/destination-link constraints (middle-independent), with endpoint
  // links carrying exactly one flow folded into a single per-flow ceiling
  // slot of the minimum capacity. map_candidate replays them by memcpy.
  std::size_t num_fixed_ = 0;
  std::vector<Rational> fixed_cap_;                  // per fixed slot (fallback)
  std::vector<std::int64_t> fixed_residual_template_;  // scaled capacities
  std::vector<std::uint32_t> fixed_active_template_;   // flows per fixed slot
  std::vector<std::uint64_t> fixed_mask_template_;     // words_ per fixed slot

  // Candidate mapping: link id -> dense slot, via epoch stamps so reset cost
  // scales with the links the candidate actually uses. Only uplinks and
  // downlinks go through the epoch table; per-call slots start at num_fixed_.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> link_epoch_;  // per link
  std::vector<std::uint32_t> link_slot_;   // per link: dense slot this epoch
  std::size_t num_slots_ = 0;

  // SoA per-slot candidate state (dense, pre-sized to 4 * num_flows_ plus a
  // sink slot that absorbs count decrements for folded duplicate entries).
  // map_candidate() seeds slot_residual_num_ and slot_active_ directly, so
  // the fast engine starts without an init pass; the fallback re-derives
  // both from fixed_cap_ / slot_link_ / slot_mask_ (it runs after the fast
  // engine may have consumed them).
  std::vector<std::uint32_t> slot_link_;      // slot -> link id (j >= num_fixed_)
  std::vector<Rational> slot_residual_;       // fallback engine state
  std::vector<std::int64_t> slot_residual_num_;  // fast engine state
  std::vector<std::uint32_t> slot_active_;    // unfrozen flows per slot
  std::vector<std::uint64_t> slot_mask_;      // words_ per slot: flows crossing
  std::vector<std::uint32_t> flow_slot_;      // 4 * num_flows_: slots per flow
  std::vector<std::uint32_t> saturated_;      // round scratch: slots at the min
  std::vector<std::uint64_t> frozen_mask_;    // words_
  std::vector<std::uint64_t> freeze_mask_;    // words_: round scratch
  std::vector<std::int64_t> rate_num_;        // per flow, over the running den
  std::vector<Rational> rates_;               // per flow: the result

  std::uint64_t steady_state_allocs_ = 0;
  std::size_t bound_capacity_sum_ = 0;
};

}  // namespace closfair
