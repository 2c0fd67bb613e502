#include "fairness/waterfill.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"

namespace closfair {

// Explicit instantiations for the two supported rate domains, keeping the
// template out of every includer's object file.
template Allocation<Rational> max_min_fair<Rational>(const Topology&, const FlowSet&,
                                                     const Routing&);
template Allocation<double> max_min_fair<double>(const Topology&, const FlowSet&,
                                                 const Routing&);

void WaterfillWorkspace::bind(const ClosNetwork& net, const FlowSet& flows) {
  const Topology& topo = net.topology();
  const int n = net.num_middles();
  num_middles_ = n;
  num_flows_ = flows.size();
  const std::size_t num_links = topo.num_links();

  capacity_.assign(num_links, Rational{0});
  for (std::size_t l = 0; l < num_links; ++l) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    CF_CHECK_MSG(!link.unbounded, "WaterfillWorkspace requires bounded links");
    capacity_[l] = link.capacity;
  }

  // Uplink/downlink ids interleaved per (flow, middle) so map_candidate
  // reads both middle-dependent links of a flow from one cache line.
  flow_links_.assign(4 * num_flows_, kInvalidLink);
  updown_of_.assign(num_flows_ * static_cast<std::size_t>(n) * 2, kInvalidLink);
  for (FlowIndex f = 0; f < num_flows_; ++f) {
    const ClosNetwork::ServerCoord s = net.source_coord(flows[f].src);
    const ClosNetwork::ServerCoord t = net.dest_coord(flows[f].dst);
    flow_links_[4 * f + 0] = net.source_link(s.tor, s.server);
    flow_links_[4 * f + 3] = net.dest_link(t.tor, t.server);
    for (int m = 1; m <= n; ++m) {
      const std::size_t base = (f * static_cast<std::size_t>(n) + (m - 1)) * 2;
      updown_of_[base + 0] = net.uplink(s.tor, m);
      updown_of_[base + 1] = net.downlink(m, t.tor);
    }
  }
  bind_slots();
}

void WaterfillWorkspace::bind_server_links(const MacroSwitch::Params& params,
                                           const FlowCollection& flows) {
  CF_CHECK(params.num_tors >= 1 && params.servers_per_tor >= 1);
  num_middles_ = 0;
  num_flows_ = flows.size();
  // Dense link ids of their own: source link (i, j) is (i-1)*S + (j-1), and
  // destination links follow all source links.
  const std::size_t servers =
      static_cast<std::size_t>(params.num_tors) * static_cast<std::size_t>(params.servers_per_tor);
  const auto link_of = [&](int tor, int server) {
    CF_CHECK_MSG(tor >= 1 && tor <= params.num_tors && server >= 1 &&
                     server <= params.servers_per_tor,
                 "server (" << tor << ", " << server << ") outside the macro-switch");
    return static_cast<std::size_t>(tor - 1) * static_cast<std::size_t>(params.servers_per_tor) +
           static_cast<std::size_t>(server - 1);
  };
  capacity_.assign(2 * servers, params.link_capacity);
  flow_links_.assign(4 * num_flows_, kInvalidLink);
  updown_of_.clear();
  for (FlowIndex f = 0; f < num_flows_; ++f) {
    flow_links_[4 * f + 0] = static_cast<LinkId>(link_of(flows[f].src_tor, flows[f].src_server));
    flow_links_[4 * f + 3] =
        static_cast<LinkId>(servers + link_of(flows[f].dst_tor, flows[f].dst_server));
  }
  bind_slots();
}

void WaterfillWorkspace::bind_slots() {
  words_ = (num_flows_ + 63) / 64;
  const std::size_t num_links = capacity_.size();

  // Fixed-denominator scaling: common_den_ = lcm of every capacity
  // denominator; scaled_capacity_[l] = num_l * (common_den_ / den_l). The
  // fast path is available only when both survive int64.
  common_den_ = 1;
  fast_ok_ = true;
  for (std::size_t l = 0; l < num_links && fast_ok_; ++l) {
    fast_ok_ = checked_lcm_i64(common_den_, capacity_[l].den(), common_den_);
  }
  scaled_capacity_.assign(num_links, 0);
  for (std::size_t l = 0; l < num_links && fast_ok_; ++l) {
    fast_ok_ = checked_mul_i64(capacity_[l].num(), common_den_ / capacity_[l].den(),
                               scaled_capacity_[l]);
  }
  if (!fast_ok_) common_den_ = 1;

  count_rational_.clear();
  count_rational_.reserve(num_flows_ + 1);
  for (std::size_t k = 0; k <= num_flows_; ++k) {
    count_rational_.push_back(Rational{static_cast<std::int64_t>(k)});
  }

  epoch_ = 0;
  link_epoch_.assign(num_links, 0);
  link_slot_.assign(num_links, 0);
  num_slots_ = 0;

  // One extra sink slot: when both endpoint links of a flow fold into the
  // same ceiling slot, the duplicate flow_slot_ entry points here so the
  // per-flow decrement path stays branch-free (the sink is never scanned).
  const std::size_t max_slots = 4 * num_flows_;
  slot_link_.assign(max_slots, 0);
  slot_residual_.assign(max_slots, Rational{0});
  slot_residual_num_.assign(max_slots, 0);
  slot_active_.assign(max_slots + 1, 0);
  slot_mask_.assign(max_slots * words_, 0);
  flow_slot_.assign(4 * num_flows_, 0);
  saturated_.assign(max_slots, 0);
  frozen_mask_.assign(words_, 0);
  freeze_mask_.assign(words_, 0);
  rate_num_.assign(num_flows_, 0);
  rates_.assign(num_flows_, Rational{0});

  // Fixed endpoint slots: source and destination links do not depend on the
  // middle assignment, so their slots, bitsets, and active counts are built
  // once here and replayed by memcpy in map_candidate. An endpoint link
  // carrying exactly one flow folds into that flow's single ceiling slot of
  // minimum capacity: among constraints binding the same lone flow only the
  // tightest can saturate first, so the others are dominated — they saturate
  // no earlier and would freeze nothing new in either engine.
  constexpr std::uint32_t kNoFixedSlot = 0xFFFFFFFFu;
  const auto sink_slot = static_cast<std::uint32_t>(max_slots);
  std::vector<std::uint32_t> endpoint_count(num_links, 0);
  for (FlowIndex f = 0; f < num_flows_; ++f) {
    ++endpoint_count[static_cast<std::size_t>(flow_links_[4 * f + 0])];
    ++endpoint_count[static_cast<std::size_t>(flow_links_[4 * f + 3])];
  }
  num_fixed_ = 0;
  fixed_cap_.clear();
  fixed_residual_template_.clear();
  fixed_active_template_.clear();
  fixed_mask_template_.clear();
  std::vector<std::uint32_t> fixed_slot_of(num_links, kNoFixedSlot);
  for (FlowIndex f = 0; f < num_flows_; ++f) {
    const std::uint64_t bit = 1ULL << (f & 63);
    const std::size_t word = f >> 6;
    LinkId ceiling = kInvalidLink;
    for (const int e : {0, 3}) {
      const auto l = static_cast<std::size_t>(flow_links_[4 * f + e]);
      if (endpoint_count[l] == 1) {
        if (ceiling == kInvalidLink ||
            capacity_[l] < capacity_[static_cast<std::size_t>(ceiling)]) {
          ceiling = flow_links_[4 * f + e];
        }
        flow_slot_[4 * f + e] = sink_slot;
        continue;
      }
      std::uint32_t j = fixed_slot_of[l];
      if (j == kNoFixedSlot) {
        j = static_cast<std::uint32_t>(num_fixed_++);
        fixed_slot_of[l] = j;
        fixed_cap_.push_back(capacity_[l]);
        fixed_residual_template_.push_back(scaled_capacity_[l]);
        fixed_active_template_.push_back(0);
        fixed_mask_template_.resize(num_fixed_ * words_, 0ULL);
      }
      ++fixed_active_template_[j];
      fixed_mask_template_[j * words_ + word] |= bit;
      flow_slot_[4 * f + e] = j;
    }
    if (ceiling != kInvalidLink) {
      const auto l = static_cast<std::size_t>(ceiling);
      const auto j = static_cast<std::uint32_t>(num_fixed_++);
      fixed_cap_.push_back(capacity_[l]);
      fixed_residual_template_.push_back(scaled_capacity_[l]);
      fixed_active_template_.push_back(1);
      fixed_mask_template_.resize(num_fixed_ * words_, 0ULL);
      fixed_mask_template_[j * words_ + word] |= bit;
      // The first folded entry addresses the ceiling slot; when both
      // endpoints folded, the duplicate keeps pointing at the sink so the
      // per-flow decrement path never double-counts.
      if (flow_slot_[4 * f + 0] == sink_slot) {
        flow_slot_[4 * f + 0] = j;
      } else {
        flow_slot_[4 * f + 3] = j;
      }
    }
    // Without a middle stage no call maps the two fabric entries, so they
    // address the sink too.
    if (num_middles_ == 0) {
      flow_slot_[4 * f + 1] = sink_slot;
      flow_slot_[4 * f + 2] = sink_slot;
    }
  }

  last_call_fast_ = false;
  steady_state_allocs_ = 0;
  bound_capacity_sum_ = buffer_capacity_sum();
  OBS_COUNTER_INC("waterfill.binds");
}

std::size_t WaterfillWorkspace::buffer_capacity_sum() const {
  return flow_links_.capacity() + updown_of_.capacity() +
         capacity_.capacity() + scaled_capacity_.capacity() +
         count_rational_.capacity() + fixed_cap_.capacity() +
         fixed_residual_template_.capacity() + fixed_active_template_.capacity() +
         fixed_mask_template_.capacity() +
         link_epoch_.capacity() + link_slot_.capacity() +
         slot_link_.capacity() + slot_residual_.capacity() +
         slot_residual_num_.capacity() + slot_active_.capacity() +
         slot_mask_.capacity() + flow_slot_.capacity() + saturated_.capacity() +
         frozen_mask_.capacity() + freeze_mask_.capacity() +
         rate_num_.capacity() + rates_.capacity();
}

void WaterfillWorkspace::map_candidate(const MiddleAssignment& middles) {
  const auto n = static_cast<std::size_t>(num_middles_);
  if (++epoch_ == 0) {
    // Epoch counter wrapped: invalidate every stamp once, then restart at 1.
    std::fill(link_epoch_.begin(), link_epoch_.end(), 0u);
    epoch_ = 1;
  }
  // Replay the bind-time endpoint slots wholesale, then map only the two
  // middle-dependent links of each flow through the epoch table. The
  // single-word lane's fast engine derives active counts straight from
  // popcount(mask & live), so it maintains neither slot_active_ nor
  // flow_slot_ (the fallback re-derives what it needs on its own).
  num_slots_ = num_fixed_;
  std::copy_n(fixed_residual_template_.begin(), num_fixed_,
              slot_residual_num_.begin());
  std::copy_n(fixed_mask_template_.begin(), num_fixed_ * words_, slot_mask_.begin());
  if (words_ != 1) {
    std::copy_n(fixed_active_template_.begin(), num_fixed_, slot_active_.begin());
  }
  if (num_middles_ == 0) return;  // bind_server_links: no middle stage
  if (words_ == 1) {
    for (FlowIndex f = 0; f < num_flows_; ++f) {
      const int m = middles[f];
      CF_CHECK_MSG(m >= 1 && m <= num_middles_,
                   "middle index " << m << " out of [1, " << num_middles_ << "]");
      const std::size_t base = (f * n + static_cast<std::size_t>(m - 1)) * 2;
      const std::uint64_t bit = 1ULL << f;
      for (int slot = 0; slot < 2; ++slot) {
        const auto l = static_cast<std::size_t>(updown_of_[base + slot]);
        if (link_epoch_[l] != epoch_) {
          link_epoch_[l] = epoch_;
          const auto j = static_cast<std::uint32_t>(num_slots_++);
          link_slot_[l] = j;
          slot_link_[j] = static_cast<std::uint32_t>(l);
          slot_residual_num_[j] = scaled_capacity_[l];
          slot_mask_[j] = bit;
        } else {
          slot_mask_[link_slot_[l]] |= bit;
        }
      }
    }
    return;
  }
  for (FlowIndex f = 0; f < num_flows_; ++f) {
    const int m = middles[f];
    CF_CHECK_MSG(m >= 1 && m <= num_middles_,
                 "middle index " << m << " out of [1, " << num_middles_ << "]");
    const std::size_t base = (f * n + static_cast<std::size_t>(m - 1)) * 2;
    const std::uint64_t bit = 1ULL << (f & 63);
    const std::size_t word = f >> 6;
    for (int slot = 0; slot < 2; ++slot) {
      const auto l = static_cast<std::size_t>(updown_of_[base + slot]);
      std::uint32_t j;
      if (link_epoch_[l] != epoch_) {
        link_epoch_[l] = epoch_;
        j = static_cast<std::uint32_t>(num_slots_++);
        link_slot_[l] = j;
        slot_link_[j] = static_cast<std::uint32_t>(l);
        slot_residual_num_[j] = scaled_capacity_[l];
        slot_active_[j] = 1;
        std::fill_n(slot_mask_.begin() + static_cast<std::ptrdiff_t>(j * words_),
                    words_, 0ULL);
      } else {
        j = link_slot_[l];
        ++slot_active_[j];
      }
      flow_slot_[4 * f + 1 + slot] = j;
      slot_mask_[j * words_ + word] |= bit;
    }
  }
}

namespace {

using Int128 = __int128;

}  // namespace

bool WaterfillWorkspace::run_fast(std::uint64_t& rounds, std::uint64_t& saturations) {
  // Attempt 1 carries no overflow bookkeeping at all — the rare overflow
  // abandons the consumed int64 state, reseed_fast() rebuilds it from the
  // bind tables, and attempt 2 re-runs with the running state gcd-reduced
  // before every round. A second overflow means the state genuinely needs a
  // denominator beyond int64, and the exact engine takes over. Only the
  // completing attempt reports its rounds.
  std::uint64_t r = 0;
  std::uint64_t s = 0;
  if (fill_fast(false, r, s)) {
    rounds += r;
    saturations += s;
    return true;
  }
  reseed_fast();
  r = 0;
  s = 0;
  if (fill_fast(true, r, s)) {
    rounds += r;
    saturations += s;
    return true;
  }
  return false;
}

void WaterfillWorkspace::reseed_fast() {
  std::copy_n(fixed_residual_template_.begin(), num_fixed_,
              slot_residual_num_.begin());
  for (std::size_t j = num_fixed_; j < num_slots_; ++j) {
    slot_residual_num_[j] = scaled_capacity_[slot_link_[j]];
  }
  if (words_ > 1) {
    for (std::size_t j = 0; j < num_slots_; ++j) {
      std::uint32_t count = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        count +=
            static_cast<std::uint32_t>(std::popcount(slot_mask_[j * words_ + w]));
      }
      slot_active_[j] = count;
    }
  }
}

bool WaterfillWorkspace::fill_fast(bool reduce_each_round, std::uint64_t& rounds,
                                   std::uint64_t& saturations) {
  std::int64_t den = common_den_;
  std::fill(rate_num_.begin(), rate_num_.end(), std::int64_t{0});

  std::size_t num_frozen = 0;
  if (words_ == 1) {
    // Single-word lane (up to 64 flows): a slot's active count is
    // popcount(mask & live), so freezing is one OR into `frozen` and no
    // per-slot count state exists between rounds.
    std::uint64_t frozen = 0;
    while (num_frozen < num_flows_) {
      const std::uint64_t live = ~frozen;
      if (reduce_each_round) {
        std::int64_t g = den;
        for (std::size_t j = 0; j < num_slots_ && g > 1; ++j) {
          if ((slot_mask_[j] & live) != 0) g = gcd_i64(g, slot_residual_num_[j]);
        }
        for (std::size_t f = 0; f < num_flows_ && g > 1; ++f) {
          g = gcd_i64(g, rate_num_[f]);
        }
        if (g > 1) {
          den /= g;
          for (std::size_t j = 0; j < num_slots_; ++j) {
            if ((slot_mask_[j] & live) != 0) slot_residual_num_[j] /= g;
          }
          for (std::size_t f = 0; f < num_flows_; ++f) rate_num_[f] /= g;
        }
      }

      // Min-share scan: share_j = residual_j / k_j (the common denominator
      // cancels). Residuals are non-negative; when both sides fit 32 bits
      // the cross-products fit 64 and the scan avoids 128-bit multiplies.
      bool have_level = false;
      std::int64_t r_min = 0;
      std::int64_t k_min = 1;
      std::size_t num_sat = 0;
      for (std::size_t j = 0; j < num_slots_; ++j) {
        const int k = std::popcount(slot_mask_[j] & live);
        if (k == 0) continue;
        const std::int64_t r = slot_residual_num_[j];
        if (!have_level) {
          have_level = true;
          r_min = r;
          k_min = k;
          saturated_[num_sat++] = static_cast<std::uint32_t>(j);
          continue;
        }
        Int128 lhs;
        Int128 rhs;
        if (((r | r_min) >> 32) == 0) {
          lhs = static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(k_min);
          rhs = static_cast<std::uint64_t>(r_min) * static_cast<std::uint64_t>(k);
        } else {
          lhs = Int128{r} * k_min;
          rhs = Int128{r_min} * k;
        }
        if (lhs < rhs) {
          r_min = r;
          k_min = k;
          saturated_[0] = static_cast<std::uint32_t>(j);
          num_sat = 1;
        } else if (lhs == rhs) {
          saturated_[num_sat++] = static_cast<std::uint32_t>(j);
        }
      }
      CF_CHECK_MSG(have_level,
                   "flow with no bounded link: max-min rate would be unbounded");

      // Flows to freeze: union of the saturated slots' bitsets, minus the
      // already-frozen ones.
      std::uint64_t freeze = 0;
      for (std::size_t i = 0; i < num_sat; ++i) freeze |= slot_mask_[saturated_[i]];
      freeze &= live;
      const auto newly = static_cast<std::uint64_t>(std::popcount(freeze));
      CF_CHECK(newly != 0);
      const bool last_round = num_frozen + newly == num_flows_;

      // Arithmetic round: the level increment is r_min / (den * k_min), so
      // den picks up k_min, every numerator rescales by k_min, and live
      // flows additionally gain r_min (a saturated slot's residual lands on
      // exactly zero). Once every flow is frozen the residuals are dead and
      // only the rates advance.
      bool ok = checked_mul_i64(den, k_min, den);
      if (!last_round) {
        for (std::size_t j = 0; j < num_slots_ && ok; ++j) {
          const int k = std::popcount(slot_mask_[j] & live);
          if (k == 0) continue;
          std::int64_t scaled;
          std::int64_t charge;
          ok = checked_mul_i64(slot_residual_num_[j], k_min, scaled) &&
               checked_mul_i64(r_min, static_cast<std::int64_t>(k), charge) &&
               checked_sub_i64(scaled, charge, slot_residual_num_[j]);
        }
      }
      for (std::size_t f = 0; f < num_flows_ && ok; ++f) {
        ok = checked_mul_i64(rate_num_[f], k_min, rate_num_[f]);
        if (ok && ((live >> f) & 1ULL) != 0) {
          ok = checked_add_i64(rate_num_[f], r_min, rate_num_[f]);
        }
      }
      if (!ok) return false;

      frozen |= freeze;
      num_frozen += newly;
      ++rounds;
      saturations += num_sat;
    }
  } else {
    // Multi-word lane: per-slot active counts are maintained explicitly and
    // decremented through the per-flow slot table on freeze.
    std::fill(frozen_mask_.begin(), frozen_mask_.end(), 0ULL);
    while (num_frozen < num_flows_) {
      if (reduce_each_round) {
        std::int64_t g = den;
        for (std::size_t j = 0; j < num_slots_ && g > 1; ++j) {
          if (slot_active_[j] != 0) g = gcd_i64(g, slot_residual_num_[j]);
        }
        for (std::size_t f = 0; f < num_flows_ && g > 1; ++f) {
          g = gcd_i64(g, rate_num_[f]);
        }
        if (g > 1) {
          den /= g;
          for (std::size_t j = 0; j < num_slots_; ++j) {
            if (slot_active_[j] != 0) slot_residual_num_[j] /= g;
          }
          for (std::size_t f = 0; f < num_flows_; ++f) rate_num_[f] /= g;
        }
      }

      bool have_level = false;
      std::int64_t r_min = 0;
      std::int64_t k_min = 1;
      std::size_t num_sat = 0;
      for (std::size_t j = 0; j < num_slots_; ++j) {
        const std::uint32_t k = slot_active_[j];
        if (k == 0) continue;
        const std::int64_t r = slot_residual_num_[j];
        if (!have_level) {
          have_level = true;
          r_min = r;
          k_min = k;
          saturated_[num_sat++] = static_cast<std::uint32_t>(j);
          continue;
        }
        Int128 lhs;
        Int128 rhs;
        if (((r | r_min) >> 32) == 0) {
          lhs = static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(k_min);
          rhs = static_cast<std::uint64_t>(r_min) * k;
        } else {
          lhs = Int128{r} * k_min;
          rhs = Int128{r_min} * k;
        }
        if (lhs < rhs) {
          r_min = r;
          k_min = k;
          saturated_[0] = static_cast<std::uint32_t>(j);
          num_sat = 1;
        } else if (lhs == rhs) {
          saturated_[num_sat++] = static_cast<std::uint32_t>(j);
        }
      }
      CF_CHECK_MSG(have_level,
                   "flow with no bounded link: max-min rate would be unbounded");

      std::fill(freeze_mask_.begin(), freeze_mask_.end(), 0ULL);
      for (std::size_t i = 0; i < num_sat; ++i) {
        const std::size_t j = saturated_[i];
        for (std::size_t w = 0; w < words_; ++w) {
          freeze_mask_[w] |= slot_mask_[j * words_ + w];
        }
      }
      std::uint64_t newly = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        freeze_mask_[w] &= ~frozen_mask_[w];
        newly += static_cast<std::uint64_t>(std::popcount(freeze_mask_[w]));
      }
      CF_CHECK(newly != 0);
      const bool last_round = num_frozen + newly == num_flows_;

      bool ok = checked_mul_i64(den, k_min, den);
      if (!last_round) {
        for (std::size_t j = 0; j < num_slots_ && ok; ++j) {
          const std::uint32_t k = slot_active_[j];
          if (k == 0) continue;
          std::int64_t scaled;
          std::int64_t charge;
          ok = checked_mul_i64(slot_residual_num_[j], k_min, scaled) &&
               checked_mul_i64(r_min, static_cast<std::int64_t>(k), charge) &&
               checked_sub_i64(scaled, charge, slot_residual_num_[j]);
        }
      }
      for (std::size_t f = 0; f < num_flows_ && ok; ++f) {
        ok = checked_mul_i64(rate_num_[f], k_min, rate_num_[f]);
        if (ok && ((frozen_mask_[f >> 6] >> (f & 63)) & 1ULL) == 0) {
          ok = checked_add_i64(rate_num_[f], r_min, rate_num_[f]);
        }
      }
      if (!ok) return false;

      num_frozen += newly;
      if (!last_round) {
        for (std::size_t w = 0; w < words_; ++w) frozen_mask_[w] |= freeze_mask_[w];
        for (std::size_t w = 0; w < words_; ++w) {
          std::uint64_t bits = freeze_mask_[w];
          while (bits != 0) {
            const auto f = static_cast<std::size_t>(
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
            bits &= bits - 1;
            for (int slot = 0; slot < 4; ++slot) {
              --slot_active_[flow_slot_[4 * f + slot]];
            }
          }
        }
      }
      ++rounds;
      saturations += num_sat;
    }
  }

  // Normalize once per flow; the Rational constructor reduces num/den to
  // the canonical form the exact engine produces. Flows frozen in the same
  // round share a numerator, so a small memo spends one gcd per distinct
  // level instead of one per flow.
  std::int64_t memo_num[8];
  Rational memo_val[8];
  std::size_t memo_size = 0;
  for (std::size_t f = 0; f < num_flows_; ++f) {
    const std::int64_t v = rate_num_[f];
    std::size_t i = 0;
    while (i < memo_size && memo_num[i] != v) ++i;
    if (i < memo_size) {
      rates_[f] = memo_val[i];
    } else {
      rates_[f] = Rational{v, den};
      if (memo_size < 8) {
        memo_num[memo_size] = v;
        memo_val[memo_size] = rates_[f];
        ++memo_size;
      }
    }
  }
  return true;
}

void WaterfillWorkspace::run_fallback(std::uint64_t& rounds,
                                      std::uint64_t& saturations) {
  std::fill(rates_.begin(), rates_.end(), Rational{0});
  std::fill(frozen_mask_.begin(), frozen_mask_.end(), 0ULL);
  // Re-derive residuals and counts: the fast engine may have consumed the
  // map_candidate-seeded state before overflowing into this path.
  for (std::size_t j = 0; j < num_slots_; ++j) {
    slot_residual_[j] = j < num_fixed_ ? fixed_cap_[j] : capacity_[slot_link_[j]];
    std::uint32_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(slot_mask_[j * words_ + w]));
    }
    slot_active_[j] = count;
  }

  std::size_t num_frozen = 0;
  while (num_frozen < num_flows_) {
    // Same scan order as the fast path, on exact Rationals; the per-count
    // divisors come from the bind-time table instead of a fresh Rational per
    // slot per round.
    bool have_level = false;
    Rational level{0};
    std::size_t num_sat = 0;
    for (std::size_t j = 0; j < num_slots_; ++j) {
      const std::uint32_t k = slot_active_[j];
      if (k == 0) continue;
      const Rational share = slot_residual_[j] / count_rational_[k];
      if (!have_level || share < level) {
        have_level = true;
        level = share;
        saturated_[0] = static_cast<std::uint32_t>(j);
        num_sat = 1;
      } else if (share == level) {
        saturated_[num_sat++] = static_cast<std::uint32_t>(j);
      }
    }
    CF_CHECK_MSG(have_level,
                 "flow with no bounded link: max-min rate would be unbounded");

    std::fill(freeze_mask_.begin(), freeze_mask_.end(), 0ULL);
    for (std::size_t i = 0; i < num_sat; ++i) {
      const std::size_t j = saturated_[i];
      for (std::size_t w = 0; w < words_; ++w) {
        freeze_mask_[w] |= slot_mask_[j * words_ + w];
      }
    }
    std::uint64_t newly_frozen = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      freeze_mask_[w] &= ~frozen_mask_[w];
      newly_frozen += static_cast<std::uint64_t>(std::popcount(freeze_mask_[w]));
    }
    CF_CHECK(newly_frozen != 0);

    for (std::size_t j = 0; j < num_slots_; ++j) {
      const std::uint32_t k = slot_active_[j];
      if (k == 0) continue;
      slot_residual_[j] -= level * count_rational_[k];
    }
    for (std::size_t f = 0; f < num_flows_; ++f) {
      if (((frozen_mask_[f >> 6] >> (f & 63)) & 1ULL) == 0) rates_[f] += level;
    }

    num_frozen += newly_frozen;
    for (std::size_t w = 0; w < words_; ++w) frozen_mask_[w] |= freeze_mask_[w];
    if (words_ == 1) {
      const std::uint64_t live = ~frozen_mask_[0];
      for (std::size_t j = 0; j < num_slots_; ++j) {
        slot_active_[j] =
            static_cast<std::uint32_t>(std::popcount(slot_mask_[j] & live));
      }
    } else {
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = freeze_mask_[w];
        while (bits != 0) {
          const auto f = static_cast<std::size_t>(
              (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          for (int slot = 0; slot < 4; ++slot) --slot_active_[flow_slot_[4 * f + slot]];
        }
      }
    }
    ++rounds;
    saturations += num_sat;
  }
}

const std::vector<Rational>& WaterfillWorkspace::max_min_rates(
    const MiddleAssignment& middles) {
  const std::size_t expected = num_middles_ == 0 ? 0 : num_flows_;
  CF_CHECK_MSG(middles.size() == expected,
               "middle assignment covers " << middles.size() << " flows, expected "
                                           << expected);
  map_candidate(middles);

  // Telemetry accumulates in plain locals; the registry is touched once per
  // call, at the bottom. Only the engine that completed the call reports its
  // rounds, so an overflow-aborted fast attempt leaves no trace in the work
  // counters (the overflow point is deterministic, and so is the fallback).
  std::uint64_t obs_rounds = 0;
  std::uint64_t obs_saturations = 0;
  last_call_fast_ = false;
  if (fast_ok_ && !force_fallback_ && run_fast(obs_rounds, obs_saturations)) {
    last_call_fast_ = true;
    OBS_COUNTER_INC("waterfill.fast_calls");
  } else {
    obs_rounds = 0;
    obs_saturations = 0;
    run_fallback(obs_rounds, obs_saturations);
    OBS_COUNTER_INC("waterfill.fallback_calls");
  }
  OBS_COUNTER_INC("waterfill.calls");
  OBS_COUNTER_ADD("waterfill.rounds", obs_rounds);
  OBS_COUNTER_ADD("waterfill.saturated_links", obs_saturations);
  OBS_COUNTER_ADD("waterfill.links_touched", num_slots_);

  if (buffer_capacity_sum() != bound_capacity_sum_) {
    ++steady_state_allocs_;
    bound_capacity_sum_ = buffer_capacity_sum();
  }
  return rates_;
}

}  // namespace closfair
