#include "net/flowsim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "net/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xscale::net {

namespace {

// Relative slack of the completion index's rounding windows (DESIGN.md §9).
// The error bounds it must cover are at most ~8 units in the last place
// (8 * 2^-53); 2^-44 leaves a 64x margin and still admits only candidates
// within ~6e-14 relative of the true minimum.
constexpr double kIndexSlack = 0x1p-44;
// Every flow's drain-eligible instant precedes its finish instant by its
// drain tolerance over its rate, at least 1e-6 s; the horizon window uses
// all but 2^-20 of that gap (DESIGN.md §9).
constexpr double kDrainGapFloor = 1e-6 * (1.0 - 0x1p-20);

// The rate-only part of a drain key, hoisted when many flows share a rate.
struct DrainLaw {
  explicit DrainLaw(double rate)
      : tol(1e-6 * std::max(1.0, rate)), inv(1.0 / rate), gap(tol * inv) {}
  double tol;  // the completion handler's drain tolerance, bytes
  double inv;
  double gap;  // tol / rate: drain-eligible instant to finish instant
};

double drain_key(double remaining, double accrued_at, const DrainLaw& law) {
  // A lower bound on the first instant t at which the completion handler's
  // drain predicate  remaining - rate*(t - accrued_at) <= tol  can hold:
  // accrued_at + (remaining - tol)/rate, lowered by a slack that covers its
  // own rounding and the predicate's (DESIGN.md §9). NaN (0*inf from a
  // subnormal rate) becomes -inf: such a flow is simply always a candidate.
  const double x = (remaining - law.tol) * law.inv;
  const double key = (accrued_at + x) -
                     kIndexSlack * ((accrued_at + std::abs(x)) + law.gap);
  return key == key ? key : -std::numeric_limits<double>::infinity();
}

void check_bytes(double bytes) {
  // A NaN would also poison the completion index's key order.
  if (!std::isfinite(bytes))
    throw std::invalid_argument("FlowSim: flow bytes must be finite");
}

}  // namespace

void FlowSim::ensure_sized() {
  const std::size_t n = fabric_.topology().links().size();
  if (link_load_.size() == n) return;
  link_load_.assign(n, 0);
  flows_on_link_.assign(n, {});
  link_dirty_.assign(n, 0);
  link_visit_epoch_.assign(n, 0);
  link_local_id_.assign(n, 0);
  link_remap_epoch_.assign(n, 0);
  // Floor rarely-grown scratch capacities so one-off spikes (several flows
  // completing at the same instant) don't allocate mid-run.
  done_slots_.reserve(16);
  done_callbacks_.reserve(16);
  dropped_slots_.reserve(16);
  dropped_ids_.reserve(16);
}

int FlowSim::alloc_slot() {
  if (!free_slots_.empty()) {
    const int s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size() - 1);
}

void FlowSim::mark_dirty(int link) {
  const auto lu = static_cast<std::size_t>(link);
  if (link_dirty_[lu]) return;
  link_dirty_[lu] = 1;
  dirty_links_.push_back(link);
}

void FlowSim::clear_dirty() {
  for (int l : dirty_links_) link_dirty_[static_cast<std::size_t>(l)] = 0;
  dirty_links_.clear();
}

std::uint64_t FlowSim::start(int src, int dst, double bytes, Done on_done) {
  // Every check runs before the arena, the RNG or the load proxy moves, so a
  // rejected call leaves the simulator exactly as it was.
  check_bytes(bytes);
  const int n = fabric_.topology().num_endpoints();
  for (const int ep : {src, dst})
    if (ep < 0 || ep >= n)
      throw std::out_of_range("FlowSim::start: endpoint id " +
                              std::to_string(ep) + " out of range [0, " +
                              std::to_string(n) + ")");
  ensure_sized();
  const int slot = alloc_slot();
  // Route straight into the slot's reusable path buffer. Floor its capacity
  // at the route cache's max entry length so a reused slot never grows
  // through the 2→3→…→7 exact-size steps `assign` would otherwise take —
  // after one warm pass over the arena, routing touches no allocator.
  auto& path = slots_[static_cast<std::size_t>(slot)].path;
  if (path.capacity() < 8) path.reserve(8);
  try {
    fabric_.route_into(src, dst, rng_, &link_load_, path);
  } catch (...) {
    // No live route (disconnected groups): hand the slot back.
    path.clear();
    free_slots_.push_back(slot);
    throw;
  }
  return start_slot(slot, bytes, std::move(on_done));
}

std::uint64_t FlowSim::start_on_path(std::vector<int> path, double bytes,
                                     Done on_done) {
  check_bytes(bytes);
  if (path.empty())
    throw std::invalid_argument("FlowSim::start_on_path: empty path");
  const auto n = static_cast<int>(fabric_.topology().links().size());
  for (int l : path)
    if (l < 0 || l >= n)
      throw std::out_of_range("FlowSim::start_on_path: link id " +
                              std::to_string(l) + " out of range [0, " +
                              std::to_string(n) + ")");
  ensure_sized();
  const int slot = alloc_slot();
  slots_[static_cast<std::size_t>(slot)].path = std::move(path);
  return start_slot(slot, bytes, std::move(on_done));
}

void FlowSim::notify_capacity_change(const std::vector<int>& links) {
  ensure_sized();
  const auto n = static_cast<int>(link_dirty_.size());
  for (int l : links) {
    if (l < 0 || l >= n)
      throw std::out_of_range("notify_capacity_change: link id " +
                              std::to_string(l) + " out of range [0, " +
                              std::to_string(n) + ")");
  }
  if (active_count_ == 0) return;  // nothing to re-price
  // A pending uniform rate parked at an earlier instant was computed under
  // the old capacities and covers accrual up to now — apply it before the
  // re-resolve rewrites rates (same contract as start_slot).
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  for (int l : links)
    if (!flows_on_link_[static_cast<std::size_t>(l)].empty()) mark_dirty(l);
  if (dirty_links_.empty()) return;  // no active flow touches a changed link
  resolve_and_schedule();
}

std::uint64_t FlowSim::start_slot(int slot, double bytes, Done on_done) {
  // A pending uniform rate parked at an *earlier* instant covers exactly the
  // members that were active then — apply it before this flow joins the
  // active set (a same-instant pending stays parked: mid-instant joiners are
  // covered by the re-park the coming resolve performs).
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  assert(!f.path.empty());
  const std::uint64_t id = next_id_++;
  const double total = std::max(bytes, 1.0);
  f.id = id;
  f.remaining = total;
  f.rate = 0.0;
  f.accrued_at = eng_.now();
  f.start_time = eng_.now();
  f.total_bytes = total;
  f.stalled = false;
  f.visit_epoch = 0;
  f.on_done = std::move(on_done);
  assert(f.hz_pos < 0);  // rate 0: not indexed until a solve applies a rate
  // A same-instant joiner under a parked uniform rate drains at that rate
  // from now on, like every other member.
  if (pending_uniform_)
    pending_min_rem_ = std::min(pending_min_rem_, remaining_at(f, eng_.now()));
  ++active_count_;
  active_order_.push_back(slot);  // ids are monotonic: append keeps id order
  delta_has_add_ = true;
  obs::tracer().instant("net", "flow_start", eng_.now(),
                        {{"flow", static_cast<double>(id)},
                         {"bytes", total},
                         {"hops", static_cast<double>(f.path.size())}});
  static obs::Counter& started = obs::metrics().counter("net.flows_started");
  started.inc();
  insert_flow_links(slot, f);
  resolve_and_schedule();
  return id;
}

void FlowSim::insert_flow_links(int slot, const Flow& f) {
  if (live_link_in_.size() < flows_on_link_.size())
    live_link_in_.resize(flows_on_link_.size(), 0);
  for (int l : f.path) {
    const auto lu = static_cast<std::size_t>(l);
    ++link_load_[lu];
    if (!live_link_in_[lu]) {
      live_link_in_[lu] = 1;
      live_links_.push_back(l);
    }
    auto& on_link = flows_on_link_[lu];
    // Seed a link's incidence capacity on first growth: skips the 1→2→4→8
    // doubling chain every busy link would otherwise walk through, which is
    // the bulk of residual steady-state allocations under churn (capacities
    // are grow-only, so each link allocates here at most a handful of times
    // over a whole run).
    if (on_link.size() == on_link.capacity() && on_link.capacity() < 16)
      on_link.reserve(16);
    on_link.push_back(slot);
    mark_dirty(l);
  }
}

void FlowSim::remove_flow(int slot) {
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  warm_record_removal(slot);
  const auto id_less = [this](int s, std::uint64_t id) {
    return slots_[static_cast<std::size_t>(s)].id < id;
  };
  for (int l : f.path) {
    const auto lu = static_cast<std::size_t>(l);
    --link_load_[lu];
    auto& on = flows_on_link_[lu];
    // Ordered erase: each link's incidence stays in ascending flow-id order
    // (inserts append, ids are monotonic), which is the transposed-incidence
    // order the CSR core freezes flows in — the warm-start solve iterates
    // these lists directly and must visit flows in exactly that order.
    auto it = std::lower_bound(on.begin(), on.end(), f.id, id_less);
    assert(it != on.end() && *it == slot);
    on.erase(it);
    mark_dirty(l);
  }
  auto ao = std::lower_bound(active_order_.begin(), active_order_.end(), f.id,
                             id_less);
  assert(ao != active_order_.end() && *ao == slot);
  active_order_.erase(ao);
  if (f.stalled) {
    f.stalled = false;
    --stalled_;
  }
  assert(!pending_uniform_);  // removals follow a materialisation
  if (f.hz_pos >= 0) hz_erase(slot);
  f.id = 0;
  f.rate = 0.0;
  f.on_done = nullptr;
  f.path.clear();  // keep capacity for slot reuse
  free_slots_.push_back(slot);
  --active_count_;
}

void FlowSim::hz_place(std::size_t i, double key, int slot) {
  hz_[i] = {key, slot};
  slots_[static_cast<std::size_t>(slot)].hz_pos = static_cast<int>(i);
}

// Both sifts expect hz_[i] to be placed already (back-pointer current), so
// an entry that does not move costs no write.
void FlowSim::hz_sift_up(std::size_t i) {
  const HzEntry e = hz_[i];
  const std::size_t from = i;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e.key < hz_[parent].key)) break;
    hz_place(i, hz_[parent].key, hz_[parent].slot);
    i = parent;
  }
  if (i != from) hz_place(i, e.key, e.slot);
}

void FlowSim::hz_sift_down(std::size_t i) {
  const HzEntry e = hz_[i];
  const std::size_t from = i;
  const std::size_t n = hz_.size();
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && hz_[c + 1].key < hz_[c].key) ++c;
    if (!(hz_[c].key < e.key)) break;
    hz_place(i, hz_[c].key, hz_[c].slot);
    i = c;
  }
  if (i != from) hz_place(i, e.key, e.slot);
}

void FlowSim::hz_rekey(int slot) {
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  if (!(f.rate > 0.0)) {
    if (f.hz_pos >= 0) hz_erase(slot);
    return;
  }
  const double key = drain_key(f.remaining, f.accrued_at, DrainLaw(f.rate));
  if (f.hz_pos < 0) {
    hz_.push_back({key, slot});
    f.hz_pos = static_cast<int>(hz_.size() - 1);
    hz_sift_up(hz_.size() - 1);
    return;
  }
  const auto i = static_cast<std::size_t>(f.hz_pos);
  const double old = hz_[i].key;
  hz_[i].key = key;
  if (key < old) hz_sift_up(i);
  else hz_sift_down(i);
}

void FlowSim::hz_erase(int slot) {
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  const auto i = static_cast<std::size_t>(f.hz_pos);
  f.hz_pos = -1;
  const HzEntry last = hz_.back();
  hz_.pop_back();
  if (i == hz_.size()) return;
  const double old = hz_[i].key;
  hz_place(i, last.key, last.slot);
  if (last.key < old) hz_sift_up(i);
  else hz_sift_down(i);
}

double FlowSim::next_completion() {
  // Candidate walk over the heap (DESIGN.md §9): a subtree whose root key
  // exceeds `bound` holds no flow that can beat the best exact horizon seen
  // so far, because every key sits at least the drain gap (>= 1e-6 s) below
  // its flow's finish instant and `bound` gives back all of that gap but
  // 2^-20 of it, plus a relative slack past every rounding error involved.
  // Each candidate is evaluated with the exact expression a scan over every
  // flow would use, so the minimum is the scan's value.
  const double now = eng_.now();
  double best = std::numeric_limits<double>::infinity();
  double bound = best;
  hz_stack_.clear();
  if (!hz_.empty()) hz_stack_.push_back(0);
  while (!hz_stack_.empty()) {
    const std::size_t i = hz_stack_.back();
    hz_stack_.pop_back();
    if (hz_[i].key > bound) continue;
    const Flow& f = slots_[static_cast<std::size_t>(hz_[i].slot)];
    ++stats_.horizon_visits;
    const double h = remaining_at(f, now) / f.rate;
    if (h < best) {
      best = h;
      bound = (now + h) + (kIndexSlack * (now + std::abs(h)) - kDrainGapFloor);
    }
    for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < hz_.size(); ++c)
      if (hz_[c].key <= bound) hz_stack_.push_back(c);
  }
  return best;
}

void FlowSim::collect_drained(double t) {
  // Every flow whose drain predicate holds at `t` has a key at or below
  // t + slack*t (DESIGN.md §9); re-test the exact predicate on exactly those.
  const double cutoff = t + kIndexSlack * t;
  done_slots_.clear();
  hz_stack_.clear();
  if (!hz_.empty()) hz_stack_.push_back(0);
  while (!hz_stack_.empty()) {
    const std::size_t i = hz_stack_.back();
    hz_stack_.pop_back();
    if (hz_[i].key > cutoff) continue;
    const int s = hz_[i].slot;
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    ++stats_.horizon_visits;
    if (remaining_at(f, t) <= 1e-6 * std::max(1.0, f.rate))
      done_slots_.push_back(s);
    for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < hz_.size(); ++c)
      hz_stack_.push_back(c);
  }
  std::sort(done_slots_.begin(), done_slots_.end(), [this](int a, int b) {
    return slots_[static_cast<std::size_t>(a)].id <
           slots_[static_cast<std::size_t>(b)].id;
  });
}

void FlowSim::accrue(Flow& f) {
  const double now = eng_.now();
  if (f.rate > 0.0 && now > f.accrued_at)
    f.remaining -= f.rate * (now - f.accrued_at);
  f.accrued_at = now;
}

void FlowSim::set_rate(int slot, double rate) {
  Flow& f = slots_[static_cast<std::size_t>(slot)];
  const std::uint64_t id = f.id;
  // No 1 B/s floor: a zero rate means every byte is stuck behind a failed
  // link, and pretending otherwise hides the failure (satellite fix — the
  // old floor made such flows "complete" after simulated centuries).
  if (rate <= 0.0) rate = 0.0;
  // Unchanged rate: skip the write-back entirely. The drain law stays the
  // same linear function, so deferring accrual is exact — and because a
  // full re-solve recomputes untouched components to bitwise-equal rates,
  // incremental and full modes take this early-out at identical times,
  // keeping their remaining-byte arithmetic (and completion times)
  // bit-for-bit equal.
  if (rate == f.rate && (rate > 0.0 || f.stalled)) return;
  accrue(f);
  if (rate == 0.0) {
    if (!f.stalled) {
      f.stalled = true;
      ++stalled_;
      obs::tracer().instant("net", "flow_stall", eng_.now(),
                            {{"flow", static_cast<double>(id)},
                             {"remaining", f.remaining}});
      static obs::Counter& stalls = obs::metrics().counter("net.flow_stalls");
      stalls.inc();
    }
  } else if (f.stalled) {
    f.stalled = false;
    --stalled_;
    obs::tracer().instant("net", "flow_unstall", eng_.now(),
                          {{"flow", static_cast<double>(id)}, {"rate", rate}});
  }
  f.rate = rate;
  assert(!pending_uniform_);  // rate writes follow a materialisation
  hz_rekey(slot);
}

void FlowSim::affected_component(double max_flows) {
  comp_truncated_ = false;
  comp_slots_.clear();
  ++visit_epoch_;
  link_q_.clear();
  for (int l : dirty_links_) {
    link_visit_epoch_[static_cast<std::size_t>(l)] = visit_epoch_;
    link_q_.push_back(l);
  }
  while (!link_q_.empty()) {
    const int l = link_q_.back();
    link_q_.pop_back();
    for (int s : flows_on_link_[static_cast<std::size_t>(l)]) {
      Flow& f = slots_[static_cast<std::size_t>(s)];
      if (f.visit_epoch == visit_epoch_) continue;
      f.visit_epoch = visit_epoch_;
      comp_slots_.push_back(s);
      // Warm-start dispatch only needs to know the component is oversized,
      // not its full membership: stop the BFS (and skip the sort — contents
      // become a size witness only) as soon as that is proven, which turns
      // an incast resolve's O(component) discovery into O(threshold).
      if (static_cast<double>(comp_slots_.size()) > max_flows) {
        comp_truncated_ = true;
        link_q_.clear();
        return;
      }
      for (int pl : f.path) {
        const auto plu = static_cast<std::size_t>(pl);
        if (link_visit_epoch_[plu] != visit_epoch_) {
          link_visit_epoch_[plu] = visit_epoch_;
          link_q_.push_back(pl);
        }
      }
    }
  }
  std::sort(comp_slots_.begin(), comp_slots_.end(), [this](int a, int b) {
    return slots_[static_cast<std::size_t>(a)].id <
           slots_[static_cast<std::size_t>(b)].id;
  });
}

void FlowSim::solve_component(const std::vector<int>& comp, SolveStats* ss) {
  // Pack a compact sub-problem into the persistent CSR arena: only the
  // links of `comp` (a component, or the whole active set), densely
  // renumbered in first-encounter order (ascending flow id), which makes a
  // component solve's arithmetic identical to the global solve's — within a
  // component the global solver performs exactly the same operations in the
  // same order, and flows outside it never touch these links. The link remap
  // is epoch-stamped, so packing costs O(nnz of `comp`) with no clearing
  // pass.
  ++remap_epoch_;
  const std::size_t caps_cap = comp_caps_.capacity();
  const std::size_t ids_cap = comp_csr_.link_ids.capacity();
  const std::size_t off_cap = comp_csr_.offsets.capacity();
  const std::size_t rates_cap = comp_rates_.capacity();
  comp_caps_.clear();
  comp_csr_.clear();
  const auto& caps = fabric_.effective_capacities();
  for (int s : comp) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    for (int l : f.path) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_remap_epoch_[lu] != remap_epoch_) {
        link_remap_epoch_[lu] = remap_epoch_;
        link_local_id_[lu] = static_cast<int>(comp_caps_.size());
        comp_caps_.push_back(caps[lu]);
      }
      comp_csr_.push_link(link_local_id_[lu]);
    }
    comp_csr_.end_path();
  }
  comp_rates_.resize(comp.size());
  max_min_rates_csr(comp_caps_.data(), comp_caps_.size(), comp_csr_, nullptr,
                    comp_rates_.data(), ss, solve_scratch_);
  // A steady-state re-solve touches no allocator at all; count it. (The
  // count is thread-count independent — everything here runs on the
  // simulator's own thread against its own buffers.)
  const bool grew = solve_scratch_.last_solve_allocated ||
                    comp_caps_.capacity() != caps_cap ||
                    comp_csr_.link_ids.capacity() != ids_cap ||
                    comp_csr_.offsets.capacity() != off_cap ||
                    comp_rates_.capacity() != rates_cap;
  static obs::Counter& reuse =
      obs::metrics().counter("net.solver.scratch_reuse");
  if (!grew) reuse.inc();
  // Counted write-back: `applied` are results that change a rate, `skipped`
  // are provable no-ops (set_rate's own early-out condition, evaluated here
  // so both counters exist on every solve path). Reference mode
  // (`incremental_writeback = false`) still routes the no-ops through
  // set_rate — that is the whole-set write the differential test compares
  // against.
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < comp.size(); ++i) {
    const Flow& f = slots_[static_cast<std::size_t>(comp[i])];
    const double r = comp_rates_[i];
    const bool noop = r == f.rate && (r > 0.0 || f.stalled);
    if (!noop) {
      set_rate(comp[i], r);
      ++applied;
    } else if (!cfg_.incremental_writeback) {
      set_rate(comp[i], r);
    }
  }
  note_writeback(applied, static_cast<std::uint64_t>(comp.size()) - applied);
}

void FlowSim::warm_record_removal(int slot) {
  // Extends the delta record consumed by the next warm solve's frozen-prefix
  // replay (DESIGN.md §9). Only meaningful while the previous resolve was a
  // warm solve whose metadata is still current.
  if (!warm_meta_ok_) return;
  const auto su = static_cast<std::size_t>(slot);
  if (su < warm_frozen_.size() && warm_frozen_[su] == warm_pass_) {
    const int lvl = warm_level_[su];
    if (delta_min_level_ == 0 || lvl < delta_min_level_) delta_min_level_ = lvl;
  } else {
    // The flow never went through the last warm solve, so its freeze level
    // is unknown and the prefix invariant cannot be established.
    delta_meta_broken_ = true;
  }
}

void FlowSim::note_writeback(std::uint64_t applied, std::uint64_t skipped) {
  stats_.writeback_applied += applied;
  stats_.writeback_skipped += skipped;
  static obs::Counter& a =
      obs::metrics().counter("net.solver.writeback.applied");
  static obs::Counter& s =
      obs::metrics().counter("net.solver.writeback.skipped");
  a.inc(applied);
  s.inc(skipped);
}

double FlowSim::remaining_eff_at(const Flow& f, double t) const {
  if (!pending_uniform_) return remaining_at(f, t);
  if (pending_mixed_ || pending_rate_ != f.rate) {
    // Materialisation will accrue the old rate up to `pending_time_` and
    // drain at the pending rate from there; reproduce that two-segment law.
    double rem = f.remaining;
    if (f.rate > 0.0 && pending_time_ > f.accrued_at)
      rem -= f.rate * (pending_time_ - f.accrued_at);
    return rem - pending_rate_ * (t - pending_time_);
  }
  // Rate unchanged by the pending value: the linear drain law is unbroken
  // (the eager write-back would have early-outed without accruing).
  return remaining_at(f, t);
}

void FlowSim::materialize_pending() {
  // Apply the coalesced uniform rate exactly as the eager per-resolve
  // write-back would have: within one instant only the *first* rate change
  // performs accrual arithmetic (later segments are zero-width), and a flow
  // whose rate never differed from any value parked this instant was an
  // early-out throughout — so touching only (mixed || changed) flows is
  // bit-identical to the whole-set write it replaces.
  if (!pending_uniform_) return;
  pending_uniform_ = false;
  const double tp = pending_time_;
  const double v = pending_rate_;
  // Every flow rewritten here ends at rate v: write the new keys in place
  // and rebuild the index once, O(active) like the loop itself, instead of
  // one sift per flow (an incast re-anchors every member per completion).
  const DrainLaw law(v);
  std::uint64_t applied = 0;
  bool rekeyed = false;
  for (int s : active_order_) {
    Flow& f = slots_[static_cast<std::size_t>(s)];
    if (pending_mixed_ || v != f.rate) {
      if (f.rate > 0.0 && tp > f.accrued_at)
        f.remaining -= f.rate * (tp - f.accrued_at);
      f.accrued_at = tp;
      if (v != f.rate) {
        f.rate = v;
        ++applied;
      }
      const double key = drain_key(f.remaining, tp, law);
      if (f.hz_pos < 0) {
        f.hz_pos = static_cast<int>(hz_.size());
        hz_.push_back({key, s});
      } else {
        hz_[static_cast<std::size_t>(f.hz_pos)].key = key;
      }
      rekeyed = true;
    }
  }
  if (rekeyed)
    for (std::size_t i = hz_.size() / 2; i-- > 0;) hz_sift_down(i);
  note_writeback(applied,
                 static_cast<std::uint64_t>(active_order_.size()) - applied);
}

void FlowSim::park_uniform(double rate) {
  if (pending_uniform_ && eng_.now() != pending_time_) materialize_pending();
  if (!pending_uniform_) {
    pending_uniform_ = true;
    pending_time_ = eng_.now();
    pending_first_ = rate;
    pending_mixed_ = false;
    // From here every member drains at the parked rate, so completion order
    // is remaining-bytes order: one pass finds the smallest, and only
    // same-instant joiners can lower it before the next materialisation.
    // The pass costs no more than the materialisation that retires it.
    pending_min_rem_ = std::numeric_limits<double>::infinity();
    for (int s : active_order_)
      pending_min_rem_ = std::min(
          pending_min_rem_,
          remaining_at(slots_[static_cast<std::size_t>(s)], pending_time_));
    stats_.horizon_visits += active_order_.size();
  } else {
    pending_mixed_ = pending_mixed_ || rate != pending_first_;
  }
  pending_rate_ = rate;
}

bool FlowSim::park_single(double share, SolveStats* ss) {
  // Parking skips set_rate, so it is exact only where set_rate would do no
  // stall bookkeeping at this instant: no stalled survivor to wake and a
  // positive rate. Reference mode (`incremental_writeback = false`) writes
  // every rate by definition. In all three cases the general warm loop runs
  // instead; it freezes every flow at `share` in its one iteration.
  if (!cfg_.incremental_writeback || stalled_ != 0 || !(share > 0.0))
    return false;
  // Same-instant re-parks coalesce (zero-width segments do no accrual
  // arithmetic in the eager path either).
  park_uniform(share);
  ss->iterations = 1;
  ss->bottleneck_links = 1;
  ++stats_.warm_single_hits;
  static obs::ShardedStats& frontier_stat =
      obs::metrics().stats("net.solver.frontier_size");
  frontier_stat.add(0.0);
  warm_meta_ok_ = false;  // no fresh freeze metadata this pass
  return true;
}

int FlowSim::try_single_incremental(SolveStats* ss) {
  // Single-bottleneck verdict from the maintained top-2 share summary,
  // touching only this resolve's dirty links. Soundness rests on two facts:
  // clean links' shares are the very doubles the full scan would compute
  // (same capacity under an unmoved epoch, same crosser count), and a clean
  // link can never be the unique all-flows bottleneck (this resolve's
  // churned flow crosses the bottleneck, dirtying it). `pending` rates are
  // irrelevant here — the verdict reads only capacities and incidence
  // counts, both maintained eagerly.
  if (!sb_valid_ || stalled_ != 0 || sb_.l1 < 0) return -1;
  if (fabric_.capacity_epoch() != sb_cap_epoch_) {
    sb_valid_ = false;
    return -1;
  }
  const bool l1_dirty = link_dirty_[static_cast<std::size_t>(sb_.l1)] != 0;
  const bool l2_dirty =
      sb_.l2 >= 0 && link_dirty_[static_cast<std::size_t>(sb_.l2)] != 0;
  // Both ranked links churned: the clean minimum is unknowable.
  if (l1_dirty && l2_dirty) {
    sb_valid_ = false;
    return -1;
  }
  // The clean ranked links, exactly. Every clean link the summary does not
  // rank has a share >= sb_.s2: it ranked no better when the summary was
  // exact and has not changed since. So `clean.s1` is the exact minimum
  // over clean links.
  Top2 clean;
  if (!l1_dirty) clean.add(sb_.s1, sb_.l1);
  if (sb_.l2 >= 0 && !l2_dirty) clean.add(sb_.s2, sb_.l2);

  // Fresh top-2 among dirty links (emptied links are no longer constraints;
  // their lazy compaction stays with the full scan).
  const auto& caps = fabric_.effective_capacities();
  Top2 dirty;
  for (int l : dirty_links_) {
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n = flows_on_link_[lu].size();
    if (n == 0) continue;
    const double c = caps[lu];
    if (!std::isfinite(c) || c < 0.0) return -1;  // full scan diagnoses
    dirty.add(std::max(0.0, c) / static_cast<double>(n), l);
  }

  const double m = std::min(clean.s1, dirty.s1);
  if (!std::isfinite(m)) return -1;
  // Exact ties only, matching the solver cores. A firing clean link cannot
  // carry every active flow (the churned flow would have dirtied it), so
  // the full scan would reject too: either several links fire or the
  // firing one misses flows. Two firing dirty links reject as well.
  const int verdict =
      clean.s1 <= m || dirty.s2 <= m ||
              flows_on_link_[static_cast<std::size_t>(dirty.l1)].size() !=
                  active_order_.size()
          ? 0
          : 1;

  // Refresh the summary to the post-churn top-2. The merge is exact unless
  // an unranked clean link (share >= the old sb_.s2) could beat its
  // runner-up.
  Top2 merged = dirty;
  merged.add(clean.s1, clean.l1);
  merged.add(clean.s2, clean.l2);
  if (merged.s2 <= sb_.s2) {
    sb_ = merged;
    sb_updated_ = true;
  } else {
    sb_valid_ = false;
  }

  ++stats_.minshare_incr;
  static obs::Counter& incr =
      obs::metrics().counter("net.solver.minshare.incr_scan");
  incr.inc();
  if (verdict != 1) return 0;
  // A declined park (zero share) is still conclusive: the full scan would
  // only reach the same verdict, so the general warm loop runs directly.
  return park_single(m, ss) ? 1 : 0;
}

bool FlowSim::warm_single_bottleneck(SolveStats* ss) {
  // Incast collapses the whole solve into its first iteration: one link is
  // the unique minimum-share bottleneck and every active flow crosses it, so
  // the cold solve freezes everybody at min_share in iteration 1 and stops.
  // Both conditions are checked here against the *initial* state (residual =
  // capacity, active weight = crosser count — both maintained persistently,
  // `flows_on_link_` sizes ARE the encounter-pass weights), which makes the
  // verdict independent of any visit order:
  //   - min over a set of ratios is exact and order-free, and each ratio
  //     uses the same expression and the same operands as the cold scan
  //     (capacity is exact, the accumulated 1.0-sum equals the list size);
  //   - "exactly one link within cutoff" means the cold firing scan, in
  //     *whatever* encounter order, skips every link before the firing one
  //     against unmutated state, fires it, freezes all flows (it crosses
  //     everyone), and then skips the rest at active weight zero.
  // Any failed condition returns false and the general path runs instead —
  // the check costs one O(live links) pass, no per-flow work.
  const auto& caps = fabric_.effective_capacities();
  Top2 top;
  std::size_t w = 0;
  bool bad_capacity = false;
  for (std::size_t i = 0; i < live_links_.size(); ++i) {
    const int l = live_links_[i];
    const auto lu = static_cast<std::size_t>(l);
    const std::size_t n = flows_on_link_[lu].size();
    if (n == 0) {  // lazy compaction of links whose last crosser left
      live_link_in_[lu] = 0;
      continue;
    }
    live_links_[w++] = l;
    const double c = caps[lu];
    if (!std::isfinite(c) || c < 0.0) {
      // Defer the throw: `live_links_` is persistent incidence state and we
      // are mid-compaction — bailing here would leave duplicate entries past
      // `w` and an unshrunk size, poisoning every later resolve. Finish the
      // pass, restore the invariant, then report.
      bad_capacity = true;
      continue;
    }
    top.add(std::max(0.0, c) / static_cast<double>(n), l);
  }
  live_links_.resize(w);
  if (bad_capacity)
    throw std::invalid_argument(
        "max_min_rates: capacities must be finite and >= 0");
  // The pass just computed the exact top-2 min shares over live links: store
  // them so the next resolve's incremental verdict can skip this scan.
  sb_ = top;
  sb_cap_epoch_ = fabric_.capacity_epoch();
  sb_valid_ = top.l1 >= 0;
  sb_updated_ = true;
  ++stats_.minshare_full;
  static obs::Counter& full_scan =
      obs::metrics().counter("net.solver.minshare.full_scan");
  full_scan.inc();
  if (!std::isfinite(top.s1)) return false;  // general path will diagnose
  // "Exactly one link fires" (exact ties only, matching the cores) is a
  // top-2 question: the minimum always fires, so uniqueness is
  // `s2 > s1`.
  if (top.s2 <= top.s1 ||
      flows_on_link_[static_cast<std::size_t>(top.l1)].size() !=
          active_order_.size())
    return false;
  return park_single(top.s1, ss);
}

void FlowSim::warm_solve(SolveStats* ss) {
  // Whole-active-set re-solve without leaving the simulator's persistent
  // state: no BFS completion, no id sort, no CSR re-pack, no link renumber.
  // `active_order_` is already the cold solve's flow visit order and each
  // `flows_on_link_` list is already in the cold solve's
  // transposed-incidence order (ascending flow id), so running the scan
  // water-filling loop of `max_min_rates_reference` directly over them
  // performs the same arithmetic in the same order — rates are
  // bit-identical to the cold path, whose CSR core matches the
  // reference bit for bit (the differential suite pins both). Every flow is
  // unit-weight here; the frozen-prefix replay relies on that.
  const std::size_t members = active_order_.size();
  const std::uint64_t cap_epoch = fabric_.capacity_epoch();
  static obs::ShardedStats& frontier_stat =
      obs::metrics().stats("net.solver.frontier_size");

  // A conclusive incremental "no" verdict from `try_single_incremental`
  // makes the full O(live links) scan pointless this resolve.
  if (!sb_skip_full_ && warm_single_bottleneck(ss)) return;

  // From here on the solve compares against and writes `f.rate` (through
  // set_rate): the parked uniform rate must be settled first or the
  // early-out comparisons and accrual would read stale values.
  materialize_pending();

  if (warm_frozen_.size() < slots_.size()) {
    warm_frozen_.resize(slots_.size(), 0);
    warm_level_.resize(slots_.size(), 0);
    warm_rate_.resize(slots_.size(), 0.0);
  }
  const auto& caps = fabric_.effective_capacities();
  if (warm_resid_.size() < caps.size()) {
    warm_resid_.resize(caps.size(), 0.0);
    warm_aw_.resize(caps.size(), 0.0);
  }

  // Encounter pass: residual capacity, unfrozen weight and the active-link
  // list in first-seen order over flows in ascending id — exactly how both
  // solver cores number links for a packed problem. warm_resid_/warm_aw_
  // are POSITION-indexed (dense SoA parallel to
  // warm_links_, contiguous for the scan kernel); link_local_id_ under the
  // current remap epoch maps link id -> position, exactly as the component
  // packer uses it.
  ++remap_epoch_;
  warm_links_.clear();
  for (int s : active_order_) {
    for (int l : slots_[static_cast<std::size_t>(s)].path) {
      const auto lu = static_cast<std::size_t>(l);
      if (link_remap_epoch_[lu] != remap_epoch_) {
        link_remap_epoch_[lu] = remap_epoch_;
        const double c = caps[lu];
        if (!std::isfinite(c) || c < 0.0)
          throw std::invalid_argument(
              "max_min_rates: capacities must be finite and >= 0");
        const std::size_t p = warm_links_.size();
        link_local_id_[lu] = static_cast<int>(p);
        warm_resid_[p] = c;
        warm_aw_[p] = 1.0;
        warm_links_.push_back(l);
      } else {
        warm_aw_[static_cast<std::size_t>(link_local_id_[lu])] += 1.0;
      }
    }
  }

  // Tandem compaction of the dense block (replaces the id-indexed erase):
  // links whose unfrozen-crosser count hit zero leave the list, survivors
  // keep first-seen order and get re-pointed positions. Unit weights make
  // the threshold exact — warm_aw_ holds whole numbers, so <= 1e-12 means
  // exactly zero, and an erased link can never be crossed by a flow that
  // freezes later (no unfrozen flow crosses it), so its stamp is cleared
  // rather than re-pointed.
  auto compact_live = [&] {
    std::size_t w = 0;
    for (std::size_t i = 0; i < warm_links_.size(); ++i) {
      const int l = warm_links_[i];
      const auto lu = static_cast<std::size_t>(l);
      if (warm_aw_[i] <= 1e-12) {
        link_remap_epoch_[lu] = 0;
        continue;
      }
      warm_links_[w] = l;
      warm_resid_[w] = warm_resid_[i];
      warm_aw_[w] = warm_aw_[i];
      link_local_id_[lu] = static_cast<int>(w);
      ++w;
    }
    warm_links_.resize(w);
  };

  ++warm_pass_;
  std::size_t remaining = members;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  warm_seq2_.clear();
  warm_seq2_lvl_.clear();
  // Change-list: flows whose frozen rate will differ from the currently
  // applied one, recorded at freeze time (f.rate is untouched until the
  // final write-back, so the set_rate early-out condition evaluated here is
  // exactly the one the write-back would hit). Replayed flows are never
  // pushed: a replay freezes each flow at its own current `f.rate`, and a
  // live rate-0 flow is always stalled after its first applied solve, so
  // the early-out condition provably holds for them.
  changed_slots_.clear();

  // Frozen-prefix replay, removal-only deltas: with k* the minimum freeze
  // level among the flows removed since the previous warm solve, every
  // freeze below level k* is provably bit-unchanged (DESIGN.md §9 gives the
  // argument), so re-apply the stored freeze sequence instead of
  // re-deriving it. `f.rate` still holds the previous solve's rate for
  // every replayed flow — nothing between two warm solves rewrites rates.
  std::size_t replayed = 0;
  if (warm_meta_ok_ && !delta_has_add_ && !delta_meta_broken_ &&
      cap_epoch == warm_cap_epoch_ && delta_min_level_ > 1) {
    const int k_star = delta_min_level_;
    // Levels are nondecreasing along the freeze sequence, and entries at
    // levels >= k* (which include every removed flow, hence possibly freed
    // slots) are never touched.
    for (std::size_t i = 0; i < warm_seq_.size() && warm_seq_lvl_[i] < k_star;
         ++i) {
      const int s = warm_seq_[i];
      const auto su = static_cast<std::size_t>(s);
      const Flow& f = slots_[su];
      warm_frozen_[su] = warm_pass_;
      warm_level_[su] = warm_seq_lvl_[i];
      warm_rate_[su] = f.rate;
      warm_seq2_.push_back(s);
      warm_seq2_lvl_.push_back(warm_seq_lvl_[i]);
      --remaining;
      ++replayed;
      for (int l : f.path) {
        // Replayed flows' links are all in this epoch's encounter set, and
        // no compaction has run yet, so the position is always live.
        const auto p = static_cast<std::size_t>(
            link_local_id_[static_cast<std::size_t>(l)]);
        warm_resid_[p] -= f.rate;
        warm_aw_[p] -= 1.0;
      }
    }
    // One stable compaction reproduces the incremental per-iteration erases
    // the cold solve performs across the replayed levels (unit weights make
    // the threshold exact: active weights are whole numbers, so <= 1e-12
    // means exactly zero at every intermediate step too).
    compact_live();
    // Iteration parity with the cold solve: it would have run k*-1 levels
    // before reaching new work — or stopped at the last replayed level if
    // the replay already froze every current member.
    iterations = (remaining == 0 && !warm_seq2_lvl_.empty())
                     ? warm_seq2_lvl_.back()
                     : k_star - 1;
    if (replayed > 0) ++stats_.warm_prefix_hits;
  }

  // Dispatched min-share kernel: a branch-free sweep over the dense
  // position-indexed block (simd.hpp pins scalar == AVX2 bitwise).
  const MinShareScanFn kernel = min_share_scan();

  while (remaining > 0) {
    ++iterations;
    const std::size_t n_active = warm_links_.size();
    const double min_share =
        kernel(warm_resid_.data(), warm_aw_.data(), 0, n_active);
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");
    const double cutoff = min_share;  // exact ties only, matching the cores
    const int level = static_cast<int>(iterations);
    for (std::size_t pi = 0; pi < n_active; ++pi) {
      const double aw = warm_aw_[pi];
      if (aw <= 0.0) continue;
      if (std::max(0.0, warm_resid_[pi]) / aw > cutoff) continue;
      const auto lu = static_cast<std::size_t>(warm_links_[pi]);
      ++bottlenecks;
      for (int s : flows_on_link_[lu]) {
        const auto su = static_cast<std::size_t>(s);
        if (warm_frozen_[su] == warm_pass_) continue;
        warm_frozen_[su] = warm_pass_;
        warm_level_[su] = level;
        warm_rate_[su] = min_share;
        const Flow& ff = slots_[su];
        if (!(min_share == ff.rate && (min_share > 0.0 || ff.stalled)))
          changed_slots_.push_back(s);
        warm_seq2_.push_back(s);
        warm_seq2_lvl_.push_back(level);
        --remaining;
        for (int pl : ff.path) {
          // Every link of a flow unfrozen until now still has unfrozen
          // crossers, so it survived every compaction and its position
          // under the current epoch is live (unit-weight argument above).
          const auto p = static_cast<std::size_t>(
              link_local_id_[static_cast<std::size_t>(pl)]);
          warm_resid_[p] -= min_share;
          warm_aw_[p] -= 1.0;
        }
      }
    }
    compact_live();
  }

  // Freeze metadata for the next resolve's prefix replay, then apply rates
  // (set_rate early-outs keep accrual schedules bitwise aligned with the
  // cold path).
  warm_seq_.swap(warm_seq2_);
  warm_seq_lvl_.swap(warm_seq2_lvl_);
  warm_meta_ok_ = true;
  warm_cap_epoch_ = cap_epoch;
  delta_has_add_ = false;
  delta_meta_broken_ = false;
  delta_min_level_ = 0;

  const std::size_t frontier = members - replayed;
  stats_.frontier_flows += frontier;
  frontier_stat.add(static_cast<double>(frontier));
  if (ss) {
    ss->iterations = iterations;
    ss->bottleneck_links = bottlenecks;
  }

  if (cfg_.incremental_writeback) {
    // Only flows whose rate actually moves reach set_rate; the order is
    // freeze order rather than ascending id, which is immaterial — each
    // write touches one flow's independent state at one instant.
    for (int s : changed_slots_)
      set_rate(s, warm_rate_[static_cast<std::size_t>(s)]);
    note_writeback(changed_slots_.size(), members - changed_slots_.size());
  } else {
    std::uint64_t applied = 0;
    for (int s : active_order_) {
      const Flow& f = slots_[static_cast<std::size_t>(s)];
      const double r = warm_rate_[static_cast<std::size_t>(s)];
      if (!(r == f.rate && (r > 0.0 || f.stalled))) ++applied;
      set_rate(s, r);
    }
    note_writeback(applied, members - applied);
  }
}

void FlowSim::resolve_and_schedule() {
  if (has_pending_event_) {
    eng_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (active_count_ == 0) {
    clear_dirty();
    sb_valid_ = false;  // incidence changed with no verification to refresh it
    return;
  }
  ++stats_.resolves;

  const bool full = !cfg_.incremental;
  bool warm = false;
  bool lazy = false;  // single-bottleneck verdict resolved without a solve
  sb_skip_full_ = false;
  sb_updated_ = false;
  SolveStats ss;
  if (full) {
    ++stats_.full_solves;
  } else {
    // Incremental single-bottleneck verdict from the maintained top-2 share
    // summary: a "yes" skips the BFS, the O(live links) scan AND the
    // write-back — the uniform rate is parked for lazy, once-per-instant
    // materialisation.
    const int verdict =
        cfg_.incremental_writeback ? try_single_incremental(&ss) : -1;
    lazy = verdict == 1;
    sb_skip_full_ = verdict == 0;
    if (lazy) {
      warm = true;
    } else {
      // The parked uniform rate (if any) is NOT applied here: the BFS below
      // reads only incidence, and a bailed verdict usually lands back in the
      // closed form, which re-parks. Each eager path that really compares or
      // writes `f.rate` materialises at its own entry instead — this is what
      // keeps same-instant start bursts (scenario injection, the bench ramp)
      // from paying one whole-set write per bailed verdict.
      // The BFS may stop early: it only has to prove the component
      // oversized — the warm solve re-derives membership from
      // `active_order_` itself, so `comp_slots_` is just a size lower bound.
      const double limit =
          cfg_.fallback_fraction * static_cast<double>(active_count_);
      affected_component(limit);
      stats_.largest_component = std::max<std::uint64_t>(
          stats_.largest_component, comp_slots_.size());
      warm = comp_truncated_ ||
             static_cast<double>(comp_slots_.size()) > limit;
    }
    if (warm) {
      ++stats_.warm_solves;
      static obs::Counter& warm_hits =
          obs::metrics().counter("net.solver.warmstart.hit");
      warm_hits.inc();
    }
  }

  // `incremental = false` solves the whole active set in one global CSR
  // solve, flows in ascending id: bitwise the union of the per-component
  // solves (DESIGN.md §9), so it is the reference the incremental paths are
  // held to.
  const std::vector<int>& solved = warm || full ? active_order_ : comp_slots_;
  if (warm) {
    if (!lazy) warm_solve(&ss);
  } else if (!solved.empty()) {
    if (!full) ++stats_.component_solves;
    materialize_pending();  // solve_component compares and writes `f.rate`
    solve_component(solved, &ss);
    warm_meta_ok_ = false;  // some rates changed outside the warm bookkeeping
  }
  stats_.flows_solved += solved.size();
  stats_.solver_iterations += static_cast<std::uint64_t>(ss.iterations);
  stats_.bottleneck_links += static_cast<std::uint64_t>(ss.bottleneck_links);

  // Per-solve observability: component size, which solve path ran, and
  // solver effort — the numbers that explain where resolve time goes. A full
  // solve only runs with incremental off, so the event name says why.
  obs::tracer().instant(
      "net",
      warm ? "resolve_warm" : full ? "resolve_full" : "resolve_component",
      eng_.now(),
      {{"flows", static_cast<double>(solved.size())},
       {"active", static_cast<double>(active_count_)},
       {"iterations", static_cast<double>(ss.iterations)}});
  {
    static obs::Counter& resolves = obs::metrics().counter("net.resolves");
    static obs::Counter& fulls = obs::metrics().counter("net.full_solves");
    static obs::Counter& iters =
        obs::metrics().counter("net.solver.iterations");
    static obs::Counter& bnecks =
        obs::metrics().counter("net.solver.bottleneck_links");
    static obs::ShardedStats& comp_size =
        obs::metrics().stats("net.solve_component_flows");
    static obs::Gauge& active = obs::metrics().gauge("net.active_flows");
    resolves.inc();
    if (full) fulls.inc();
    iters.inc(static_cast<std::uint64_t>(ss.iterations));
    bnecks.inc(static_cast<std::uint64_t>(ss.bottleneck_links));
    comp_size.add(static_cast<double>(solved.size()));
    active.set(static_cast<double>(active_count_));
  }

  // Zero-rate flows: under Drop, remove them now. Their rate is 0, so they
  // consume no capacity — removal provably leaves every other rate unchanged
  // (in the water-filling they freeze at share 0 in the first iteration and
  // subtract nothing), so no re-solve is needed.
  dropped_slots_.clear();
  dropped_ids_.clear();
  // Under a parked uniform rate the sweep is skipped as provably empty: the
  // pending rate is positive and covers every active flow, so the eager
  // write would have left no zero-rate flows (reading `f.rate` here would
  // see stale values). This covers both park sites — the incremental
  // verdict and the closed form inside the warm solve.
  if (cfg_.stall_policy == StallPolicy::Drop && !pending_uniform_) {
    for (int s : solved)
      if (slots_[static_cast<std::size_t>(s)].rate <= 0.0)
        dropped_slots_.push_back(s);
    for (int s : dropped_slots_) {
      const std::uint64_t id = slots_[static_cast<std::size_t>(s)].id;
      obs::tracer().instant("net", "flow_drop", eng_.now(),
                            {{"flow", static_cast<double>(id)}});
      dropped_ids_.push_back(id);
      remove_flow(s);
      ++dropped_;
    }
    static obs::Counter& drops = obs::metrics().counter("net.flows_dropped");
    drops.inc(dropped_slots_.size());
  }

  // Under a parked uniform rate every member's remaining as of now (the
  // pending instant: each entry point materialises an older one first) is
  // remaining_at under its own applied law, bitwise what the eager write-back
  // would hold, and x -> x / pending_rate_ is monotone, so the smallest
  // remaining gives the exact minimum horizon.
  double next_done;
  if (pending_uniform_) {
    assert(pending_time_ == eng_.now());
    ++stats_.horizon_visits;
    next_done = pending_min_rem_ / pending_rate_;
  } else {
    next_done = next_completion();
  }

  // Summary upkeep: a resolve that neither merged nor rebuilt the top-2
  // leaves it stale against the new incidence; drops after the verdict do
  // the same. Either way the next resolve must take the full scan.
  if (!sb_updated_ || !dropped_slots_.empty()) sb_valid_ = false;

  clear_dirty();

  if (std::isfinite(next_done)) {
    pending_event_ = eng_.schedule_in(std::max(next_done, 0.0), [this] {
      has_pending_event_ = false;
      // Completions read and remove flows: settle the parked uniform rate
      // first so `remaining`/`rate` fields are the eager path's values.
      materialize_pending();
      const double t = eng_.now();
      // Complete every flow that has drained (ties finish together).
      collect_drained(t);
      done_callbacks_.clear();
      static obs::Counter& completed =
          obs::metrics().counter("net.flows_completed");
      for (int s : done_slots_) {
        Flow& f = slots_[static_cast<std::size_t>(s)];
        // The flow's whole lifetime as one span: start -> last byte drained.
        obs::tracer().span("net", "flow", f.start_time, t - f.start_time,
                           {{"flow", static_cast<double>(f.id)},
                            {"bytes", f.total_bytes},
                            {"hops", static_cast<double>(f.path.size())}});
        completed.inc();
        done_callbacks_.push_back(std::move(f.on_done));
        remove_flow(s);
      }
      resolve_and_schedule();
      for (auto& cb : done_callbacks_)
        if (cb) cb();
      done_callbacks_.clear();
    });
    has_pending_event_ = true;
  }
  // else: every active flow is stalled; nothing to schedule. They recover
  // when a future add/remove dirties their component after link repair.

  if (stall_hook_ && !dropped_ids_.empty()) {
    // Steal the list: the hook may re-enter (start replacement flows) and
    // clobber the member buffer mid-iteration.
    auto ids = std::move(dropped_ids_);
    dropped_ids_ = {};
    for (std::uint64_t id : ids) stall_hook_(id);
  }
}

void FlowSim::for_each_flow(
    const std::function<void(std::uint64_t, const std::vector<int>&, double,
                             double)>& fn) const {
  for_each_flow_at(eng_.now(), fn);
}

void FlowSim::for_each_flow_at(
    double t,
    const std::function<void(std::uint64_t, const std::vector<int>&, double,
                             double)>& fn) const {
  for (int s : active_order_) {
    const Flow& f = slots_[static_cast<std::size_t>(s)];
    fn(f.id, f.path, remaining_eff_at(f, t),
       pending_uniform_ ? pending_rate_ : f.rate);
  }
}

}  // namespace xscale::net
