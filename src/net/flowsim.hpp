// Event-driven flow dynamics on top of the steady-state fabric model.
//
// Each active flow owns a path through the fabric; whenever the active set
// changes, rates are re-solved (max-min fair) and the next completion event
// is rescheduled. This gives byte-accurate completion times for overlapping
// transfers — used by the storage campaign simulator and application traces,
// where flows start and finish at different times.
//
// Rate resolution is *incremental*: the simulator keeps per-link active-flow
// sets, marks the links of every added/removed flow dirty, and re-runs
// water-filling only over the connected component of flows reachable from a
// dirty link (flows in other components share no links with it, so their
// max-min rates are provably unchanged — the global solution is the union of
// per-component solutions). When the affected component exceeds a configured
// fraction of the active set, the whole active set is re-solved in place
// over the persistent flow/link incidence (the warm solve, DESIGN.md §9).
// `incremental = false` instead re-solves the whole active set cold, in one
// global CSR solve; that mode is the reference the differential tests hold
// both paths to, bit for bit (tests/test_flowsim.cpp, on randomized churn),
// so those runs also pin the component decomposition itself.
//
// Storage is flat (DESIGN.md §8): flows live in a slot arena with a free
// list, per-link incidence holds slot indices, and the restricted re-solve
// packs into a persistent `PathsCsr` + `SolveScratch` — so a steady-state
// churn event (complete one flow, start another, re-solve the component)
// performs zero heap allocations once the arena has warmed. Byte accrual is
// lazy: a flow's `remaining` is only materialised when its rate changes
// (rates for untouched components are bitwise unchanged, so skipping them is
// exact, and incremental and full modes accrue on identical schedules —
// which keeps their completion times bit-for-bit equal).
//
// Completion times come from an indexed min-heap over the flows with a
// positive applied rate, keyed by a conservative lower bound on the instant
// each flow's drain predicate can first hold (DESIGN.md §5, §9). A flow is
// re-keyed only where its rate or accrual state is written (set_rate, the
// parked-uniform materialisation, start/removal), so a resolve costs
// O(changed · log n). The next completion is the minimum of the exact
// `remaining/rate` over the candidates inside a proven rounding window of
// the heap minimum, and the completion handler re-tests the exact drain
// predicate on the candidates at or before the event time: both are the
// values a scan over every flow would produce, bit for bit. Under a parked
// uniform rate every member drains at one shared rate, so the horizon is the
// smallest remaining byte count over that rate, tracked as one scalar.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"

namespace xscale::net {

// What to do with a flow whose solved rate is zero (every path through a
// failed link): `Stall` parks it visibly (it holds its links and is counted
// by `stalled_flows()`, recovering if capacity returns); `Drop` removes it
// immediately and reports it through the `on_stall` hook — its completion
// callback never fires. The old behaviour silently trickled such flows at
// 1 B/s, hiding the failure for simulated centuries.
enum class StallPolicy { Stall, Drop };

struct FlowSimConfig {
  bool incremental = true;
  // Hand the resolve to the warm whole-set solve when the affected
  // component holds more than this fraction of the active flows (the
  // restricted solve would not be cheaper). The warm solve re-solves the
  // whole active set *in place* over the persistently maintained flow/link
  // incidence (DESIGN.md §9): no BFS completion, no id sort, no CSR repack,
  // plus a single-bottleneck closed form and a removal-only frozen-prefix
  // replay. Rates are bit-identical to the cold `incremental = false` path.
  double fallback_fraction = 0.5;
  // Apply solver results through the change-list write-back (DESIGN.md §9):
  // only flows whose computed rate differs from the applied rate reach
  // `set_rate`, and same-instant uniform (single-bottleneck) rates coalesce
  // lazily, materialising once per distinct timestamp. `false` restores the
  // whole-set write — the reference for the write-back differential tests.
  bool incremental_writeback = true;
  StallPolicy stall_policy = StallPolicy::Stall;
};

class FlowSim {
 public:
  using Done = std::function<void()>;
  using StallHook = std::function<void(std::uint64_t flow_id)>;

  FlowSim(sim::Engine& eng, const Fabric& fabric, FlowSimConfig cfg = {})
      : eng_(eng), fabric_(fabric), cfg_(cfg),
        rng_(fabric.config().seed ^ 0xF10Full) {}

  // Start a flow of `bytes` from endpoint `src` to `dst`; `on_done` fires at
  // the simulated completion time (transfer time only; callers add software
  // overheads and propagation latency). Routes directly into the slot's
  // reusable path buffer (allocation-free on minimal routing). Endpoint ids
  // outside [0, num_endpoints) throw std::out_of_range and non-finite
  // `bytes` throws std::invalid_argument, both before any state changes.
  std::uint64_t start(int src, int dst, double bytes, Done on_done);

  // Start a flow along an explicit path (e.g. storage traffic to OST
  // endpoints with custom capacities). An empty path or non-finite `bytes`
  // throws std::invalid_argument and a link id outside [0, links) throws
  // std::out_of_range, both before any state changes.
  std::uint64_t start_on_path(std::vector<int> path, double bytes, Done on_done);

  std::size_t active_flows() const { return active_count_; }

  // The fabric overlay's capacities changed out-of-band (a RotorSchedule slot
  // transition, a fabric-manager sweep): mark the given links dirty and
  // re-resolve now. This is how stalled flows on a re-priced link wake up —
  // they hold their links, so the dirty-link BFS reaches them even though no
  // flow was added or removed. Links not carried by any active flow are
  // ignored; out-of-range ids throw. The caller bumps the overlay epoch
  // (set_link_capacity/set_link_capacities) *before* calling this, which is
  // what retires the single-bottleneck summary and the frozen-prefix
  // metadata.
  void notify_capacity_change(const std::vector<int>& links);

  // Zero-rate flows currently parked (StallPolicy::Stall) / removed so far
  // (StallPolicy::Drop). Stalled flows still count as active.
  std::size_t stalled_flows() const { return stalled_; }
  std::uint64_t dropped_flows() const { return dropped_; }
  void on_stall(StallHook hook) { stall_hook_ = std::move(hook); }

  // Solver-effort accounting, fed by every resolve; plumbed into
  // bench/micro_flowsim and the heap-churn tests.
  //
  // `fallback_solves`, `warm_memo_hits`, `warm_memo_stale` and
  // `parallel_scans` are always 0: the cold fallback, the warm solution
  // memo and the parallel min-share scan they counted were removed. They
  // stay declared only because the xbench harness still reads them; the
  // next benchmark change drops them.
  struct Stats {
    std::uint64_t resolves = 0;          // resolve passes over a non-empty set
    std::uint64_t full_solves = 0;       // whole-set solves (incremental off)
    std::uint64_t fallback_solves = 0;   // always 0 (see above)
    std::uint64_t warm_solves = 0;       // threshold exceeded, warm-start solve
    std::uint64_t warm_single_hits = 0;  // single-bottleneck closed-form solves
    std::uint64_t warm_memo_hits = 0;    // always 0 (see above)
    std::uint64_t warm_memo_stale = 0;   // always 0 (see above)
    std::uint64_t warm_prefix_hits = 0;  // warm solves that replayed a prefix
    std::uint64_t component_solves = 0;  // restricted re-solves
    std::uint64_t flows_solved = 0;      // flows handed to the solver, total
    std::uint64_t frontier_flows = 0;    // flows actually iterated warm-start
    // Water-filling iterations and firing links. With incremental off an
    // iteration is one of the global solve's: ties across unrelated
    // components merge into one.
    std::uint64_t solver_iterations = 0;
    std::uint64_t bottleneck_links = 0;
    std::uint64_t parallel_scans = 0;  // always 0 (see above)
    std::uint64_t largest_component = 0;
    // Rate write-back accounting: `applied` counts solver results that
    // actually changed a flow's rate (a `set_rate` that does work),
    // `skipped` counts results proven no-ops (the flow already held the
    // computed rate). applied + skipped == flows handed a result.
    std::uint64_t writeback_applied = 0;
    std::uint64_t writeback_skipped = 0;
    // Single-bottleneck verification scans: `minshare_incr` resolved the
    // verdict from the incremental per-link share summary (touching only
    // links incident to churned flows); `minshare_full` fell back to the
    // full O(live links) scan (summary invalid or inconclusive).
    std::uint64_t minshare_incr = 0;
    std::uint64_t minshare_full = 0;
    // Flows whose exact completion horizon or drain predicate was evaluated
    // (completion-index candidates, plus one pass over the members whenever
    // a uniform rate is first parked). Deterministic and, away from parked
    // uniform rates, independent of the active count.
    std::uint64_t horizon_visits = 0;
  };
  const Stats& stats() const { return stats_; }
  const FlowSimConfig& config() const { return cfg_; }

  // Diagnostic/test hook: visits every active flow in ascending id order
  // (the differential tests rebuild the oracle problem from this).
  // `remaining` is reported as of the current simulated time.
  void for_each_flow(
      const std::function<void(std::uint64_t id, const std::vector<int>& path,
                               double remaining, double rate)>& fn) const;
  // Same, with `remaining` projected to time `t` >= now under the current
  // rates: bitwise the value the completion handler evaluates at `t` unless
  // a resolve intervenes (the horizon oracle test rebuilds drained sets
  // from it).
  void for_each_flow_at(
      double t,
      const std::function<void(std::uint64_t id, const std::vector<int>& path,
                               double remaining, double rate)>& fn) const;
  // Diagnostic: arena slots ever allocated (active + free). A start its
  // argument checks reject leaves it unchanged.
  std::size_t arena_slots() const { return slots_.size(); }

 private:
  // One arena slot. id == 0 marks a free slot; `path` and `on_done` keep
  // their buffers across reuse so churn stops allocating once warm.
  struct Flow {
    std::uint64_t id = 0;
    double remaining = 0;
    double rate = 0;
    double accrued_at = 0;   // sim time `remaining` was last materialised at
    double start_time = 0;   // obs: span begin for the flow's lifetime
    double total_bytes = 0;  // obs: recorded on the completion span
    bool stalled = false;
    int hz_pos = -1;                // position in the completion index, or -1
    std::uint64_t visit_epoch = 0;  // BFS stamp for component discovery
    std::vector<int> path;
    Done on_done;
  };

  void ensure_sized();
  int alloc_slot();
  std::uint64_t start_slot(int slot, double bytes, Done on_done);
  void mark_dirty(int link);
  void clear_dirty();
  // Bytes drained at simulated time `t` but not yet subtracted from
  // `remaining` (the write-back happens in `accrue`).
  double remaining_at(const Flow& f, double t) const {
    return f.remaining - f.rate * (t - f.accrued_at);
  }
  void accrue(Flow& f);
  // Completion index upkeep: after any write of a flow's rate, `remaining`
  // or `accrued_at`, re-key it (rate > 0) or take it out (rate == 0).
  // materialize_pending re-keys its flows in bulk instead.
  void hz_rekey(int slot);
  void hz_erase(int slot);
  void hz_place(std::size_t i, double key, int slot);
  void hz_sift_up(std::size_t i);
  void hz_sift_down(std::size_t i);
  // Exact min over indexed flows of remaining_at(f, now) / f.rate, +inf
  // when none; evaluates only the candidates inside the proven window.
  double next_completion();
  // done_slots_ := indexed flows whose drain predicate holds at `t`, in
  // ascending id order.
  void collect_drained(double t);
  // Park `rate` as the lazily applied uniform rate of every active flow.
  void park_uniform(double rate);
  void insert_flow_links(int slot, const Flow& f);
  void remove_flow(int slot);  // unlinks + frees the slot; marks links dirty
  void set_rate(int slot, double rate);
  // Fills `comp_slots_` with the slots of every flow reachable from the
  // dirty links via shared-link adjacency, ascending flow-id order. The BFS
  // stops (and skips the sort — `comp_truncated_` is set, the contents are
  // only a size witness) as soon as the component provably holds more than
  // `max_flows` flows.
  void affected_component(double max_flows);
  // Whole-active-set warm-start solve (DESIGN.md §9): single-bottleneck
  // closed form, then removal-only frozen-prefix replay, then in-place
  // water-filling over the persistent flow/link incidence. Bit-identical to
  // the cold global solve.
  void warm_solve(SolveStats* ss);
  void warm_record_removal(int slot);
  // Single-bottleneck closed form: if exactly one live link fires under the
  // water-filling cutoff computed against the *initial* state and every
  // active flow crosses it, the whole solve collapses to rate = min_share
  // for everyone — order-independent, so it is checked without the
  // O(flows x hops) passes. Rebuilds the top-2 summary. True when the rate
  // was parked (park_single).
  bool warm_single_bottleneck(SolveStats* ss);
  // Incremental single-bottleneck verdict from the per-link share summary,
  // touching only this resolve's dirty links. 1 = single bottleneck, rate
  // parked; 0 = the closed form does not apply this resolve (the full
  // verification scan can be skipped); -1 = summary insufficient, run the
  // full O(live links) scan.
  int try_single_incremental(SolveStats* ss);
  // The one hit path of both single-bottleneck sites: park `share` as every
  // flow's rate and account a one-iteration solve. False (nothing done)
  // where the rate must be written eagerly — reference write-back mode, a
  // stalled survivor, a zero share — and the general warm loop runs.
  bool park_single(double share, SolveStats* ss);
  // Apply the pending uniform rate (accruals as of `pending_time_`,
  // bit-identical to the eager per-resolve application it coalesced).
  void materialize_pending();
  // `remaining` under the pending uniform rate without materialising it.
  double remaining_eff_at(const Flow& f, double t) const;
  void note_writeback(std::uint64_t applied, std::uint64_t skipped);
  // Solve `comp` (ascending id: a component, or the whole active set) through
  // the persistent CSR arena and write its rates back.
  void solve_component(const std::vector<int>& comp, SolveStats* ss);
  void resolve_and_schedule();

  sim::Engine& eng_;
  const Fabric& fabric_;
  FlowSimConfig cfg_;
  sim::Rng rng_;
  std::vector<Flow> slots_;
  std::vector<int> free_slots_;
  std::size_t active_count_ = 0;
  std::vector<int> link_load_;  // adaptive-routing load proxy
  std::vector<std::vector<int>> flows_on_link_;  // slot indices
  std::vector<char> link_dirty_;
  std::vector<int> dirty_links_;
  std::vector<std::uint64_t> link_visit_epoch_;
  std::uint64_t visit_epoch_ = 0;
  // Persistent working set for the restricted solve and the event handler —
  // grow-only, reused every resolve (the zero-allocation contract).
  std::vector<int> link_local_id_;
  std::vector<std::uint64_t> link_remap_epoch_;
  std::uint64_t remap_epoch_ = 0;
  std::vector<double> comp_caps_;
  PathsCsr comp_csr_;
  std::vector<double> comp_rates_;
  SolveScratch solve_scratch_;
  std::vector<int> comp_slots_;
  std::vector<int> link_q_;      // BFS frontier
  bool comp_truncated_ = false;  // affected_component stopped at max_flows
  // --- warm start (DESIGN.md §9) ----------------------------------------
  // Active slots in ascending flow-id order, maintained incrementally
  // (append on start — ids are monotonic — ordered erase on removal). This
  // is exactly the order the cold global solve visits flows in, so neither
  // it nor the warm pass rebuilds or sorts per resolve.
  std::vector<int> active_order_;
  // Links with at least one active crosser, maintained incrementally (append
  // on first insert, lazily compacted when a scan meets an emptied link).
  // Only the *set* is meaningful — order is unspecified — which is exactly
  // enough for the order-free single-bottleneck scan.
  std::vector<int> live_links_;
  std::vector<char> live_link_in_;          // [link] membership flag
  // Dense link-state SoA for the warm water-filling loop (ISSUE 10):
  // warm_resid_/warm_aw_ are indexed by POSITION in warm_links_, kept
  // contiguous for the branch-free min-share scan kernel (net/simd.hpp);
  // link_local_id_ under the current remap epoch maps link id -> position,
  // and compaction rewrites all three in tandem.
  std::vector<int> warm_links_;             // touched links, first-seen order
  std::vector<double> warm_resid_;          // [position] residual capacity
  std::vector<double> warm_aw_;             // [position] unfrozen crossers
  std::vector<double> warm_rate_;           // [slot] rate solved this pass
  std::vector<std::uint64_t> warm_frozen_;  // [slot] == warm_pass_: frozen
  std::uint64_t warm_pass_ = 0;
  // Frozen-prefix metadata from the previous warm solve (freeze order and
  // 1-based freeze level per slot), valid while `warm_meta_ok_` holds and
  // the delta since then is removal-only with min removed level > 1.
  std::vector<int> warm_level_;     // [slot]
  std::vector<int> warm_seq_;       // slots in freeze order
  std::vector<int> warm_seq_lvl_;   // freeze level per warm_seq_ entry
  std::vector<int> warm_seq2_;      // double buffer for prefix rebuild
  std::vector<int> warm_seq2_lvl_;
  bool warm_meta_ok_ = false;
  std::uint64_t warm_cap_epoch_ = 0;
  int delta_min_level_ = 0;      // 0 = no removals since last warm solve
  bool delta_has_add_ = false;
  bool delta_meta_broken_ = false;
  // --- incremental write-back (DESIGN.md §9) ----------------------------
  // Change-list the warm water-filling loop builds while freezing: slots
  // whose computed rate differs from the currently applied rate (or that
  // must stall). The final write-back touches only these.
  std::vector<int> changed_slots_;
  // Lazy uniform rate: a successful single-bottleneck resolve parks its
  // (rate, time) here instead of writing every flow. Same-instant re-solves
  // overwrite it (zero-width rate segments perform no accrual arithmetic in
  // the eager path either, so coalescing is bitwise exact); any read or
  // later-time resolve materialises it first. `pending_mixed_` records
  // whether more than one distinct value was parked this instant — if so,
  // the eager path would have accrued every flow at `pending_time_`, so the
  // materialisation must too.
  bool pending_uniform_ = false;
  double pending_rate_ = 0.0;
  double pending_time_ = 0.0;
  double pending_first_ = 0.0;
  bool pending_mixed_ = false;
  // Smallest remaining_at(f, pending_time_) over the members while a
  // uniform rate is parked: every member then drains at pending_rate_, so
  // the horizon is pending_min_rem_ / pending_rate_. Set when the rate is
  // first parked, lowered by same-instant joiners; nothing else can move it
  // (removals and rate writes materialise the pending rate first).
  double pending_min_rem_ = 0.0;
  // --- completion index (DESIGN.md §5, §9) ------------------------------
  // Binary min-heap over the active flows with rate > 0; Flow::hz_pos is
  // the back-pointer. hz_stack_ is the candidate-walk scratch.
  struct HzEntry {
    double key;
    int slot;
  };
  std::vector<HzEntry> hz_;
  std::vector<std::size_t> hz_stack_;
  // Exact top-2 (share, link) over the links added; link -1 and share +inf
  // while fewer were added.
  struct Top2 {
    double s1 = std::numeric_limits<double>::infinity();
    double s2 = std::numeric_limits<double>::infinity();
    int l1 = -1, l2 = -1;
    void add(double share, int link) {
      if (share < s1) {
        s2 = s1;
        l2 = l1;
        s1 = share;
        l1 = link;
      } else if (share < s2) {
        s2 = share;
        l2 = link;
      }
    }
  };
  // Per-link min-share summary: exact top-2 of max(0,c)/crossers over live
  // links, maintained across resolves so the single-bottleneck verification
  // touches only dirty links. Invalidated whenever a resolve ends without
  // refreshing it (component/full solves, drops after the verdict) or the
  // capacity epoch moves.
  Top2 sb_;
  bool sb_valid_ = false;
  bool sb_updated_ = false;    // summary refreshed during this resolve
  bool sb_skip_full_ = false;  // incremental verdict: conclusive "no"
  std::uint64_t sb_cap_epoch_ = 0;
  std::vector<int> dropped_slots_;
  std::vector<std::uint64_t> dropped_ids_;
  std::vector<int> done_slots_;
  std::vector<Done> done_callbacks_;
  std::size_t stalled_ = 0;
  std::uint64_t dropped_ = 0;
  StallHook stall_hook_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;
};

}  // namespace xscale::net
