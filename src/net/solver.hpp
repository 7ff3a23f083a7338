// Max-min fair bandwidth allocation (progressive water-filling).
//
// Given link capacities and one path (list of link ids) per flow, computes
// the unique max-min fair rate vector: repeatedly find the most constrained
// link, freeze every flow crossing it at the link's equal share, remove that
// bandwidth, and continue. This is the steady-state a credit-based,
// congestion-managed fabric like Slingshot converges to for long flows.
//
// The hot entry point is `max_min_rates_csr`: paths live in a flat CSR arena
// (`PathsCsr`), link shares sit in an indexed min-heap, and each iteration
// touches only the links on the paths it freezes, so a cold solve costs
// O(nnz log L) (nnz = path entries, L = links crossed) instead of
// O(iterations x live links). Each solve scans first and moves to the
// heap once the scans have cost kCsrScanBudget, so small problems never
// pay for the heap. All working state lives in a caller-owned
// `SolveScratch`, and a steady-state re-solve performs zero heap
// allocations once the scratch has warmed to the problem size (DESIGN.md
// §8). The `std::vector`-of-`std::vector` entry points are retained as thin
// adapters (and `max_min_rates_reference` as the original scan-based
// implementation) so differential tests can pin the CSR core bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xscale::net {

struct SolveStats {
  // int64: per-component totals accumulated across long churn runs overflow
  // 32 bits (a week-long storage campaign re-solves billions of times).
  std::int64_t iterations = 0;
  std::int64_t bottleneck_links = 0;
  // Always 0: every water-filling loop is serial (the chunked parallel
  // min-share scan was removed). Kept only because the xbench harness still
  // reads it; the next benchmark change drops it.
  std::int64_t parallel_scans = 0;
  // CSR core only: link shares re-evaluated — heap re-keys plus
  // candidate-queue re-tests on the heap loop, live links swept on the scan
  // loop. A deterministic work count for the bench rows (link_updates/solve).
  std::int64_t link_updates = 0;
};

// Work budget of `max_min_rates_csr`'s scan phase, in positions scanned
// (crossed links x iterations). A scan iteration costs O(crossed links) and
// nothing up front; the heap costs a setup, tie walk and candidate queue
// that only pay off over many iterations on many links. So the core scans
// until the next iteration would take the total past this budget, then
// moves to the heap. The value comes from measurements (EXPERIMENTS.md).
// It is not a tuning knob: both loops return the same bits, and tests size
// their problems to reach every path (scan only, switch, heap only).
inline constexpr std::size_t kCsrScanBudget = 1024;

// Flat CSR path set: flow f's links are `link_ids[offsets[f] ..
// offsets[f+1])`. `offsets` always carries num_flows()+1 entries with
// offsets[0] == 0. Append-only between `clear()`s; the backing vectors only
// grow, so a reused PathsCsr allocates nothing once warm.
struct PathsCsr {
  std::vector<int> link_ids;
  std::vector<int> offsets{0};

  std::size_t num_flows() const { return offsets.size() - 1; }
  std::size_t nnz() const { return link_ids.size(); }

  void clear() {
    link_ids.clear();
    offsets.clear();
    offsets.push_back(0);
  }

  // Append one flow; links must be non-empty and duplicate-free.
  template <typename It>
  void push_path(It first, It last) {
    for (; first != last; ++first) link_ids.push_back(*first);
    offsets.push_back(static_cast<int>(link_ids.size()));
  }

  // Incremental append: push links one by one, then seal the flow.
  void push_link(int l) { link_ids.push_back(l); }
  void end_path() { offsets.push_back(static_cast<int>(link_ids.size())); }
};

// Caller-owned, reusable working set for `max_min_rates_csr`. Buffers are
// grown on demand and never shrunk; a solve against a problem no larger than
// any previously seen one performs zero heap allocations (the
// `net.solver.scratch_reuse` counter tracks exactly that). Solver output is
// independent of prior scratch contents, so one scratch may serve unrelated
// problems back to back (FlowSim keeps one per simulator; the adapters keep
// one per thread). Nothing here is O(num_links) per solve: link ids map to
// positions through an epoch-stamped table that is never cleared, and every
// other buffer is indexed by position, path entry or flow.
struct SolveScratch {
  // Per-solve arrays, carved out of three arenas so that a problem larger
  // than any seen before costs a handful of allocations, not one per array.
  // Links are numbered by POSITION: first-seen order over the path entries
  // (flows ascending, then hops), the order the reference visits its
  // active-link list; positions are never compacted.
  //   real:  residual | active_w | heap keys                  [positions]
  //   index: transposed incidence offsets (+1) | heap slot of each
  //          position | heap array | candidate queue | touched list
  //                                                          [positions]
  //          | position of each path entry | transposed incidence
  //                                                          [path entries]
  //   bytes: queued/touched/retired flags [positions] | frozen [flows]
  // The heap is an indexed binary min-heap of link shares
  // max(0, residual) / active_w; a stored key is a lower bound on the
  // link's share, exact whenever the entry is at the top.
  std::vector<double> real;
  std::vector<int> index;
  std::vector<unsigned char> bytes;
  // Epoch-stamped id -> position map: link_pos[id] is valid iff
  // link_stamp[id] == epoch, so no per-solve clearing pass.
  std::vector<int> link_pos;              // [num_links]
  std::vector<std::uint64_t> link_stamp;  // [num_links]
  std::uint64_t epoch = 0;
  // Set by `max_min_rates_csr`: whether the last solve had to grow any
  // buffer. Owners with deterministic call sites use it to feed the
  // `net.solver.scratch_reuse` counter (the solver itself does not count —
  // per-worker-thread scratches would make the metric thread-count
  // dependent, violating the byte-identical metrics contract).
  bool last_solve_allocated = false;
};

// Water-filling over a CSR path set. Writes one rate per flow into
// `rates_out` (size >= paths.num_flows()). Link ids must lie in
// [0, num_links); `weights` (nullable) has one entry per flow. A non-finite
// or negative capacity on a link some flow crosses, or a non-finite or
// negative weight, throws std::invalid_argument — the rule every entry
// point below shares (capacities of links no flow crosses are never read);
// an unbounded allocation throws std::runtime_error. Bit-for-bit identical to `max_min_rates_reference` on
// the same input — rates, `iterations` and `bottleneck_links` — DESIGN.md
// §9 gives the argument and the differential suite pins it.
void max_min_rates_csr(const double* capacities, std::size_t num_links,
                       const PathsCsr& paths, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& scratch);

// `capacities[l]` is the capacity of link l; `paths[f]` lists the links of
// flow f (must be non-empty, without duplicates). Optional `weights` give
// weighted fairness (a flow counting as w concurrent streams); default 1.
// Thin adapter over `max_min_rates_csr` (packs the paths into a thread-local
// CSR arena); kept as the stable oracle-facing signature.
std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights = nullptr,
                                  SolveStats* stats = nullptr);

// The original pointer-chasing implementation (vector-of-vectors incidence,
// per-solve allocations), retained as the differential oracle: the CSR core
// must match it bit-for-bit on every input — including flows with weight
// exactly 0 (both sides keep the active-link list first-seen-deduplicated;
// DESIGN.md §9 covers why that is the only input class where membership
// bookkeeping could otherwise diverge). Not a hot path.
std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr, SolveStats* stats = nullptr);

// Same allocation, computed by decomposing the flow graph into connected
// components (flows transitively sharing links) and solving each component
// independently on the global thread pool (sim::parallel_for). Components
// never exchange bandwidth, so the union of per-component solutions equals
// the global solution — the incremental FlowSim re-solve has relied on that
// bit-for-bit since PR 1. Determinism: component ids are assigned in
// first-flow order, rates are written to index-disjoint slots, and `stats`
// are summed in ascending component id — output is byte-identical for any
// thread count, including 1. `stats->iterations` counts the per-component
// total, which can exceed the single-solve count (ties across unrelated
// components no longer collapse into one global iteration). Each worker
// packs its components into a thread-local CSR arena + scratch, so the
// steady-state cost is allocation-free here too.
std::vector<double> max_min_rates_components(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights = nullptr,
    SolveStats* stats = nullptr);

}  // namespace xscale::net
