#include "net/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "net/simd.hpp"

namespace xscale::net {

namespace {

// Malformed inputs must not silently become garbage rates (NaN capacities
// survive the share arithmetic as 0 via std::max, and with -DNDEBUG a bare
// assert vanishes entirely). These checks hold in release builds. Every
// entry point applies the same rule: all weights, and the capacity of every
// link some flow crosses — a link no flow crosses is never read, so its
// capacity is never checked.
void check_weights(const double* weights, std::size_t num_flows) {
  if (weights)
    for (std::size_t f = 0; f < num_flows; ++f)
      if (!std::isfinite(weights[f]) || weights[f] < 0.0)
        throw std::invalid_argument("max_min_rates: weights must be finite and >= 0");
}

void check_capacity(double c) {
  if (!std::isfinite(c) || c < 0.0)
    throw std::invalid_argument("max_min_rates: capacities must be finite and >= 0");
}

void validate(const std::vector<double>& capacities,
              const std::vector<std::vector<int>>& paths,
              const std::vector<double>* weights) {
  if (weights && weights->size() != paths.size())
    throw std::invalid_argument("max_min_rates: weights/paths size mismatch");
  check_weights(weights ? weights->data() : nullptr, paths.size());
  for (const auto& p : paths)
    for (int l : p) check_capacity(capacities[static_cast<std::size_t>(l)]);
}

// Grow-only resize: never shrinks, so alternating problem sizes do not
// re-initialise the tail on every solve. Reports whether storage grew, so
// the scratch-reuse probe can count allocation-free steady-state re-solves.
template <typename T>
bool grow(std::vector<T>& v, std::size_t n) {
  const bool grew = v.capacity() < n;
  if (v.size() < n) v.resize(n);
  return grew;
}

// The pre-CSR water-filling core, retained as the differential oracle;
// inputs already validated. The only change since PR 5: active-link list
// membership is first-seen-deduplicated (`on_list`) instead of keyed on
// `active_w == 0.0`. The two are identical unless a link's first crossers
// all have weight exactly 0 (the old key re-pushed such a link, producing
// duplicate list entries); the dense-SoA CSR core cannot represent
// duplicates, so both sides now share the dedup semantics and stay
// bit-identical on every input, zero-weight flows included (DESIGN.md §9).
std::vector<double> solve_core_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  const std::size_t nf = paths.size();
  std::vector<double> rate(nf, 0.0);

  // Per-link: residual capacity, total unfrozen weight, flows crossing it.
  std::vector<double> residual = capacities;
  std::vector<double> active_w(capacities.size(), 0.0);
  std::vector<std::vector<int>> flows_on(capacities.size());
  std::vector<char> frozen(nf, 0);

  auto w_of = [&](std::size_t f) { return weights ? (*weights)[f] : 1.0; };

  std::vector<int> active_links;
  std::vector<char> on_list(capacities.size(), 0);
  for (std::size_t f = 0; f < nf; ++f) {
    assert(!paths[f].empty());
    for (int l : paths[f]) {
      if (!on_list[static_cast<std::size_t>(l)]) {
        on_list[static_cast<std::size_t>(l)] = 1;
        active_links.push_back(l);
      }
      active_w[static_cast<std::size_t>(l)] += w_of(f);
      flows_on[static_cast<std::size_t>(l)].push_back(static_cast<int>(f));
    }
  }

  std::size_t remaining = nf;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  while (remaining > 0) {
    ++iterations;
    // Find the smallest per-weight share among links with unfrozen flows.
    double min_share = std::numeric_limits<double>::infinity();
    for (int l : active_links) {
      const auto lu = static_cast<std::size_t>(l);
      if (active_w[lu] <= 0.0) continue;
      min_share =
          std::min(min_share, std::max(0.0, residual[lu]) / active_w[lu]);
    }
    // No link constrains the remaining flows (e.g. every unfrozen flow has
    // weight 0, so its links never activate): there is no finite max-min
    // allocation.
    if (!std::isfinite(min_share))
      throw std::runtime_error(
          "max_min_rates: no finite bottleneck share for remaining flows");

    // Freeze every flow crossing any link whose share ties the minimum
    // EXACTLY. Symmetric traffic patterns produce massive bitwise ties
    // (identical capacity / crosser-count arithmetic) and those still
    // collapse into one iteration. The tie test must not carry a relative
    // slack: a near-tie tolerance lets the minimum link "capture" a link
    // from an unrelated connected component whose share drifted within the
    // window, freezing its flows at the *other* component's share — which
    // breaks the bit-identity between this global solve and the
    // per-component solves of `max_min_rates_components` and of FlowSim's
    // incremental paths, which its `incremental = false` global solve pins
    // bitwise. With exact ties, each component's
    // firing sequence in the global solve is precisely its local solve's
    // sequence, so decomposition is lossless at the ULP level.
    const double cutoff = min_share;
    for (int l : active_links) {
      const auto lu = static_cast<std::size_t>(l);
      if (active_w[lu] <= 0.0) continue;
      if (std::max(0.0, residual[lu]) / active_w[lu] > cutoff) continue;
      ++bottlenecks;
      for (int fi : flows_on[lu]) {
        const auto fu = static_cast<std::size_t>(fi);
        if (frozen[fu]) continue;
        frozen[fu] = 1;
        rate[fu] = min_share * w_of(fu);
        --remaining;
        for (int pl : paths[fu]) {
          const auto plu = static_cast<std::size_t>(pl);
          residual[plu] -= rate[fu];
          active_w[plu] -= w_of(fu);
        }
      }
    }
    // Drop links with no remaining unfrozen flows.
    std::erase_if(active_links,
                  [&](int l) { return active_w[static_cast<std::size_t>(l)] <= 1e-12; });
  }

  if (stats) {
    stats->iterations = iterations;
    stats->bottleneck_links = bottlenecks;
  }
  return rate;
}

// Union-find over link ids, path-halving.
struct LinkDsu {
  std::vector<int> parent;
  explicit LinkDsu(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
};

}  // namespace

namespace {

// Position flag bits (SolveScratch::flags).
constexpr unsigned char kQueued = 1;   // on this iteration's candidate queue
constexpr unsigned char kTouched = 2;  // on this iteration's touched list
constexpr unsigned char kRetired = 4;  // off the live set for good

// The link share both cores compare: the reference's and the scan
// kernel's exact per-link expression (valid only for aw > 0).
inline double share_of(double residual, double aw) {
  return std::max(0.0, residual) / aw;
}

// Indexed binary min-heap over positions, keyed on link share. A stored key
// is a LOWER BOUND on the link's current share: a share that drops is
// re-keyed at once, one that rises (the common case after a subtraction)
// is re-keyed lazily, only when its entry surfaces at the top or inside the
// tie walk. Retired links stay in the heap as dead entries until they
// surface at the top; most never do before the solve ends. The heap order
// only decides which key is smallest; ties are collected as a set
// (collect_min), so tie-breaking inside the heap never reaches the output.
//
// Everything is reached through raw pointers held in locals: the solver
// writes char flags in its inner loops, and a char store may alias any
// object, so pointers re-read from vector members would be reloaded after
// every flag write.
struct ShareHeap {
  double* key;
  int* pos;
  int* slot;  // [position] heap index, -1 when not on the heap
  const double* residual;
  const double* aw;
  const unsigned char* flags;
  int* stale;  // stale entries the tie walk met
  std::size_t n = 0;

  double current(int p) const {
    const auto pu = static_cast<std::size_t>(p);
    return share_of(residual[pu], aw[pu]);
  }
  void place(std::size_t i, double k, int p) {
    key[i] = k;
    pos[i] = p;
    slot[static_cast<std::size_t>(p)] = static_cast<int>(i);
  }
  void push_unordered(double k, int p) { place(n++, k, p); }
  void sift_up(std::size_t i) {
    const double k = key[i];
    const int p = pos[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(k < key[parent])) break;
      place(i, key[parent], pos[parent]);
      i = parent;
    }
    place(i, k, p);
  }
  void sift_down(std::size_t i) {
    const double k = key[i];
    const int p = pos[i];
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && key[c + 1] < key[c]) ++c;
      if (!(key[c] < k)) break;
      place(i, key[c], pos[c]);
      i = c;
    }
    place(i, k, p);
  }
  // Floyd heapify over the entries pushed unordered.
  void build() {
    for (std::size_t i = n / 2; i-- > 0;) sift_down(i);
  }
  void rekey(int p, double k) {
    const auto i = static_cast<std::size_t>(slot[static_cast<std::size_t>(p)]);
    const double old = key[i];
    key[i] = k;
    if (k < old) sift_up(i);
    else if (old < k) sift_down(i);
  }
  // Drops the top entry (a retired link surfacing there).
  void pop_top() {
    slot[static_cast<std::size_t>(pos[0])] = -1;
    if (--n > 0) {
      place(0, key[n], pos[n]);
      sift_down(0);
    }
  }
  // The current minimum share: re-keys stale entries at the top until the
  // top key is exact. Every other stored key is >= the top's and a lower
  // bound on its own share, so the exact top is the exact minimum.
  double exact_min(std::int64_t& rekeys) {
    while (n > 0) {
      const int top = pos[0];
      if (flags[static_cast<std::size_t>(top)] & kRetired) {
        pop_top();
        continue;
      }
      const double k = current(top);
      if (k == key[0]) return k;
      rekey(top, k);
      ++rekeys;
    }
    return std::numeric_limits<double>::infinity();
  }
  // Every live position whose current share is <= m (== m when m is the
  // exact minimum), by a pruned walk from the root: a share equal to m has
  // a stored key <= m, so the walk covers every tie. Stale entries met on
  // the way are re-keyed after the walk. The recursion is as deep as the
  // heap is tall, O(log n).
  template <typename Fn>
  void collect_min(double m, std::int64_t& rekeys, Fn&& fn) {
    std::size_t nstale = 0;
    walk(0, m, nstale, fn);
    for (std::size_t j = 0; j < nstale; ++j) rekey(stale[j], current(stale[j]));
    rekeys += static_cast<std::int64_t>(nstale);
  }
  template <typename Fn>
  void walk(std::size_t i, double m, std::size_t& nstale, Fn& fn) {
    if (i >= n || key[i] > m) return;
    const int p = pos[i];
    // A dead entry is no candidate, but its subtree may hold ties.
    if (!(flags[static_cast<std::size_t>(p)] & kRetired)) {
      if (current(p) <= m) fn(p);
      else stale[nstale++] = p;
    }
    walk(2 * i + 1, m, nstale, fn);
    walk(2 * i + 2, m, nstale, fn);
  }
};

}  // namespace

void max_min_rates_csr(const double* capacities, std::size_t num_links,
                       const PathsCsr& paths, const double* weights,
                       double* rates_out, SolveStats* stats,
                       SolveScratch& s) {
  const std::size_t nf = paths.num_flows();
  if (stats) *stats = SolveStats{};
  if (nf == 0) return;
  check_weights(weights, nf);

  const int* lids = paths.link_ids.data();
  const int* off = paths.offsets.data();
  const std::size_t nnz = paths.nnz();
  // Positions never outnumber path entries or links.
  const std::size_t max_pos = std::min(nnz, num_links);

  // Size the scratch first so a warm re-solve is provably allocation-free;
  // every cell read below is written first, so prior contents never leak
  // into the output. Three arenas, sliced below, keep the number of
  // allocations a growing problem pays small.
  bool grew = false;
  grew |= grow(s.link_pos, num_links);
  grew |= grow(s.link_stamp, num_links);
  grew |= grow(s.real, 3 * max_pos);
  grew |= grow(s.index, 5 * max_pos + 1 + 2 * nnz);
  grew |= grow(s.bytes, max_pos + nf);
  // Recorded, not counted here: worker threads each warm a private scratch,
  // so a process-wide counter incremented per solve would depend on the
  // thread count and break the byte-identical metrics contract. Owners with
  // deterministic call sites (FlowSim) feed `net.solver.scratch_reuse`.
  s.last_solve_allocated = grew;

  double* residual = s.real.data();          // [position]
  double* active_w = residual + max_pos;     // [position]
  double* heap_key = active_w + max_pos;     // [heap slot]
  int* t_off = s.index.data();               // [position + 1]
  int* heap_slot = t_off + max_pos + 1;      // [position]
  int* heap_pos = heap_slot + max_pos;       // [heap slot]
  int* queue = heap_pos + max_pos;           // candidate queue; setup cursors
  int* touched = queue + max_pos;            // touched list; tie-walk stale list
  int* entry_pos = touched + max_pos;        // [path entry]
  int* t_flow = entry_pos + nnz;             // [path entry]
  unsigned char* flags = s.bytes.data();     // [position]
  unsigned char* frozen = flags + max_pos;   // [flow]
  int* link_pos = s.link_pos.data();
  std::uint64_t* link_stamp = s.link_stamp.data();

  // Encounter pass: one position per crossed link in first-seen order (the
  // reference's active-list order), its capacity validated and copied, its
  // unfrozen weight and crosser count accumulated; every path entry records
  // its position so the freeze loop never looks a link id up again.
  const std::uint64_t epoch = ++s.epoch;
  auto w_of = [&](std::size_t f) { return weights ? weights[f] : 1.0; };
  std::size_t npos = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    assert(off[f] < off[f + 1]);
    const double w = w_of(f);
    for (int i = off[f]; i < off[f + 1]; ++i) {
      const auto lu = static_cast<std::size_t>(lids[i]);
      std::size_t p;
      if (link_stamp[lu] != epoch) {
        const double c = capacities[lu];
        check_capacity(c);
        link_stamp[lu] = epoch;
        p = npos++;
        link_pos[lu] = static_cast<int>(p);
        residual[p] = c;
        active_w[p] = 0.0;
        flags[p] = 0;
        t_off[p + 1] = 0;
      } else {
        p = static_cast<std::size_t>(link_pos[lu]);
      }
      active_w[p] += w;
      ++t_off[p + 1];
      entry_pos[i] = static_cast<int>(p);
    }
  }
  std::fill(frozen, frozen + nf, 0);
  std::fill(rates_out, rates_out + nf, 0.0);

  // Transposed position -> flow incidence by counting sort; flows land in
  // ascending order within each position, the order the reference builds
  // its per-link flow lists, so the freeze sweep visits flows identically.
  t_off[0] = 0;
  for (std::size_t p = 1; p <= npos; ++p) t_off[p] += t_off[p - 1];
  int* t_cursor = queue;  // the queue is idle until the first iteration
  std::copy(t_off, t_off + npos, t_cursor);
  for (std::size_t f = 0; f < nf; ++f)
    for (int i = off[f]; i < off[f + 1]; ++i)
      t_flow[t_cursor[entry_pos[i]]++] = static_cast<int>(f);

  std::size_t remaining = nf;
  std::int64_t iterations = 0;
  std::int64_t bottlenecks = 0;
  std::int64_t link_updates = 0;
  auto no_finite_share = [] {
    // No link constrains the remaining flows (e.g. every unfrozen flow has
    // weight 0, so its links never carry weight): no finite allocation.
    return std::runtime_error(
        "max_min_rates: no finite bottleneck share for remaining flows");
  };
  // Fires position `link` at min_share: freezes each of its unfrozen flows
  // (ascending flow id) and subtracts the flow's rate and weight from every
  // live link on its path, reporting each subtraction to on_sub(position,
  // new residual, new weight). Retired links take no further subtractions;
  // the reference subtracts into dead cells it never reads again.
  auto fire = [&](int link, double min_share, auto&& on_sub) {
    ++bottlenecks;
    for (int ti = t_off[link]; ti < t_off[link + 1]; ++ti) {
      const auto fu = static_cast<std::size_t>(t_flow[ti]);
      if (frozen[fu]) continue;
      frozen[fu] = 1;
      const double w = w_of(fu);
      const double rate = min_share * w;
      rates_out[fu] = rate;
      --remaining;
      for (int e = off[fu]; e < off[fu + 1]; ++e) {
        const int p = entry_pos[e];
        if (flags[p] & kRetired) continue;
        const double r2 = residual[p] -= rate;
        on_sub(p, r2, active_w[p] -= w);
      }
    }
  };

  // Scan phase: the reference's own loop over the position block. A full
  // min-share scan per iteration (the dispatched kernel, bitwise equal to
  // the reference's scan), then a sweep in position order that re-tests
  // each live link as it reaches it. A retired link's weight is zeroed,
  // which both the kernel and the sweep read as "not live". An iteration
  // costs O(crossed links) but nothing up front, so the core scans while
  // the positions scanned, summed over iterations, stay within
  // kCsrScanBudget, and moves to the heap loop at the iteration boundary
  // where they would not (DESIGN.md §9).
  const MinShareScanFn scan = min_share_scan();
  std::size_t scanned = 0;
  while (remaining > 0 && scanned + npos <= kCsrScanBudget) {
    scanned += npos;
    ++iterations;
    const double min_share = scan(residual, active_w, 0, npos);
    if (!std::isfinite(min_share)) throw no_finite_share();
    for (std::size_t p = 0; p < npos; ++p) {
      const double aw = active_w[p];
      if (aw <= 0.0) continue;
      ++link_updates;
      if (share_of(residual[p], aw) > min_share) continue;
      fire(static_cast<int>(p), min_share, [](int, double, double) {});
    }
    for (std::size_t p = 0; p < npos; ++p)
      if (!(flags[p] & kRetired) && active_w[p] <= 1e-12) {
        flags[p] |= kRetired;
        active_w[p] = 0.0;
      }
  }

  if (remaining > 0) {
    // Heap of every position with positive weight — exactly the links the
    // reference's next scan considers (aw <= 0 lanes read +inf there; links
    // the scan phase retired have weight 0). The tie walk runs before the
    // sweep, while the touched list is empty, so it borrows that buffer for
    // its stale entries.
    ShareHeap heap{heap_key, heap_pos, heap_slot, residual, active_w, flags, touched};
    for (std::size_t p = 0; p < npos; ++p) {
      heap.slot[p] = -1;
      if (active_w[p] > 0.0)
        heap.push_unordered(share_of(residual[p], active_w[p]), static_cast<int>(p));
    }
    heap.build();

    while (remaining > 0) {
      ++iterations;
      const double min_share = heap.exact_min(link_updates);
      if (!std::isfinite(min_share)) throw no_finite_share();

      // The reference sweeps every live link in position order and fires
      // each one whose share, re-evaluated at that moment, is <= min_share
      // (exact ties, no slack — see solve_core_reference). Only two kinds of
      // link can pass at their visit: ones already tied at the minimum, and
      // ones an earlier freeze in this sweep subtracted from. So: queue the
      // ties in position order, and after every subtraction queue the
      // touched link if it lies ahead of the cursor and now passes. Each
      // visit re-tests the exact predicate with the values the reference
      // would see there (DESIGN.md §9).
      std::greater<int> later;
      std::size_t nqueue = 0, ntouched = 0;
      heap.collect_min(min_share, link_updates, [&](int p) {
        flags[p] |= kQueued;
        queue[nqueue++] = p;
      });
      std::make_heap(queue, queue + nqueue, later);
      while (nqueue > 0) {
        std::pop_heap(queue, queue + nqueue, later);
        const int cursor = queue[--nqueue];
        flags[cursor] &= static_cast<unsigned char>(~kQueued);
        ++link_updates;
        const double aw = active_w[cursor];
        if (aw <= 0.0) continue;
        if (share_of(residual[cursor], aw) > min_share) continue;
        fire(cursor, min_share, [&](int p, double r2, double aw2) {
          if (!(flags[p] & kTouched)) {
            flags[p] |= kTouched;
            touched[ntouched++] = p;
          }
          if (p <= cursor || (flags[p] & kQueued)) return;
          if (aw2 > 0.0 && !(share_of(r2, aw2) > min_share)) {
            flags[p] |= kQueued;
            queue[nqueue++] = p;
            std::push_heap(queue, queue + nqueue, later);
          }
        });
      }

      if (remaining == 0) break;  // nothing left to key the heap for

      // Only links this iteration subtracted from can have a new share.
      // Drop those with no unfrozen weight left — the reference's
      // per-iteration erase with its 1e-12 threshold — and re-key those
      // whose share fell below the stored key; a risen share stays a valid
      // lower bound.
      for (std::size_t j = 0; j < ntouched; ++j) {
        const int p = touched[j];
        flags[p] &= static_cast<unsigned char>(~kTouched);
        if (active_w[p] <= 1e-12) {
          flags[p] |= kRetired;
          continue;
        }
        const double k = heap.current(p);
        if (k < heap.key[heap.slot[p]]) {
          heap.rekey(p, k);
          ++link_updates;
        }
      }
      // Untouched links keep their initial weight, so the first iteration's
      // erase is the only one that can drop an untouched link (initial
      // weight already <= 1e-12: zero-weight-only or tiny-weight crossers).
      // After a scan phase its own erase has already run.
      if (iterations == 1)
        for (std::size_t p = 0; p < npos; ++p)
          if (active_w[p] <= 1e-12) flags[p] |= kRetired;
    }
  }

  if (stats) {
    stats->iterations = iterations;
    stats->bottleneck_links = bottlenecks;
    stats->link_updates = link_updates;
  }
}

std::vector<double> max_min_rates(const std::vector<double>& capacities,
                                  const std::vector<std::vector<int>>& paths,
                                  const std::vector<double>* weights,
                                  SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  if (weights && weights->size() != paths.size())
    throw std::invalid_argument("max_min_rates: weights/paths size mismatch");
  // Adapter: pack into a per-thread CSR arena (concurrent callers, such as
  // the batcher's sessions, never share) and run the flat core.
  static thread_local PathsCsr csr;
  static thread_local SolveScratch scratch;
  csr.clear();
  for (const auto& p : paths) {
    assert(!p.empty());
    csr.push_path(p.begin(), p.end());
  }
  std::vector<double> rates(paths.size(), 0.0);
  max_min_rates_csr(capacities.data(), capacities.size(), csr,
                    weights ? weights->data() : nullptr, rates.data(), stats,
                    scratch);
  return rates;
}

std::vector<double> max_min_rates_reference(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  if (paths.empty()) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  validate(capacities, paths, weights);
  return solve_core_reference(capacities, paths, weights, stats);
}

std::vector<double> max_min_rates_components(
    const std::vector<double>& capacities,
    const std::vector<std::vector<int>>& paths,
    const std::vector<double>* weights, SolveStats* stats) {
  const std::size_t nf = paths.size();
  if (nf == 0) {
    if (stats) *stats = SolveStats{};
    return {};
  }
  validate(capacities, paths, weights);

  // Link-connectivity union-find; two flows are coupled iff their paths
  // transitively share a link.
  LinkDsu dsu(capacities.size());
  for (const auto& p : paths) {
    assert(!p.empty());
    for (std::size_t i = 1; i < p.size(); ++i) dsu.unite(p[0], p[i]);
  }

  // Dense component ids in first-flow order; each component's flow list is
  // ascending by construction.
  std::vector<int> comp_of_root(capacities.size(), -1);
  std::vector<std::vector<int>> comp_flows;
  for (std::size_t f = 0; f < nf; ++f) {
    const int root = dsu.find(paths[f][0]);
    int& c = comp_of_root[static_cast<std::size_t>(root)];
    if (c < 0) {
      c = static_cast<int>(comp_flows.size());
      comp_flows.emplace_back();
    }
    comp_flows[static_cast<std::size_t>(c)].push_back(static_cast<int>(f));
  }

  if (comp_flows.size() == 1)
    return max_min_rates(capacities, paths, weights, stats);

  // One pack arena serves every component in turn. The link remap is
  // epoch-stamped, so packing a component costs O(its nnz) with no clearing
  // pass; links are renumbered in first-encounter order (the order the
  // global solve visits them, so the per-link arithmetic sequence — and
  // hence every output bit — matches the unsplit solve).
  std::vector<double> rate(nf, 0.0);
  std::vector<int> local_id(capacities.size(), 0);
  std::vector<std::uint64_t> mark(capacities.size(), 0);
  std::uint64_t epoch = 0;
  std::vector<double> sub_caps, sub_w, sub_rates;
  PathsCsr sub_csr;
  SolveScratch scratch;
  if (stats) *stats = SolveStats{};
  for (const std::vector<int>& flows : comp_flows) {
    ++epoch;
    sub_caps.clear();
    sub_w.clear();
    sub_csr.clear();
    for (int f : flows) {
      const auto fu = static_cast<std::size_t>(f);
      for (int l : paths[fu]) {
        const auto lu = static_cast<std::size_t>(l);
        if (mark[lu] != epoch) {
          mark[lu] = epoch;
          local_id[lu] = static_cast<int>(sub_caps.size());
          sub_caps.push_back(capacities[lu]);
        }
        sub_csr.push_link(local_id[lu]);
      }
      sub_csr.end_path();
      if (weights) sub_w.push_back((*weights)[fu]);
    }
    grow(sub_rates, flows.size());
    SolveStats cs;
    max_min_rates_csr(sub_caps.data(), sub_caps.size(), sub_csr,
                      weights ? sub_w.data() : nullptr, sub_rates.data(), &cs,
                      scratch);
    for (std::size_t i = 0; i < flows.size(); ++i)
      rate[static_cast<std::size_t>(flows[i])] = sub_rates[i];
    if (stats) {
      stats->iterations += cs.iterations;
      stats->bottleneck_links += cs.bottleneck_links;
      stats->link_updates += cs.link_updates;
    }
  }
  return rate;
}

}  // namespace xscale::net
