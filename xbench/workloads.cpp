#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>

#include "apps/app.hpp"
#include "mpi/comm.hpp"
#include "net/flowsim.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace xbench {

namespace apps = xscale::apps;
namespace machines = xscale::machines;
namespace mpi = xscale::mpi;
namespace net = xscale::net;
namespace serve = xscale::serve;
namespace sim = xscale::sim;

namespace {

// Set-ups per run before the measured phase; setup_s is their median. A
// set-up takes ~10-20 ms, so many of them cost little and steady the median.
constexpr int kSetups = 21;

// Fixed work per measured second, from the medians of ten-seed sets on a
// 4-CPU x86-64 host at 2 pool threads (README.md), so that there each
// workload's measured phase lasts about --seconds.
constexpr double kRegenerationSeconds = 0.85;  // one paper_tables regeneration
constexpr double kChurnRampSeconds = 3.4;      // flow_churn until 1st completion
constexpr double kChurnCompletionsPerSecond = 3600;  // after the ramp
constexpr double kServeBatchesPerSecond = 4.3;

std::uint64_t counter(const char* name) {
  return xscale::obs::metrics().counter(name).value();
}

double pct(double num, double den) { return den > 0 ? 100.0 * num / den : 0.0; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Re-derivation of the head-of-line blocking model Fabric::steady_rates
// applies on fabrics without congestion control (fabric.hpp documents it),
// in the same arithmetic order, so the replayed route + solve can be held to
// the steady_rates result bit for bit on Summit too.
void apply_hol(const net::Fabric& fab, const std::vector<std::vector<int>>& paths,
               std::vector<double>& rates) {
  const auto& topo = fab.topology();
  const auto& cap = fab.effective_capacities();
  std::vector<int> inj_count(topo.links().size(), 0);
  for (const auto& p : paths) ++inj_count[static_cast<std::size_t>(p.front())];
  std::vector<double> demand(topo.links().size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const auto inj = static_cast<std::size_t>(paths[f].front());
    const double desire = cap[inj] / std::max(1, inj_count[inj]);
    for (int l : paths[f]) demand[static_cast<std::size_t>(l)] += desire;
  }
  std::vector<double> sw(static_cast<std::size_t>(topo.num_switches()), 1.0);
  for (const auto& l : topo.links()) {
    if (l.src >= topo.num_switches()) continue;
    const double d = demand[static_cast<std::size_t>(l.id)];
    if (d > cap[static_cast<std::size_t>(l.id)]) {
      auto& f = sw[static_cast<std::size_t>(l.src)];
      f = std::min(f, cap[static_cast<std::size_t>(l.id)] / d);
    }
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    double factor = 1.0;
    for (int l : paths[f]) {
      const auto& lk = topo.link(l);
      if (lk.src < topo.num_switches())
        factor = std::min(factor, sw[static_cast<std::size_t>(lk.src)]);
    }
    rates[f] *= factor;
  }
}

// Per-layer attribution of steady-state problems: each problem is timed
// through Fabric::steady_rates, then replayed as its two halves — the
// route_into loop with Rng(cfg.seed) and the load vector, exactly as
// steady_rates routes, and max_min_rates_components over those paths.
struct SteadyReplay {
  std::uint64_t problems = 0, routed = 0, flows = 0, nnz = 0;
  std::uint64_t iterations = 0, parallel_scans = 0;
  double steady_s = 0, route_s = 0, solve_s = 0;
  std::uint64_t mismatches = 0;  // replay != steady_rates, or bad certificate
  std::string first_error;

  // Returns the steady_rates result.
  std::vector<double> run(const net::Fabric& fab, const net::PairList& pairs,
                          Tracer& tr) {
    std::vector<std::vector<int>> paths_out;
    std::vector<double> rates;
    double t0 = now_s();
    {
      Tracer::Scope s(tr, "fabric.steady_rates");
      rates = fab.steady_rates(pairs, nullptr, &paths_out);
    }
    double t1 = now_s();
    steady_s += t1 - t0;

    std::vector<std::vector<int>> paths;
    paths.reserve(pairs.size());
    {
      Tracer::Scope s(tr, "net.route");
      sim::Rng rng(fab.config().seed);
      std::vector<int> load(fab.topology().links().size(), 0);
      std::vector<int> p;
      for (const auto& [src, dst] : pairs) {
        fab.route_into(src, dst, rng, &load, p);
        for (int l : p) ++load[static_cast<std::size_t>(l)];
        paths.push_back(p);
      }
    }
    double t2 = now_s();
    route_s += t2 - t1;

    net::SolveStats ss;
    std::vector<double> solved;
    {
      Tracer::Scope s(tr, "net.solver");
      solved = net::max_min_rates_components(fab.effective_capacities(), paths,
                                             nullptr, &ss);
    }
    solve_s += now_s() - t2;

    ++problems;
    routed += pairs.size();
    flows += paths.size();
    for (const auto& p : paths) nnz += p.size();
    iterations += static_cast<std::uint64_t>(ss.iterations);
    parallel_scans += static_cast<std::uint64_t>(ss.parallel_scans);

    std::string err = check_maxmin(fab.effective_capacities(), paths, solved);
    if (err.empty() && paths != paths_out)
      err = "replayed routes differ from steady_rates routes";
    if (err.empty()) {
      if (!fab.config().congestion_control) apply_hol(fab, paths, solved);
      if (solved != rates) err = "route + solve differs from steady_rates";
    }
    if (!err.empty()) {
      ++mismatches;
      if (first_error.empty()) first_error = err;
    }
    return rates;
  }

  void add_metrics(std::map<std::string, double>& m) const {
    const double n = static_cast<double>(problems);
    m["route.ns_per_call"] = 1e9 * ratio(route_s, static_cast<double>(routed));
    m["solver.ms_per_solve"] = 1e3 * ratio(solve_s, n);
    m["solver.ns_per_iteration"] =
        1e9 * ratio(solve_s, static_cast<double>(iterations));
    m["solver.iterations_per_solve"] = ratio(static_cast<double>(iterations), n);
    m["solver.flows_per_solve"] = ratio(static_cast<double>(flows), n);
    m["solver.nnz_per_solve"] = ratio(static_cast<double>(nnz), n);
    m["solver.parallel_scan_pct"] = pct(static_cast<double>(parallel_scans),
                                        static_cast<double>(iterations));
    m["fabric.steady_rates_ms"] = 1e3 * ratio(steady_s, n);
    m["fabric.self_ms"] = 1e3 * ratio(steady_s - route_s - solve_s, n);
  }

  void print() const {
    std::printf(
        "  replay: %llu steady problems, %llu flows; steady %.3f s = route "
        "%.3f s + solve %.3f s + fabric self %.3f s; mismatches %llu%s%s\n",
        static_cast<unsigned long long>(problems),
        static_cast<unsigned long long>(flows), steady_s, route_s, solve_s,
        steady_s - route_s - solve_s,
        static_cast<unsigned long long>(mismatches),
        first_error.empty() ? "" : " — ", first_error.c_str());
  }
};

void add_flowsim_stats(const net::FlowSim::Stats& s,
                       std::map<std::string, double>& m) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double warm = d(s.warm_solves);
  m["flowsim.comp_avg"] = ratio(d(s.flows_solved), d(s.resolves));
  m["flowsim.component_pct"] = pct(d(s.component_solves), d(s.resolves));
  m["flowsim.warm_pct"] = pct(warm, d(s.resolves));
  m["flowsim.fallback_pct"] = pct(d(s.fallback_solves), d(s.resolves));
  m["flowsim.single_hit_pct"] = pct(d(s.warm_single_hits), warm);
  m["flowsim.memo_hit_pct"] = pct(d(s.warm_memo_hits), warm);
  m["flowsim.prefix_hit_pct"] = pct(d(s.warm_prefix_hits), warm);
  m["flowsim.frontier_per_warm"] = ratio(d(s.frontier_flows), warm);
  m["flowsim.iterations_per_resolve"] =
      ratio(d(s.solver_iterations), d(s.resolves));
  m["flowsim.writeback_applied_pct"] =
      pct(d(s.writeback_applied), d(s.writeback_applied + s.writeback_skipped));
  m["flowsim.minshare_full_pct"] =
      pct(d(s.minshare_full), d(s.minshare_incr + s.minshare_full));
}

void add_stats(net::FlowSim::Stats& a, const net::FlowSim::Stats& b) {
  a.resolves += b.resolves;
  a.full_solves += b.full_solves;
  a.fallback_solves += b.fallback_solves;
  a.warm_solves += b.warm_solves;
  a.warm_single_hits += b.warm_single_hits;
  a.warm_memo_hits += b.warm_memo_hits;
  a.warm_memo_stale += b.warm_memo_stale;
  a.warm_prefix_hits += b.warm_prefix_hits;
  a.component_solves += b.component_solves;
  a.flows_solved += b.flows_solved;
  a.frontier_flows += b.frontier_flows;
  a.solver_iterations += b.solver_iterations;
  a.bottleneck_links += b.bottleneck_links;
  a.parallel_scans += b.parallel_scans;
  a.largest_component = std::max(a.largest_component, b.largest_component);
  a.writeback_applied += b.writeback_applied;
  a.writeback_skipped += b.writeback_skipped;
  a.minshare_incr += b.minshare_incr;
  a.minshare_full += b.minshare_full;
}

// Compares the outputs against the reference recorded for this seed, if
// any. Each value outside rtol, and a length mismatch, is one failed op.
void check_reference(const Options& opt, const char* workload,
                     Outcome& out) {
  if (opt.refs == nullptr) return;
  const std::vector<double>* want = opt.refs->find(workload, opt.seed);
  if (want == nullptr) {
    std::printf("reference: none recorded for seed %llu (invariants only)\n",
                static_cast<unsigned long long>(opt.seed));
    return;
  }
  const auto& got = out.reference_values;
  std::size_t bad = got.size() == want->size() ? 0 : 1;
  for (std::size_t i = 0; i < std::min(got.size(), want->size()); ++i)
    if (!close_rel(got[i], (*want)[i])) ++bad;
  out.failed += bad;
  std::printf("reference: %zu values vs recorded, %zu outside rtol 1e-6\n",
              got.size(), bad);
}

void finish_trace(const Options& opt, const Tracer& tr) {
  std::printf("layer self time (span total / self, ms):\n");
  for (const auto& [name, ts] : tr.totals_ms())
    std::printf("  %-24s %12.3f %12.3f\n", name.c_str(), ts.first, ts.second);
  if (!opt.spans_path.empty()) {
    if (tr.write(opt.spans_path))
      std::printf("spans: %zu written to %s\n", tr.spans().size(),
                  opt.spans_path.c_str());
    else
      std::printf("spans: could not write %s\n", opt.spans_path.c_str());
  }
}

// `op_ms` holds one host time per op; the tail is the highest percentile
// with at least ten samples beyond it.
void add_e2e(Outcome& out, double setup_s, double wall_s, double ops_per_s,
             const std::vector<double>& op_ms) {
  const Tail tail = tail_percentile(op_ms);
  out.metrics["setup_s"] = setup_s;
  out.metrics["wall_s"] = wall_s;
  out.metrics["ops_per_s"] = ops_per_s;
  out.metrics["op_ms_p50"] = median(op_ms);
  out.metrics["op_ms_tail"] = tail.value;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  std::printf("op_ms_p50 %.4f ms, op_ms_tail p%g = %.4f ms over %zu samples\n",
              median(op_ms), tail.pct, tail.value, tail.samples);
}

}  // namespace

// ===================================================================
// paper_tables
// ===================================================================

std::vector<apps::SpeedupRow> paper_rows(std::uint64_t seed, int divisor) {
  auto rows = apps::table6_rows();
  for (auto& r : apps::table7_rows()) rows.push_back(std::move(r));
  sim::Rng rng(sim::splitmix64(seed ^ 0x7AB1E5ULL));
  std::map<std::pair<std::string, int>, int> scaled;
  const auto scale = [&](const std::string& machine, int paper) {
    auto [it, fresh] = scaled.try_emplace({machine, paper}, 0);
    if (fresh) {
      const int cap = machines::by_name(machine).value().compute_nodes;
      const double n = paper * rng.uniform(0.95, 1.05) / divisor;
      it->second = std::clamp(static_cast<int>(std::lround(n)), 2, cap);
    }
    return it->second;
  };
  for (auto& r : rows) {
    r.frontier_nodes = scale("Frontier", r.frontier_nodes);
    r.baseline_nodes = scale(r.baseline_machine, r.baseline_nodes);
  }
  return rows;
}

namespace {

struct PaperFabrics {
  net::Fabric frontier;
  net::Fabric summit;
};

PaperFabrics build_paper_fabrics() {
  return {machines::frontier().build_fabric(),
          machines::summit().build_fabric()};
}

// Seed-independent output checks: every speedup finite and positive.
std::uint64_t check_speedups(const std::vector<apps::SpeedupResult>& res) {
  std::uint64_t bad = 0;
  for (const auto& r : res)
    if (!std::isfinite(r.speedup) || !(r.speedup > 0)) ++bad;
  return bad;
}

// Whether run_app asks the MPI layer for the sustained bandwidth: it builds a
// SimComm for multi-node runs, and every communication term it adds reads
// the sustained per-rank rate.
bool uses_sustained_bw(const apps::AppSpec& spec, int nodes) {
  const auto& c = spec.comm;
  return nodes > 1 && (c.halo_neighbors > 0 || c.allreduce_bytes > 0 ||
                       c.alltoall_bytes_per_pair > 0 || c.allgather_bytes > 0);
}

// The sampled rank permutations SimComm::sustained_per_rank_bw solves, in
// the order it solves them.
std::vector<net::PairList> sustained_bw_problems(const mpi::SimComm& comm,
                                                 const mpi::CommConfig& cfg) {
  std::vector<net::PairList> out;
  sim::Rng rng(cfg.seed);
  for (int s = 0; s < cfg.bandwidth_samples; ++s) {
    const auto perm = net::random_permutation(comm.size(), rng);
    net::PairList pairs;
    pairs.reserve(perm.size());
    for (const auto& [r, peer] : perm) {
      if (comm.node_of_rank(r) == comm.node_of_rank(peer)) continue;
      pairs.emplace_back(comm.endpoint_of_rank(r), comm.endpoint_of_rank(peer));
    }
    if (!pairs.empty()) out.push_back(std::move(pairs));
  }
  return out;
}

// Traced-only attribution for paper_tables: a serial per-row pass through
// apps::run_app, then the MPI sustained-bandwidth solves of every distinct
// fabric-backed allocation, each replayed through steady_rates, routing and
// the solver.
void paper_attribution(const std::vector<apps::SpeedupRow>& rows,
                       const std::vector<apps::SpeedupResult>& parallel,
                       double parallel_wall, Tracer& tr, Outcome& out) {
  PaperFabrics fab = build_paper_fabrics();
  const machines::Machine frontier = machines::frontier();
  std::map<std::string, machines::Machine> baselines;

  struct Call {
    const machines::Machine* m;
    const net::Fabric* fabric;
    int nodes;
    bool bw;  // asks the MPI layer for the sustained bandwidth
    double seconds;
  };
  std::vector<Call> calls;
  double serial_total = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    tr.next_op();
    Tracer::Scope rs(tr, "apps.row");
    const double t_row = now_s();
    auto [it, fresh] = baselines.try_emplace(row.baseline_machine);
    if (fresh) it->second = machines::by_name(row.baseline_machine).value();
    const machines::Machine& base = it->second;
    const net::Fabric* base_fab =
        row.baseline_machine == "Summit" ? &fab.summit : nullptr;
    double harmonic = 0;
    for (const auto& spec : row.specs) {
      apps::AppRun fr, br;
      double t = now_s();
      {
        Tracer::Scope s(tr, "apps.run_app");
        fr = apps::run_app(spec, frontier, &fab.frontier, row.frontier_nodes);
      }
      calls.push_back({&frontier, &fab.frontier, row.frontier_nodes,
                       uses_sustained_bw(spec, row.frontier_nodes), now_s() - t});
      t = now_s();
      {
        Tracer::Scope s(tr, "apps.run_app");
        br = apps::run_app(spec, base, base_fab, row.baseline_nodes);
      }
      calls.push_back({&base, base_fab, row.baseline_nodes,
                       uses_sustained_bw(spec, row.baseline_nodes), now_s() - t});
      double sp = fr.fom / br.fom;
      if (row.per_gpu) sp = (fr.fom / fr.gpus) / (br.fom / br.gpus);
      harmonic += 1.0 / sp;
    }
    const double speedup = static_cast<double>(row.specs.size()) / harmonic;
    if (i < parallel.size() && speedup != parallel[i].speedup) {
      ++out.failed;
      std::printf("FAIL row %zu: serial speedup %.17g != run_rows %.17g\n", i,
                  speedup, parallel[i].speedup);
    }
    serial_total += now_s() - t_row;
  }

  // MPI layer: one SimComm per distinct (machine, allocation, ppn, seed);
  // repeats are counted but not re-measured.
  SteadyReplay replay;
  std::map<std::tuple<std::string, int, int>, double> bw_seconds;
  std::uint64_t solves = 0, repeat_solves = 0;
  double app_s = 0, app_self_s = 0, bw_s = 0, bw_steady_s = 0;
  std::size_t fabric_calls = 0;
  for (const Call& c : calls) {
    if (c.fabric == nullptr) continue;
    ++fabric_calls;
    app_s += c.seconds;
    if (!c.bw) {
      app_self_s += c.seconds;
      continue;
    }
    mpi::CommConfig cfg;
    cfg.ppn = std::max(1, c.m->node.gpus);
    std::vector<int> nodes(static_cast<std::size_t>(c.nodes));
    std::iota(nodes.begin(), nodes.end(), 0);
    const mpi::SimComm comm(*c.m, c.fabric, nodes, cfg);
    const auto problems = sustained_bw_problems(comm, cfg);
    solves += problems.size();
    const auto key = std::make_tuple(c.m->name, c.nodes, cfg.ppn);
    const auto seen = bw_seconds.find(key);
    if (seen != bw_seconds.end()) {
      repeat_solves += problems.size();
      app_self_s += c.seconds - seen->second;
      continue;
    }
    tr.next_op();
    double t = now_s();
    double bw = 0;
    {
      Tracer::Scope s(tr, "mpi.sustained_bw");
      bw = comm.sustained_per_rank_bw();
    }
    const double dt = now_s() - t;
    bw_seconds[key] = dt;
    bw_s += dt;
    app_self_s += c.seconds - dt;
    // Replay the same samples below the MPI layer; their mean must be the
    // bandwidth SimComm reported, bit for bit.
    const double steady_before = replay.steady_s;
    double total = 0;
    std::size_t count = 0;
    for (const auto& pairs : problems) {
      const auto rates = replay.run(*c.fabric, pairs, tr);
      for (double x : rates) total += x;
      count += rates.size();
    }
    bw_steady_s += replay.steady_s - steady_before;
    if (count > 0 && total / static_cast<double>(count) != bw) {
      ++out.failed;
      std::printf("FAIL %s %d nodes: replayed bandwidth != SimComm's\n",
                  c.m->name.c_str(), c.nodes);
    }
  }
  out.failed += replay.mismatches;
  replay.print();

  auto& m = out.metrics;
  replay.add_metrics(m);
  const double distinct = static_cast<double>(bw_seconds.size());
  m["mpi.sustained_bw_ms"] = 1e3 * ratio(bw_s, distinct);
  m["mpi.solves"] = static_cast<double>(solves);
  m["mpi.repeat_solve_pct"] =
      pct(static_cast<double>(repeat_solves), static_cast<double>(solves));
  m["apps.run_app_ms"] = 1e3 * ratio(app_s, static_cast<double>(fabric_calls));
  m["apps.self_ms"] = 1e3 * ratio(app_self_s, static_cast<double>(fabric_calls));
  m["apps.row_parallel_speedup"] = ratio(serial_total, parallel_wall);
  std::printf(
      "  apps: %zu fabric-backed run_app calls, %.3f s (self %.3f s); serial "
      "rows %.3f s vs run_rows %.3f s\n  mpi: %llu solves (%llu repeats) in "
      "%zu distinct allocations, sustained_bw %.3f s (self %.3f s)\n",
      fabric_calls, app_s, app_self_s, serial_total, parallel_wall,
      static_cast<unsigned long long>(solves),
      static_cast<unsigned long long>(repeat_solves), bw_seconds.size(), bw_s,
      bw_s - bw_steady_s);
}

}  // namespace

Outcome run_paper_tables(const Options& opt, int divisor) {
  Outcome out;
  const auto rows = paper_rows(opt.seed, divisor);
  std::printf("paper_tables: %zu rows at 1/%d scale, seed %llu; nodes:",
              rows.size(), divisor, static_cast<unsigned long long>(opt.seed));
  for (const auto& r : rows)
    std::printf(" %d/%d", r.frontier_nodes, r.baseline_nodes);
  std::printf("\n");

  Tracer tr(opt.trace);
  std::vector<double> setup;
  const auto timed_build = [&] {
    Tracer::Scope s(tr, "topo.build");
    const double t = now_s();
    PaperFabrics f = build_paper_fabrics();
    setup.push_back(now_s() - t);
    return f;
  };
  for (int i = 0; i + 1 < kSetups; ++i) timed_build();

  // Each regeneration runs on freshly built fabrics (cold route caches, as
  // every table run starts).
  std::vector<double> regen;
  std::vector<apps::SpeedupResult> first;
  std::uint64_t hits = 0, misses = 0;
  const auto regenerate = [&](bool traced) {
    PaperFabrics f = timed_build();
    const std::uint64_t h0 = counter("net.route_cache.hit");
    const std::uint64_t m0 = counter("net.route_cache.miss");
    tr.next_op();
    std::vector<apps::SpeedupResult> res;
    const double t = now_s();
    try {
      if (traced) {
        Tracer::Scope s(tr, "apps.run_rows");
        res = apps::run_rows(rows, &f.frontier, &f.summit);
      } else {
        res = apps::run_rows(rows, &f.frontier, &f.summit);
      }
    } catch (const std::exception& e) {
      std::printf("FAIL run_rows threw: %s\n", e.what());
    }
    regen.push_back(now_s() - t);
    hits += counter("net.route_cache.hit") - h0;
    misses += counter("net.route_cache.miss") - m0;
    out.attempted += rows.size();
    if (res.size() != rows.size()) {
      out.failed += rows.size();
      return;
    }
    out.failed += check_speedups(res);
    if (first.empty()) {
      first = res;
      return;
    }
    // Same rows, so every later regeneration must repeat the first bit for
    // bit; each row that does not is one failed op.
    for (std::size_t i = 0; i < res.size(); ++i)
      if (res[i].speedup != first[i].speedup) ++out.failed;
  };

  if (!opt.trace) {
    const int n = std::max(
        1, static_cast<int>(opt.seconds / kRegenerationSeconds));
    for (int i = 0; i < n; ++i) regenerate(false);
  } else {
    // Untraced then traced, on the same work; the difference is the
    // tracing overhead.
    regenerate(false);
    regenerate(true);
  }
  for (const auto& r : first) out.reference_values.push_back(r.speedup);
  check_reference(opt, "paper_tables", out);

  for (std::size_t i = 0; i < first.size(); ++i)
    std::printf("  %-16s speedup %10.4f (paper %.1f)\n",
                first[i].row.specs[0].name.c_str(), first[i].speedup,
                first[i].row.paper_achieved);
  std::printf("regenerations: %zu, wall (s):", regen.size());
  for (double r : regen) std::printf(" %.3f", r);
  std::printf("\n");

  if (!opt.trace) {
    // The op of this workload is one whole regeneration.
    std::vector<double> regen_ms;
    for (double r : regen) regen_ms.push_back(1e3 * r);
    const double wall = median(regen);
    add_e2e(out, median(setup), wall,
            ratio(static_cast<double>(rows.size()), wall), regen_ms);
    return out;
  }
  std::printf("tracing overhead: %.3f s (traced %.3f - untraced %.3f)\n",
              regen[1] - regen[0], regen[1], regen[0]);
  auto& m = out.metrics;
  m["topo.build_ms"] = 1e3 * median(setup);
  m["route.cache_hit_pct"] =
      pct(static_cast<double>(hits), static_cast<double>(hits + misses));
  paper_attribution(rows, first, regen[1], tr, out);
  finish_trace(opt, tr);
  return out;
}

// ===================================================================
// flow_churn
// ===================================================================

ChurnInputs churn_inputs(std::uint64_t seed,
                         const std::vector<int>& switch_of_node, int nics) {
  const int nodes = static_cast<int>(switch_of_node.size());
  if (nodes < 2 || nodes % 2 != 0 || nics < 1)
    throw std::invalid_argument("flow_churn needs an even node count >= 2");
  ChurnInputs in;
  in.nodes = nodes;
  in.nics = nics;
  sim::Rng rng(sim::splitmix64(seed ^ 0xC4A12ULL));
  const auto shuffle = [&](std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.index(i)]);
  };
  // Halo-like partners: a seeded perfect matching among the nodes of each
  // switch, so a partner exchange crosses no link another exchange uses;
  // nodes left over by odd switches are matched among themselves.
  std::map<int, std::vector<int>> by_switch;
  for (int n = 0; n < nodes; ++n)
    by_switch[switch_of_node[static_cast<std::size_t>(n)]].push_back(n);
  in.partner.assign(static_cast<std::size_t>(nodes), -1);
  const auto pair_up = [&](std::vector<int>& v) {
    shuffle(v);
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      in.partner[static_cast<std::size_t>(v[i])] = v[i + 1];
      in.partner[static_cast<std::size_t>(v[i + 1])] = v[i];
    }
  };
  std::vector<int> leftover;
  for (auto& [sw, v] : by_switch) {
    pair_up(v);
    if (v.size() % 2 != 0) leftover.push_back(v.back());
  }
  pair_up(leftover);
  constexpr int kBlock = 1024;
  for (int b = 0; b * kBlock < nodes; ++b) {
    const int size = std::min(kBlock, nodes - b * kBlock);
    in.sink.push_back(b * kBlock +
                      static_cast<int>(rng.index(static_cast<std::uint64_t>(size))));
  }
  // Exactly one chain in 64 (rounded down) checkpoints to its block's sink.
  const int chains = nodes * nics;
  std::vector<int> ids(static_cast<std::size_t>(chains));
  std::iota(ids.begin(), ids.end(), 0);
  const int ckpt = chains / 64;
  for (int i = 0; i < ckpt; ++i)
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(i) +
                  rng.index(static_cast<std::uint64_t>(chains - i))]);
  in.dst_node.resize(static_cast<std::size_t>(chains));
  for (int c = 0; c < chains; ++c)
    in.dst_node[static_cast<std::size_t>(c)] =
        in.partner[static_cast<std::size_t>(c / nics)];
  for (int i = 0; i < ckpt; ++i) {
    const int c = ids[static_cast<std::size_t>(i)];
    const int sink = in.sink[static_cast<std::size_t>(c / nics / kBlock)];
    if (sink != c / nics) in.dst_node[static_cast<std::size_t>(c)] = sink;
  }
  return in;
}

std::vector<int> node_switches(const machines::Machine& m,
                               const xscale::topo::Topology& topo, int nodes) {
  std::vector<int> sw(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    sw[static_cast<std::size_t>(n)] =
        topo.endpoint_switch(machines::node_endpoint(m, n, 0));
  return sw;
}

namespace {

// Flow sizes of chain `chain` come from its own seeded stream.
std::uint64_t churn_size_stream(std::uint64_t seed, int chain) {
  return sim::splitmix64(seed ^ (0x517E5ULL + static_cast<std::uint64_t>(chain)));
}

// Prefix of the completion sequence compared against the references.
constexpr std::uint64_t kChurnRefCompletions = 2000;

// Completions after the first that make up the measured churn phase; never
// fewer than the reference prefix.
std::uint64_t churn_budget(double seconds) {
  return std::max(kChurnRefCompletions,
                  static_cast<std::uint64_t>(std::max(
                      0.0, std::round((seconds - kChurnRampSeconds) *
                                      kChurnCompletionsPerSecond))));
}

// FlowSim's completion tie window in simulated seconds (flowsim.cpp
// completes every flow whose remaining bytes drain within it).
constexpr double kCompletionWindow = 1e-6;

struct ChurnPass {
  double wall = 0, ramp = 0, churn = 0;
  std::vector<double> op_ms;  // host gap between completion callbacks
  std::vector<double> start_us, complete_us;
  double active_sum = 0;
  std::size_t heap_max = 0;
  std::uint64_t completions = 0, started = 0, failed = 0;
  std::uint64_t events = 0, scheduled = 0, cancelled = 0;
  std::uint64_t hits = 0, misses = 0;  // route cache
  net::FlowSim::Stats stats;
  std::vector<double> reference;
};

// Closed loop in simulated time: each chain starts its next flow when the
// previous one completes, until `budget` completions after the first.
ChurnPass churn_pass(const Options& opt, const ChurnInputs& in,
                     const machines::Machine& m, const net::Fabric& fabric,
                     std::uint64_t budget, Tracer& tr) {
  ChurnPass p;
  sim::Engine eng;
  net::FlowSim fs(eng, fabric);
  const auto& topo = fabric.topology();
  const auto& cap = fabric.effective_capacities();
  const int chains = in.nodes * in.nics;

  struct Chain {
    int src = 0, dst = 0;
    bool live = false;
    double bytes = 0, t0 = 0;
    sim::Rng rng;
  };
  std::vector<Chain> ch(static_cast<std::size_t>(chains));
  for (int c = 0; c < chains; ++c) {
    Chain& x = ch[static_cast<std::size_t>(c)];
    x.src = machines::node_endpoint(m, c / in.nics, c % in.nics);
    x.dst = machines::node_endpoint(
        m, in.dst_node[static_cast<std::size_t>(c)], c % in.nics);
    x.rng = sim::Rng(churn_size_stream(opt.seed, c));
  }

  bool stopping = false;
  double t_begin = 0, t_prev = 0, start_prev = 0, ref_sum = 0;
  const std::uint64_t cancel0 = counter("sim.events_cancelled");
  const std::uint64_t hit0 = counter("net.route_cache.hit");
  const std::uint64_t miss0 = counter("net.route_cache.miss");
  std::function<void(int)> launch;
  const auto on_done = [&](int c) {
    const double t = now_s();
    Chain& x = ch[static_cast<std::size_t>(c)];
    if (!x.live) ++p.failed;  // a flow completed twice
    x.live = false;
    const double took = eng.now() - x.t0;
    // No flow may beat its NIC. FlowSim completes a flow once less than
    // 1 us of drain remains (remaining <= 1e-6 * rate, its tie window), so
    // the floor is bytes / injection capacity less that window.
    const double floor =
        x.bytes / cap[static_cast<std::size_t>(topo.injection_link(x.src))] -
        kCompletionWindow;
    if (took < floor * (1 - 1e-9)) ++p.failed;
    ++p.completions;
    if (p.completions <= kChurnRefCompletions) ref_sum += eng.now();
    if (p.completions == kChurnRefCompletions)
      p.reference = {eng.now(), ref_sum};
    if (p.completions == 1) {
      p.ramp = t - t_begin;
    } else {
      p.op_ms.push_back(1e3 * (t - t_prev));
      if (tr.enabled()) {
        p.complete_us.push_back(1e6 * (t - t_prev - start_prev));
        p.active_sum += static_cast<double>(fs.active_flows());
        p.heap_max = std::max(p.heap_max, eng.heap_size());
      }
    }
    t_prev = t;
    start_prev = 0;
    if (p.completions > budget) {
      stopping = true;
      eng.stop();
      return;
    }
    tr.next_op();
    Tracer::Scope s(tr, "flowsim.start");
    const double ts = now_s();
    launch(c);
    start_prev = now_s() - ts;
    if (tr.enabled()) p.start_us.push_back(1e6 * start_prev);
  };
  launch = [&](int c) {
    if (stopping) return;
    Chain& x = ch[static_cast<std::size_t>(c)];
    x.bytes = x.rng.uniform(1e7, 1e8);
    x.t0 = eng.now();
    x.live = true;
    ++p.started;
    fs.start(x.src, x.dst, x.bytes, [&on_done, c] { on_done(c); });
  };

  t_begin = now_s();
  {
    Tracer::Scope s(tr, "flow_churn.ramp_starts");
    for (int c = 0; c < chains; ++c) launch(c);
  }
  {
    Tracer::Scope s(tr, "flow_churn.engine_run");
    eng.run();
  }
  const double t_end = t_prev;
  p.wall = t_end - t_begin;
  p.churn = p.wall - p.ramp;
  if (p.started != p.completions + fs.active_flows()) ++p.failed;  // lost flow
  p.events = eng.events_executed();
  p.scheduled = eng.events_scheduled();
  p.cancelled = counter("sim.events_cancelled") - cancel0;
  p.hits = counter("net.route_cache.hit") - hit0;
  p.misses = counter("net.route_cache.miss") - miss0;
  p.stats = fs.stats();
  return p;
}

}  // namespace

Outcome run_flow_churn(const Options& opt, int nodes, std::uint64_t budget) {
  Outcome out;
  const machines::Machine m = machines::frontier();
  if (nodes == 0) nodes = m.compute_nodes;
  if (budget == 0) budget = churn_budget(opt.seconds);
  if (nodes > m.compute_nodes)
    throw std::invalid_argument("flow_churn: more nodes than the machine has");
  Tracer tr(opt.trace);
  Tracer off(false);
  std::vector<double> setup;
  const auto timed_build = [&] {
    Tracer::Scope s(tr, "topo.build");
    const double t = now_s();
    net::Fabric f = m.build_fabric();
    setup.push_back(now_s() - t);
    return f;
  };
  for (int i = 0; i + 1 < kSetups; ++i) timed_build();
  net::Fabric fabric = timed_build();
  const ChurnInputs in =
      churn_inputs(opt.seed, node_switches(m, fabric.topology(), nodes),
                   m.node.nics);
  std::printf("flow_churn: %d nodes x %d NICs = %d chains, budget %llu "
              "completions, seed %llu\n",
              nodes, in.nics, nodes * in.nics,
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(opt.seed));

  ChurnPass p = churn_pass(opt, in, m, fabric, budget, off);
  if (opt.trace) {
    net::Fabric traced_fabric = timed_build();
    ChurnPass q = churn_pass(opt, in, m, traced_fabric, budget, tr);
    std::printf("tracing overhead: %.3f s (traced %.3f - untraced %.3f)\n",
                q.wall - p.wall, q.wall, p.wall);
    p = std::move(q);
  }
  out.attempted = p.completions;
  out.failed = p.failed;
  out.reference_values = p.reference;
  check_reference(opt, "flow_churn", out);
  std::printf("ramp %.3f s, churn %.3f s for %llu completions; %llu flows "
              "started, %llu in flight at the stop\n",
              p.ramp, p.churn, static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(p.started),
              static_cast<unsigned long long>(p.started - p.completions));

  if (!opt.trace) {
    add_e2e(out, median(setup), p.wall,
            ratio(static_cast<double>(p.completions - 1), p.churn), p.op_ms);
    return out;
  }
  auto& mm = out.metrics;
  mm["topo.build_ms"] = 1e3 * median(setup);
  mm["flowsim.start_us_p50"] = median(p.start_us);
  mm["flowsim.start_us_p99"] = percentile(p.start_us, 99);
  mm["flowsim.complete_us_p50"] = median(p.complete_us);
  mm["flowsim.complete_us_p99"] = percentile(p.complete_us, 99);
  mm["flowsim.active_avg"] =
      ratio(p.active_sum, static_cast<double>(p.complete_us.size()));
  add_flowsim_stats(p.stats, mm);
  mm["engine.events_per_op"] = ratio(static_cast<double>(p.events),
                                     static_cast<double>(p.completions));
  mm["engine.cancel_pct"] = pct(static_cast<double>(p.cancelled),
                                static_cast<double>(p.scheduled));
  mm["engine.heap_max"] = static_cast<double>(p.heap_max);
  mm["route.cache_hit_pct"] = pct(static_cast<double>(p.hits),
                                  static_cast<double>(p.hits + p.misses));
  finish_trace(opt, tr);
  return out;
}

// ===================================================================
// serve_whatif
// ===================================================================

std::vector<std::vector<serve::Scenario>> serve_streams(
    std::uint64_t seed, const xscale::topo::Topology& topo,
    const machines::Machine& m, int sessions, int scenarios) {
  constexpr int kJobNodes = 16, kFlowsPerEndpoint = 8, kMaxBundles = 4;
  const int total = sessions * kJobNodes;
  if (total > m.compute_nodes)
    throw std::invalid_argument("serve_whatif: more job nodes than the machine");
  sim::Rng pick(sim::splitmix64(seed ^ 0x5E7E0ULL));
  std::vector<int> pool(static_cast<std::size_t>(m.compute_nodes));
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < total; ++i)
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(i) +
                   pick.index(static_cast<std::uint64_t>(m.compute_nodes - i))]);

  std::vector<std::vector<serve::Scenario>> out(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    sim::Rng rng = pick.substream(static_cast<std::uint64_t>(s) + 1);
    std::vector<int> eps;
    for (int k = 0; k < kJobNodes; ++k)
      for (int nic = 0; nic < m.node.nics; ++nic)
        eps.push_back(machines::node_endpoint(
            m, pool[static_cast<std::size_t>(s * kJobNodes + k)], nic));
    const int per_node = m.node.nics;
    serve::Scenario base;
    for (std::size_t e = 0; e < eps.size(); ++e)
      for (int f = 0; f < kFlowsPerEndpoint; ++f) {
        // A peer endpoint on another node of the job.
        const auto node = static_cast<int>(e) / per_node;
        int peer = static_cast<int>(
            rng.index(static_cast<std::uint64_t>(eps.size() - per_node)));
        if (peer / per_node >= node) peer += per_node;
        base.flows.push_back({eps[e], eps[static_cast<std::size_t>(peer)],
                              rng.uniform(1e6, 1e8), rng.uniform(0, 50e-6)});
      }
    std::set<int> groups;
    for (int e : eps) groups.insert(topo.group_of_endpoint(e));
    std::vector<std::pair<int, int>> bundles;
    for (int g : groups)
      for (int h : groups)
        if (g < h && topo.global_link(g, h) >= 0 && topo.global_link(h, g) >= 0)
          bundles.emplace_back(g, h);

    auto& stream = out[static_cast<std::size_t>(s)];
    for (int k = 0; k < scenarios; ++k) {
      if (k > 0 && rng.index(4) == 0) {
        stream.push_back(stream.back());  // re-ask the previous question
        continue;
      }
      serve::Scenario sc = base;
      auto pool_b = bundles;
      const int nb = std::min<int>(static_cast<int>(rng.index(kMaxBundles + 1)),
                                   static_cast<int>(pool_b.size()));
      for (int i = 0; i < nb; ++i) {
        const auto j = static_cast<std::size_t>(i) +
                       rng.index(static_cast<std::uint64_t>(pool_b.size() - i));
        std::swap(pool_b[static_cast<std::size_t>(i)], pool_b[j]);
        const auto [g, h] = pool_b[static_cast<std::size_t>(i)];
        sc.fail_links.push_back(topo.global_link(g, h));
        sc.fail_links.push_back(topo.global_link(h, g));
      }
      stream.push_back(std::move(sc));
    }
  }
  return out;
}

namespace {

constexpr int kSessions = 4;
constexpr int kServeRefScenarios = 16;  // per session

// Batches in the measured phase; never fewer than the reference prefix.
int serve_batches(double seconds) {
  return std::max(kServeRefScenarios,
                  static_cast<int>(std::lround(seconds * kServeBatchesPerSecond)));
}
constexpr int kSerialSpotCheck = 8;     // per session, untraced runs
constexpr int kSerialTraced = 60;       // per session, traced runs

// Failed ops of one scenario result: error sentinel, dropped flows, or a
// flow without a completion time.
std::uint64_t check_scenario(const serve::Scenario& sc,
                             const serve::ScenarioResult& r) {
  if (r.makespan_s < 0 || r.dropped != 0 ||
      r.completion_s.size() != sc.flows.size())
    return 1;
  for (double c : r.completion_s)
    if (!(c >= 0) || !std::isfinite(c)) return 1;
  return 0;
}

struct ServeBench {
  std::shared_ptr<const net::TopologySnapshot> snap;
  std::unique_ptr<serve::Batcher> batcher;
  std::vector<int> ids;
};

ServeBench serve_setup(const machines::Machine& m) {
  ServeBench b;
  b.snap = net::make_snapshot(machines::frontier_topology(), m.fabric_defaults);
  serve::BatcherConfig cfg;
  cfg.max_sessions = kSessions;
  b.batcher = std::make_unique<serve::Batcher>(b.snap, cfg);
  for (int s = 0; s < kSessions; ++s) b.ids.push_back(b.batcher->open_session());
  return b;
}

struct ServePass {
  double wall = 0;
  // Submit-to-result time of each batch: every scenario of a batch shares
  // it, so a batch is one latency sample, not four.
  std::vector<double> batch_ms;
  std::vector<std::vector<serve::ScenarioResult>> results;  // [session][k]
  std::uint64_t failed = 0, scenarios = 0;
  std::uint64_t events = 0, cancelled = 0, reroutes = 0, hits = 0, misses = 0;
};

ServePass serve_pass(ServeBench& b,
                     const std::vector<std::vector<serve::Scenario>>& streams,
                     int batches, Tracer& tr) {
  ServePass p;
  p.results.resize(streams.size());
  const std::uint64_t e0 = counter("sim.events_executed");
  const std::uint64_t c0 = counter("sim.events_cancelled");
  const std::uint64_t r0 = counter("net.route_cache.overlay_reroute");
  const std::uint64_t h0 = counter("net.route_cache.hit");
  const std::uint64_t m0 = counter("net.route_cache.miss");
  const double t0 = now_s();
  for (int k = 0; k < batches; ++k) {
    tr.next_op();
    Tracer::Scope span(tr, "serve.batch");
    const double t = now_s();
    for (std::size_t s = 0; s < streams.size(); ++s)
      if (!b.batcher->submit(b.ids[s], streams[s][static_cast<std::size_t>(k)]))
        ++p.failed;  // rejected: backpressure or a closed session
    std::vector<std::vector<serve::ScenarioResult>> res;
    {
      Tracer::Scope run(tr, "serve.run_batch");
      res = b.batcher->run_batch();
    }
    const double dt = now_s() - t;
    p.batch_ms.push_back(1e3 * dt);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      ++p.scenarios;
      const auto& rs = res[static_cast<std::size_t>(b.ids[s])];
      if (rs.size() != 1) {
        ++p.failed;
        p.results[s].emplace_back();
        continue;
      }
      p.failed += check_scenario(streams[s][static_cast<std::size_t>(k)], rs[0]);
      p.results[s].push_back(rs[0]);
    }
  }
  p.wall = now_s() - t0;
  p.events = counter("sim.events_executed") - e0;
  p.cancelled = counter("sim.events_cancelled") - c0;
  p.reroutes = counter("net.route_cache.overlay_reroute") - r0;
  p.hits = counter("net.route_cache.hit") - h0;
  p.misses = counter("net.route_cache.miss") - m0;
  return p;
}

// Replays the first `n` scenarios of every stream on its own fresh
// ScenarioSession, one after another on this thread; the batch results must
// match bit for bit. Returns per-scenario host times.
std::vector<double> serial_replay(const ServeBench& b,
                                  const std::vector<std::vector<serve::Scenario>>& streams,
                                  const ServePass& p, int n, Tracer& tr,
                                  std::uint64_t& mismatches) {
  std::vector<double> ms;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    serve::ScenarioSession session(b.snap, b.batcher->config().sim);
    for (int k = 0; k < n; ++k) {
      const auto& sc = streams[s][static_cast<std::size_t>(k)];
      tr.next_op();
      serve::ScenarioResult r;
      const double t = now_s();
      try {
        Tracer::Scope span(tr, "serve.scenario_serial");
        r = session.run(sc);
      } catch (const std::exception&) {
        r.makespan_s = -1;
      }
      ms.push_back(1e3 * (now_s() - t));
      const auto& want = p.results[s][static_cast<std::size_t>(k)];
      if (r.completion_s != want.completion_s || r.makespan_s != want.makespan_s ||
          r.dropped != want.dropped)
        ++mismatches;
    }
  }
  return ms;
}

}  // namespace

Outcome run_serve_whatif(const Options& opt, int batches) {
  Outcome out;
  const machines::Machine m = machines::frontier();
  if (batches == 0) batches = serve_batches(opt.seconds);

  Tracer tr(opt.trace);
  Tracer off(false);
  std::vector<double> setup;
  const auto timed_setup = [&] {
    Tracer::Scope s(tr, "topo.build");
    const double t = now_s();
    ServeBench b = serve_setup(m);
    setup.push_back(now_s() - t);
    return b;
  };
  for (int i = 0; i + 1 < kSetups; ++i) timed_setup();
  ServeBench bench = timed_setup();
  auto streams =
      serve_streams(opt.seed, bench.snap->topology(), m, kSessions, batches);
  if (opt.inject_invalid) streams[0][1].flows[0].dst = -1;
  std::size_t flows = 0;
  for (const auto& st : streams) flows += st.front().flows.size();
  std::printf("serve_whatif: %d sessions x %d scenarios, %zu flows per batch, "
              "seed %llu\n",
              kSessions, batches, flows, static_cast<unsigned long long>(opt.seed));

  ServePass p = serve_pass(bench, streams, batches, off);
  if (opt.trace) {
    ServeBench traced = timed_setup();
    ServePass q = serve_pass(traced, streams, batches, tr);
    std::printf("tracing overhead: %.3f s (traced %.3f - untraced %.3f)\n",
                q.wall - p.wall, q.wall, p.wall);
    p = std::move(q);
    bench = std::move(traced);
  }
  out.attempted = p.scenarios;
  out.failed = p.failed;
  const int nref = std::min(kServeRefScenarios, batches);
  for (const auto& rs : p.results)
    for (int k = 0; k < nref; ++k)
      out.reference_values.push_back(rs[static_cast<std::size_t>(k)].makespan_s);
  check_reference(opt, "serve_whatif", out);

  std::uint64_t mismatches = 0;
  const int nserial =
      std::min(opt.trace ? kSerialTraced : kSerialSpotCheck, batches);
  const auto serial_ms = serial_replay(bench, streams, p, nserial, tr, mismatches);
  out.failed += mismatches;
  std::printf("serial replay: %d scenarios per session, %llu differ from the "
              "batch results\n",
              nserial, static_cast<unsigned long long>(mismatches));

  if (!opt.trace) {
    add_e2e(out, median(setup), p.wall,
            ratio(static_cast<double>(p.scenarios), p.wall), p.batch_ms);
    return out;
  }
  auto& mm = out.metrics;
  const double n = static_cast<double>(p.scenarios);
  mm["topo.build_ms"] = 1e3 * median(setup);
  mm["route.cache_hit_pct"] =
      pct(static_cast<double>(p.hits), static_cast<double>(p.hits + p.misses));
  mm["route.overlay_reroutes"] = ratio(static_cast<double>(p.reroutes), n);
  net::FlowSim::Stats st;
  std::uint64_t epochs = 0;
  for (const auto& rs : p.results) {
    std::uint64_t prev = 0;
    for (const auto& r : rs) {
      add_stats(st, r.stats);
      epochs += r.capacity_epoch - prev;
      prev = r.capacity_epoch;
    }
  }
  add_flowsim_stats(st, mm);
  mm["engine.events_per_op"] = ratio(static_cast<double>(p.events), n);
  // Every scenario runs to completion, so each scheduled event was either
  // executed or cancelled.
  mm["engine.cancel_pct"] = pct(static_cast<double>(p.cancelled),
                                static_cast<double>(p.events + p.cancelled));
  mm["serve.batch_ms_p50"] = median(p.batch_ms);
  mm["serve.scenario_serial_ms_p50"] = median(serial_ms);
  // Serial time of the replayed prefix over the batch time of the same
  // prefix.
  mm["serve.parallel_speedup"] =
      ratio(std::accumulate(serial_ms.begin(), serial_ms.end(), 0.0),
            std::accumulate(p.batch_ms.begin(), p.batch_ms.begin() + nserial,
                            0.0));
  mm["serve.epoch_bumps_per_scenario"] = ratio(static_cast<double>(epochs), n);
  mm["serve.failed"] = static_cast<double>(p.failed);
  finish_trace(opt, tr);
  return out;
}

}  // namespace xbench
