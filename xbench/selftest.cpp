// Self-tests of the benchmark harness (`xbench --selftest`): tail-percentile
// selection, seeded input generation, the max-min certificate, failure
// counting, and the repeatability of the per-layer counts marked exact.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "machines/machine.hpp"
#include "net/patterns.hpp"
#include "net/solver.hpp"
#include "workloads.hpp"

namespace xbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_tail_percentile() {
  const auto ramp = [](int n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
  };
  Tail t = tail_percentile(ramp(1000));
  expect(t.pct == 99 && t.value == 990, "tail: 1000 samples -> p99 (10 beyond)");
  t = tail_percentile(ramp(999));
  expect(t.pct == 95 && t.value == 950, "tail: 999 samples -> p95 (p99 has 9 beyond)");
  t = tail_percentile(ramp(100000));
  expect(t.pct == 99 && t.value == 99000, "tail: p99 is the highest candidate");
  t = tail_percentile(ramp(20));
  expect(t.pct == 50 && t.value == 10, "tail: 20 samples -> p50");
  t = tail_percentile(ramp(19));
  expect(t.pct == 100 && t.value == 19, "tail: 19 samples -> max, labelled p100");
  expect(t.samples == 19, "tail: reports its sample count");
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  expect(median(shuffled) == 3 && percentile(shuffled, 80) == 4,
         "median and nearest-rank percentile on unsorted input");
}

void test_seeded_inputs() {
  const auto a = paper_rows(7, 4), b = paper_rows(7, 4), c = paper_rows(8, 4);
  bool same = a.size() == b.size(), differs = false, valid = true;
  for (std::size_t i = 0; i < a.size() && same; ++i) {
    same = a[i].frontier_nodes == b[i].frontier_nodes &&
           a[i].baseline_nodes == b[i].baseline_nodes;
    differs |= a[i].frontier_nodes != c[i].frontier_nodes;
    const int base =
        xscale::machines::by_name(a[i].baseline_machine).value().compute_nodes;
    valid &= a[i].frontier_nodes >= 2 &&
             a[i].frontier_nodes <= xscale::machines::frontier().compute_nodes &&
             a[i].baseline_nodes >= 2 && a[i].baseline_nodes <= base;
  }
  expect(same, "paper_rows: same seed, same rows");
  expect(differs, "paper_rows: another seed jitters the node counts");
  expect(valid, "paper_rows: node counts within every machine's compute_nodes");
  // Rows sharing a paper count keep sharing it (PIConGPU, Cholla, WarpX).
  expect(a[2].frontier_nodes == a[3].frontier_nodes &&
             a[3].frontier_nodes == a[6].frontier_nodes,
         "paper_rows: shared paper counts stay shared");

  const auto fm = xscale::machines::frontier();
  const auto ftopo = xscale::machines::frontier_topology();
  const auto sw = node_switches(fm, ftopo, 2048);
  const auto ca = churn_inputs(7, sw, 4), cb = churn_inputs(7, sw, 4);
  expect(ca.dst_node == cb.dst_node && ca.partner == cb.partner &&
             ca.sink == cb.sink,
         "churn_inputs: same seed, same chains");
  bool churn_valid = true;
  for (std::size_t c = 0; c < ca.dst_node.size(); ++c)
    churn_valid &= ca.dst_node[c] != static_cast<int>(c) / 4 &&
                   ca.dst_node[c] >= 0 && ca.dst_node[c] < 2048;
  expect(churn_valid, "churn_inputs: every chain targets another valid node");

  const auto& m = fm;
  const auto sa = serve_streams(7, ftopo, m, 4, 12);
  const auto sb = serve_streams(7, ftopo, m, 4, 12);
  bool serve_same = true;
  std::set<int> src_nodes;
  for (std::size_t s = 0; s < sa.size(); ++s)
    for (std::size_t k = 0; k < sa[s].size(); ++k) {
      serve_same &= sa[s][k].fail_links == sb[s][k].fail_links &&
                    sa[s][k].flows.size() == sb[s][k].flows.size();
      for (std::size_t f = 0; f < sa[s][k].flows.size() && serve_same; ++f)
        serve_same &= sa[s][k].flows[f].src == sb[s][k].flows[f].src &&
                      sa[s][k].flows[f].dst == sb[s][k].flows[f].dst &&
                      sa[s][k].flows[f].bytes == sb[s][k].flows[f].bytes &&
                      sa[s][k].flows[f].start_s == sb[s][k].flows[f].start_s;
    }
  for (const auto& st : sa)
    for (const auto& f : st.front().flows) src_nodes.insert(f.src / m.node.nics);
  expect(serve_same, "serve_streams: same seed, same scenarios");
  expect(src_nodes.size() == 64, "serve_streams: 4 jobs x 16 distinct nodes");
}

void test_certificate() {
  // Two flows share link 0 (capacity 10); flow 1 also crosses link 1 (4).
  const std::vector<double> cap = {10, 4};
  const std::vector<std::vector<int>> paths = {{0}, {0, 1}};
  const auto rates = xscale::net::max_min_rates(cap, paths);
  expect(rates[0] == 6 && rates[1] == 4 && check_maxmin(cap, paths, rates).empty(),
         "certificate: accepts the max-min solution");
  auto over = rates;
  over[1] *= 1.001;
  expect(!check_maxmin(cap, paths, over).empty(),
         "certificate: rejects a rate that overloads a link");
  auto under = rates;
  under[0] *= 0.999;
  expect(!check_maxmin(cap, paths, under).empty(),
         "certificate: rejects a flow left without a bottleneck");

  // A real fabric problem: a random permutation over 512 Frontier endpoints.
  const auto fab = xscale::machines::frontier().build_fabric();
  xscale::sim::Rng rng(3);
  const auto pairs = xscale::net::random_permutation(512, rng);
  std::vector<std::vector<int>> fpaths;
  const auto frates = fab.steady_rates(pairs, nullptr, &fpaths);
  expect(check_maxmin(fab.effective_capacities(), fpaths, frates).empty(),
         "certificate: accepts Fabric::steady_rates on Frontier");
  auto bumped = frates;
  bumped[17] *= 1.01;
  expect(!check_maxmin(fab.effective_capacities(), fpaths, bumped).empty(),
         "certificate: rejects a perturbed Frontier rate vector");
}

void test_failure_counting() {
  Options opt;
  opt.seed = 5;
  opt.inject_invalid = true;
  const Outcome o = run_serve_whatif(opt, 4);
  expect(o.attempted == 16 && o.failed == 1 && !o.correct(),
         "serve_whatif: an injected invalid scenario is counted as failed");
  opt.inject_invalid = false;
  const Outcome clean = run_serve_whatif(opt, 4);
  expect(clean.attempted == 16 && clean.failed == 0,
         "serve_whatif: the same stream without it has no failures");

  References refs;
  opt.refs = &refs;
  refs.set("serve_whatif", opt.seed, clean.reference_values);
  const Outcome same = run_serve_whatif(opt, 4);
  expect(same.failed == 0 && same.correct(),
         "references: outputs equal to their references pass");
  auto wrong = clean.reference_values;
  wrong[3] *= 1 + 1e-5;
  refs.set("serve_whatif", opt.seed, wrong);
  const Outcome off = run_serve_whatif(opt, 4);
  expect(off.failed == 1 && !off.correct(),
         "references: an output outside rtol 1e-6 is counted as failed");
  wrong.pop_back();
  refs.set("serve_whatif", opt.seed, wrong);
  const Outcome shorter = run_serve_whatif(opt, 4);
  expect(shorter.failed == 2,
         "references: a length mismatch is counted as failed");
}

// Per-layer metrics that must repeat bit for bit for one seed.
const char* const kExact[] = {
    "route.overlay_reroutes",     "solver.iterations_per_solve",
    "solver.flows_per_solve",     "solver.nnz_per_solve",
    "solver.parallel_scan_pct",   "mpi.solves",
    "mpi.repeat_solve_pct",       "flowsim.comp_avg",
    "flowsim.component_pct",      "flowsim.warm_pct",
    "flowsim.fallback_pct",       "flowsim.single_hit_pct",
    "flowsim.memo_hit_pct",       "flowsim.prefix_hit_pct",
    "flowsim.frontier_per_warm",  "flowsim.iterations_per_resolve",
    "flowsim.writeback_applied_pct", "flowsim.minshare_full_pct",
    "engine.events_per_op",       "engine.cancel_pct",
    "engine.heap_max",            "serve.epoch_bumps_per_scenario",
    "serve.failed",
};

void expect_exact(const char* workload, const Outcome& a, const Outcome& b) {
  bool same = a.reference_values == b.reference_values && a.failed == 0 &&
              b.failed == 0;
  std::string diff;
  for (const char* k : kExact) {
    const auto ia = a.metrics.find(k), ib = b.metrics.find(k);
    const bool ok = (ia == a.metrics.end()) == (ib == b.metrics.end()) &&
                    (ia == a.metrics.end() || ia->second == ib->second);
    if (!ok) diff += std::string(" ") + k;
    same &= ok;
  }
  expect(same, std::string(workload) + ": exact metrics and outputs repeat" +
                   (diff.empty() ? "" : " (differ:" + diff + ")"));
}

void test_exact_repeat() {
  Options opt;
  opt.seed = 11;
  opt.trace = true;
  expect_exact("paper_tables", run_paper_tables(opt, 64),
               run_paper_tables(opt, 64));
  expect_exact("flow_churn", run_flow_churn(opt, 512, 400),
               run_flow_churn(opt, 512, 400));
  expect_exact("serve_whatif", run_serve_whatif(opt, 4),
               run_serve_whatif(opt, 4));
}

}  // namespace

int run_selftests() {
  test_tail_percentile();
  test_seeded_inputs();
  test_certificate();
  test_failure_counting();
  test_exact_repeat();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace xbench
