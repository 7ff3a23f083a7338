// xbench: end-to-end benchmark of xscale.
//
//   xbench --workload paper_tables|flow_churn|serve_whatif --seed N
//          --seconds S --trace 0|1 [--refs FILE] [--spans FILE] [--record]
//   xbench --selftest
//
// An untraced run (--trace 0) prints the end-to-end metrics, a traced run
// (--trace 1) the per-layer ones; either way the last line of standard output
// is one JSON object {correct, attempted, failed, metrics}. --record also
// prints the outputs checked against the reference file as `REF` lines.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "sim/parallel.hpp"
#include "workloads.hpp"

namespace xbench {
int run_selftests();
}

namespace {

using xbench::MetricSpec;

const MetricSpec kEndToEnd = {
    {"setup_s", "s"},     {"wall_s", "s"},        {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},  {"op_ms_tail", "ms"},   {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer = {
    {"topo.build_ms", "ms"},
    {"route.ns_per_call", "ns"},
    {"route.cache_hit_pct", "%"},
    {"route.overlay_reroutes", "count"},
    {"solver.ms_per_solve", "ms"},
    {"solver.ns_per_iteration", "ns"},
    {"solver.iterations_per_solve", "count"},
    {"solver.flows_per_solve", "count"},
    {"solver.nnz_per_solve", "count"},
    {"solver.parallel_scan_pct", "%"},
    {"fabric.steady_rates_ms", "ms"},
    {"fabric.self_ms", "ms"},
    {"mpi.sustained_bw_ms", "ms"},
    {"mpi.solves", "count"},
    {"mpi.repeat_solve_pct", "%"},
    {"apps.run_app_ms", "ms"},
    {"apps.self_ms", "ms"},
    {"apps.row_parallel_speedup", "ratio"},
    {"flowsim.start_us_p50", "us"},
    {"flowsim.start_us_p99", "us"},
    {"flowsim.complete_us_p50", "us"},
    {"flowsim.complete_us_p99", "us"},
    {"flowsim.active_avg", "count"},
    {"flowsim.comp_avg", "count"},
    {"flowsim.component_pct", "%"},
    {"flowsim.warm_pct", "%"},
    {"flowsim.fallback_pct", "%"},
    {"flowsim.single_hit_pct", "%"},
    {"flowsim.memo_hit_pct", "%"},
    {"flowsim.prefix_hit_pct", "%"},
    {"flowsim.frontier_per_warm", "count"},
    {"flowsim.iterations_per_resolve", "count"},
    {"flowsim.writeback_applied_pct", "%"},
    {"flowsim.minshare_full_pct", "%"},
    {"engine.events_per_op", "count"},
    {"engine.cancel_pct", "%"},
    {"engine.heap_max", "count"},
    {"serve.batch_ms_p50", "ms"},
    {"serve.scenario_serial_ms_p50", "ms"},
    {"serve.parallel_speedup", "ratio"},
    {"serve.epoch_bumps_per_scenario", "count"},
    {"serve.failed", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: xbench --workload paper_tables|flow_churn|serve_whatif "
               "--seed N --seconds S --trace 0|1 [--refs FILE] [--spans FILE] "
               "[--record]\n       xbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, refs_path;
  xbench::Options opt;
  bool record = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      xscale::sim::set_thread_count(2);
      return xbench::run_selftests() == 0 ? 0 : 1;
    } else if (a == "--record") {
      record = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--refs") {
      refs_path = argv[++i];
    } else if (a == "--spans") {
      opt.spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds) return usage();

  xbench::References refs;
  if (!refs_path.empty()) {
    if (!refs.load(refs_path)) {
      std::fprintf(stderr, "xbench: cannot read references %s\n",
                   refs_path.c_str());
      return 2;
    }
    opt.refs = &refs;
  }

  // Half of a 4-CPU host: the numbers measure the program, not the scheduler.
  xscale::sim::set_thread_count(2);
  xbench::Outcome out;
  try {
    if (workload == "paper_tables")
      out = xbench::run_paper_tables(opt);
    else if (workload == "flow_churn")
      out = xbench::run_flow_churn(opt);
    else if (workload == "serve_whatif")
      out = xbench::run_serve_whatif(opt);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbench: %s failed outside any op: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }

  std::printf("failed_frac %.6g (%llu of %llu ops failed)\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (record)
    for (std::size_t i = 0; i < out.reference_values.size(); ++i)
      std::printf("REF %s %llu %zu %.17g\n", workload.c_str(),
                  static_cast<unsigned long long>(opt.seed), i,
                  out.reference_values[i]);
  if (out.attempted == 0) {  // a run that attempted nothing failed
    out.attempted = 1;
    out.failed = 1;
  }
  std::printf("%s\n", xbench::result_json(out, opt.trace ? kPerLayer : kEndToEnd)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
