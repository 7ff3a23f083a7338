// google-benchmark microbenchmarks of the simulator itself: event-engine
// throughput, max-min solver scaling, dragonfly routing, topology build.
// These back DESIGN.md's flow-level-simulation ablation (design decision 1).
#include <benchmark/benchmark.h>

#include "core/xscale.hpp"

using namespace xscale;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) eng.schedule_at(static_cast<double>(i % 97), [] {});
    eng.run();
    benchmark::DoNotOptimize(eng.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_MaxMinSolver(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  // At most five links per flow: small rows are compact problems, like the
  // per-component packs FlowSim solves.
  const int links = std::min(4096, 5 * flows);
  std::vector<double> cap(static_cast<std::size_t>(links), 25e9);
  std::vector<std::vector<int>> paths(static_cast<std::size_t>(flows));
  for (auto& p : paths)
    for (int h = 0; h < 5; ++h) p.push_back(static_cast<int>(rng.index(links)));
  for (auto& p : paths) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }
  net::SolveStats stats;
  for (auto _ : state) {
    auto rates = net::max_min_rates(cap, paths, nullptr, &stats);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * flows);
  // Deterministic work count of one solve (heap re-keys + candidate
  // re-tests), gateable on a noisy host where the wall clock is not.
  state.counters["link_updates/solve"] = static_cast<double>(stats.link_updates);
}
// Rows 4 and 16 (~12 and ~55 crossed links, 1 and 3 iterations) fit in
// kCsrScanBudget, so the CSR core scans them; the rows from 1,000 flows up
// cross more links than the budget and run its heap loop.
BENCHMARK(BM_MaxMinSolver)->Arg(4)->Arg(16)->Arg(1000)->Arg(10000)->Arg(40000);

void BM_FrontierTopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto t = machines::frontier_topology();
    benchmark::DoNotOptimize(t.num_endpoints());
  }
}
BENCHMARK(BM_FrontierTopologyBuild);

void BM_FullSystemShiftSolve(benchmark::State& state) {
  const auto m = machines::frontier();
  auto fabric = m.build_fabric();
  net::PairList pairs;
  for (int i = 0; i < m.total_nodes; ++i)
    pairs.emplace_back(machines::node_endpoint(m, i, 0),
                       machines::node_endpoint(m, (i + 5000) % m.total_nodes, 0));
  for (auto _ : state) {
    auto rates = fabric.steady_rates(pairs);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs.size()));
}
BENCHMARK(BM_FullSystemShiftSolve)->Unit(benchmark::kMillisecond);

// The paper-table hot path: SimComm::sustained_per_rank_bw prices an
// application row by solving a random rank permutation over its whole
// allocation. Here the allocation is every compute node of Frontier at 8
// ranks per node (one per GCD, 2 per NIC): state.range(0) ranks.
void BM_SteadyRates(benchmark::State& state) {
  const auto m = machines::frontier();
  auto fabric = m.build_fabric();
  const int ppn = 8;
  const int ranks = static_cast<int>(state.range(0));
  const int nics = m.node.nics;
  auto endpoint = [&](int rank) {
    return machines::node_endpoint(m, rank / ppn, (rank % ppn) % nics);
  };
  sim::Rng rng(0x5EED);
  net::PairList pairs;
  for (const auto& [r, peer] : net::random_permutation(ranks, rng))
    if (r / ppn != peer / ppn) pairs.emplace_back(endpoint(r), endpoint(peer));
  // Work count: the same routed problem through the core once.
  std::vector<std::vector<int>> paths;
  fabric.steady_rates(pairs, nullptr, &paths);
  net::SolveStats stats;
  net::max_min_rates(fabric.effective_capacities(), paths, nullptr, &stats);
  for (auto _ : state) {
    auto rates = fabric.steady_rates(pairs);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pairs.size()));
  state.counters["link_updates/solve"] = static_cast<double>(stats.link_updates);
  state.counters["iterations/solve"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_SteadyRates)
    ->Name("BM_SteadyRates/frontier_perm")
    ->Arg(9408 * 8)
    ->Unit(benchmark::kMillisecond);

void BM_GemmModel(benchmark::State& state) {
  const auto g = hw::mi250x_gcd();
  int n = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.gemm_achieved(hw::Precision::FP64, n));
    n = n % 16384 + 128;
  }
}
BENCHMARK(BM_GemmModel);

void BM_SchedulerAllocateRelease(benchmark::State& state) {
  sched::Scheduler s(9472, 128);
  for (auto _ : state) {
    auto a = s.allocate(512);
    benchmark::DoNotOptimize(a->nodes.data());
    s.release(*a);
  }
}
BENCHMARK(BM_SchedulerAllocateRelease);

}  // namespace

// Expanded BENCHMARK_MAIN() so the shared obs flags (--trace <file>,
// --metrics) are stripped before google-benchmark parses argv.
int main(int argc, char** argv) {
  xscale::obs::BenchObs obs(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
