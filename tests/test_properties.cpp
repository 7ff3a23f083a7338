// Parameterized property tests: invariants swept over configuration spaces
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <typeinfo>

#include "apps/catalog.hpp"
#include "core/xscale.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace xscale;

// ----------------------------------------------------- solver properties ----

struct SolverCase {
  std::uint64_t seed;
  int links;
  int flows;
  int max_path;
};

class SolverProperty : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverProperty, MaxMinInvariantsHold) {
  const auto c = GetParam();
  sim::Rng rng(c.seed);
  std::vector<double> cap(static_cast<std::size_t>(c.links));
  for (auto& x : cap) x = rng.uniform(0.5, 50.0);
  std::vector<std::vector<int>> paths(static_cast<std::size_t>(c.flows));
  for (auto& p : paths) {
    const int len = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(c.max_path)));
    std::set<int> s;
    while (static_cast<int>(s.size()) < len)
      s.insert(static_cast<int>(rng.index(static_cast<std::uint64_t>(c.links))));
    p.assign(s.begin(), s.end());
  }
  const auto r = net::max_min_rates(cap, paths);

  // 1. All rates strictly positive and finite.
  for (double x : r) {
    EXPECT_GT(x, 0.0);
    EXPECT_TRUE(std::isfinite(x));
  }
  // 2. No link oversubscribed.
  std::vector<double> load(cap.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f)
    for (int l : paths[f]) load[static_cast<std::size_t>(l)] += r[f];
  for (std::size_t l = 0; l < cap.size(); ++l)
    EXPECT_LE(load[l], cap[l] * (1 + 1e-6));
  // 3. Pareto: each flow crosses a saturated link (cannot be raised without
  //    lowering someone).
  for (std::size_t f = 0; f < paths.size(); ++f) {
    bool saturated = false;
    for (int l : paths[f])
      if (load[static_cast<std::size_t>(l)] >= cap[static_cast<std::size_t>(l)] * (1 - 1e-6))
        saturated = true;
    EXPECT_TRUE(saturated) << "flow " << f;
  }

  // 4. The component-parallel solver satisfies the same invariants and is
  //    bit-identical to the global serial solve at every thread count. Its
  //    stats are per-component sums, identical at every thread count, and
  //    every fired link was re-tested at least once (link_updates is summed
  //    with the other counters, not dropped when the problem splits).
  const int prev_threads = sim::thread_count();
  net::SolveStats first{};
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    net::SolveStats cs{};
    const auto rc = net::max_min_rates_components(cap, paths, nullptr, &cs);
    ASSERT_EQ(rc.size(), r.size());
    for (std::size_t f = 0; f < r.size(); ++f)
      EXPECT_EQ(rc[f], r[f]) << "flow " << f << " at threads=" << threads;
    EXPECT_GE(cs.link_updates, cs.bottleneck_links);
    EXPECT_GT(cs.bottleneck_links, 0);
    if (threads == 1) first = cs;
    EXPECT_EQ(cs.iterations, first.iterations);
    EXPECT_EQ(cs.bottleneck_links, first.bottleneck_links);
    EXPECT_EQ(cs.link_updates, first.link_updates);
  }
  sim::set_thread_count(prev_threads);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverProperty,
                         ::testing::Values(SolverCase{1, 8, 20, 3},
                                           SolverCase{2, 64, 200, 5},
                                           SolverCase{3, 256, 1000, 6},
                                           SolverCase{4, 16, 500, 2},
                                           SolverCase{5, 512, 100, 8}));

// -------------------------------------------------- dragonfly properties ----

class DragonflySize : public ::testing::TestWithParam<int> {};

TEST_P(DragonflySize, StructuralInvariants) {
  const int groups = GetParam();
  const auto t = topo::Topology::uniform_dragonfly(groups, {8, 8}, 2, 25e9, 1e-7);
  EXPECT_EQ(t.num_groups(), groups);
  EXPECT_EQ(t.num_switches(), groups * 8);
  EXPECT_EQ(t.num_endpoints(), groups * 64);
  // Every ordered group pair has a global link terminating at a gateway of
  // the source group, and capacities are symmetric.
  for (int g = 0; g < groups; ++g) {
    for (int h = 0; h < groups; ++h) {
      if (g == h) continue;
      const int l = t.global_link(g, h);
      ASSERT_GE(l, 0);
      EXPECT_EQ(t.group_of_switch(t.link(l).src), g);
      EXPECT_EQ(t.group_of_switch(t.link(l).dst), h);
      EXPECT_DOUBLE_EQ(t.link(l).capacity,
                       t.link(t.global_link(h, g)).capacity);
    }
    EXPECT_EQ(static_cast<int>(t.peer_groups(g).size()), groups - 1);
  }
}

TEST_P(DragonflySize, EveryEndpointPairRoutable) {
  const int groups = GetParam();
  net::Fabric f(topo::Topology::uniform_dragonfly(groups, {4, 4}, 1, 25e9, 1e-7),
                net::FabricConfig{});
  sim::Rng rng(17);
  const int eps = f.topology().num_endpoints();
  for (int trial = 0; trial < 50; ++trial) {
    const int a = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int b = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (b == a) b = (b + 1) % eps;
    const auto path = f.route(a, b, rng);
    ASSERT_GE(path.size(), 2u);
    // Path is connected: consecutive links share a vertex.
    EXPECT_EQ(f.topology().link(path.front()).src, eps > a ? a : a);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      EXPECT_EQ(f.topology().link(path[i]).dst,
                f.topology().link(path[i + 1]).src);
    EXPECT_EQ(f.topology().link(path.back()).dst, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DragonflySize, ::testing::Values(3, 5, 9, 16, 33));

// ------------------------------------------------------ STREAM properties ---

class StreamKernelCase
    : public ::testing::TestWithParam<std::tuple<int, hw::NpsMode>> {};

TEST_P(StreamKernelCase, NonTemporalNeverSlower) {
  const auto [ki, nps] = GetParam();
  const auto cpu = hw::trento();
  const auto& k = hw::kCpuStreamKernels[static_cast<std::size_t>(ki)];
  const double nt = cpu.ddr.stream_bandwidth(k, false, nps);
  const double t = cpu.ddr.stream_bandwidth(k, true, nps);
  EXPECT_GE(nt, t);
  EXPECT_LE(nt, cpu.ddr.peak_bandwidth());
  EXPECT_GT(t, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllNps, StreamKernelCase,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(hw::NpsMode::NPS1, hw::NpsMode::NPS2,
                                         hw::NpsMode::NPS4)));

// --------------------------------------------------------- GEMM properties --

class GemmPrecision : public ::testing::TestWithParam<hw::Precision> {};

TEST_P(GemmPrecision, BoundedAndSaturating) {
  const auto p = GetParam();
  const auto g = hw::mi250x_gcd();
  double prev = 0;
  for (int n = 128; n <= 32768; n *= 2) {
    const double a = g.gemm_achieved(p, n);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, g.matrix_peak(p));
    EXPECT_GE(a, prev);
    prev = a;
  }
  // Plateau within 5% of the calibrated asymptote.
  EXPECT_NEAR(g.gemm_achieved(p, 32768) / (g.matrix_peak(p) * g.gemm_asymptotic_eff(p)),
              1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, GemmPrecision,
                         ::testing::Values(hw::Precision::FP64, hw::Precision::FP32,
                                           hw::Precision::FP16));

// ------------------------------------------------------------ PFL sweep -----

class PflSplit : public ::testing::TestWithParam<double> {};

TEST_P(PflSplit, PartitionIsExactAndOrdered) {
  const double size = GetParam();
  const storage::Orion o;
  const auto s = o.pfl_split(size);
  EXPECT_DOUBLE_EQ(s.total(), size);          // nothing lost or duplicated
  EXPECT_LE(s.metadata, units::KiB(256));     // DoM bound
  EXPECT_LE(s.performance, units::MiB(8) - units::KiB(256));
  EXPECT_GE(s.metadata, 0.0);
  EXPECT_GE(s.performance, 0.0);
  EXPECT_GE(s.capacity, 0.0);
  // The capacity tier is used only when the performance extent is full.
  if (s.capacity > 0) {
    EXPECT_DOUBLE_EQ(s.performance, units::MiB(8) - units::KiB(256));
  }
}

INSTANTIATE_TEST_SUITE_P(FileSizes, PflSplit,
                         ::testing::Values(1.0, units::KiB(4), units::KiB(256),
                                           units::KiB(257), units::MiB(1),
                                           units::MiB(8), units::MiB(9),
                                           units::GiB(4), units::TB(1)));

// ----------------------------------------------------- scheduler stress -----

struct SchedCase {
  std::uint64_t seed;
  int total_nodes;
  int jobs;
};

class SchedulerStress : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerStress, NoOverlapNoLeakAllServed) {
  const auto c = GetParam();
  sched::Scheduler s(c.total_nodes, 128, c.seed);
  sim::Engine eng;
  sim::Rng rng(c.seed);
  std::vector<sched::JobRequest> jobs;
  for (int i = 0; i < c.jobs; ++i) {
    const int n = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(c.total_nodes)));
    jobs.push_back({n, rng.uniform(1.0, 100.0),
                    static_cast<sched::Placement>(rng.index(4))});
  }
  const auto rec = s.run_workload(eng, jobs);
  ASSERT_EQ(rec.size(), jobs.size());
  for (const auto& r : rec) {
    EXPECT_GE(r.start_time, 0.0);  // every job eventually runs
    EXPECT_EQ(static_cast<int>(r.nodes.size()), r.request.nodes);
  }
  // No node used by two jobs at overlapping times.
  for (std::size_t i = 0; i < rec.size(); ++i) {
    for (std::size_t j = i + 1; j < rec.size(); ++j) {
      const bool overlap_time = rec[i].start_time < rec[j].end_time - 1e-9 &&
                                rec[j].start_time < rec[i].end_time - 1e-9;
      if (!overlap_time) continue;
      std::set<int> a(rec[i].nodes.begin(), rec[i].nodes.end());
      for (int n : rec[j].nodes) EXPECT_EQ(a.count(n), 0u) << i << "," << j;
    }
  }
  EXPECT_EQ(s.free_nodes(), c.total_nodes);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SchedulerStress,
                         ::testing::Values(SchedCase{1, 256, 30},
                                           SchedCase{2, 512, 60},
                                           SchedCase{3, 1024, 40},
                                           SchedCase{4, 128, 80}));

// -------------------------------------------------------- app catalog sweep -

class AppSweep : public ::testing::TestWithParam<int> {};

TEST_P(AppSweep, WeakScalingAndMachineOrdering) {
  const auto all = apps::all_apps();
  const auto& spec = all[static_cast<std::size_t>(GetParam())];
  const auto frontier = machines::frontier();
  // FOM grows near-linearly with node count on Frontier.
  const auto a = apps::run_app(spec, frontier, nullptr, 32);
  const auto b = apps::run_app(spec, frontier, nullptr, 512);
  EXPECT_GT(b.fom, a.fom * 8.0) << spec.name;
  EXPECT_LE(b.fom, a.fom * 16.5) << spec.name;
  // A Frontier node outperforms a Titan node on every app.
  const auto f1 = apps::run_app(spec, frontier, nullptr, 1);
  const auto t1 = apps::run_app(spec, machines::titan(), nullptr, 1);
  EXPECT_GT(f1.fom, t1.fom) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppSweep, ::testing::Range(0, 13));

// ----------------------------------------------------- GPCNeT PPN sweep -----

class GpcnetPpn : public ::testing::TestWithParam<int> {};

TEST_P(GpcnetPpn, ImpactNeverBelowOneAndGrowsWithPpn) {
  machines::Machine m = machines::frontier();
  machines::FrontierFabricSpec spec;
  spec.compute_groups = 4;
  spec.storage_groups = 0;
  spec.management_groups = 0;
  m.topology_factory = [spec] { return machines::frontier_topology(spec); };
  m.total_nodes = 512;
  m.compute_nodes = 512;
  auto fabric = m.build_fabric();
  mpi::GpcnetConfig cfg;
  cfg.nodes = 512;
  cfg.ppn = GetParam();
  const auto r = mpi::run_gpcnet(m, fabric, cfg);
  for (double i : r.impact) {
    EXPECT_GE(i, 0.99);
    if (cfg.ppn <= 8) {
      EXPECT_LE(i, 1.1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ppn, GpcnetPpn, ::testing::Values(4, 8, 16, 32));

// ------------------------------------------------- route cache properties ---
// Invariants of minimal routing and of the fabric route cache (ISSUE 5): a
// route is non-empty and duplicate-free, a minimal dragonfly route crosses at
// most 3 switch-to-switch links of which at most 1 is global, and a cached
// route is identical to one computed by a cache-disabled fabric — before a
// failure, while a link is down, and after it is restored.

class RouteCacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(RouteCacheProperty, CachedEqualsFreshAndMinimalInvariantsHold) {
  const int groups = GetParam();
  const auto build = [&](bool cache) {
    net::FabricConfig cfg;
    cfg.routing = net::Routing::Minimal;
    cfg.route_cache = cache;
    return net::Fabric(
        topo::Topology::uniform_dragonfly(groups, {4, 4}, 1, 25e9, 180e-9), cfg);
  };
  net::Fabric cached = build(true);
  net::Fabric fresh = build(false);
  const auto& t = cached.topology();
  const int eps = t.num_endpoints();
  sim::Rng rng_a(99), rng_b(99);

  const auto check_pair = [&](int a, int b) {
    const auto pc = cached.route(a, b, rng_a);
    const auto pf = fresh.route(a, b, rng_b);
    ASSERT_EQ(pc, pf) << "src=" << a << " dst=" << b;
    ASSERT_FALSE(pc.empty());
    std::set<int> uniq(pc.begin(), pc.end());
    EXPECT_EQ(uniq.size(), pc.size()) << "duplicate link in route";
    int switch_hops = 0, global_hops = 0;
    for (int l : pc) {
      const auto kind = t.link(l).kind;
      if (kind == topo::LinkKind::Local || kind == topo::LinkKind::Global)
        ++switch_hops;
      if (kind == topo::LinkKind::Global) ++global_hops;
    }
    EXPECT_LE(switch_hops, 3);
    EXPECT_LE(global_hops, 1);
    EXPECT_EQ(t.link(pc.front()).src, a);
    EXPECT_EQ(t.link(pc.back()).dst, b);
  };

  // Deterministic sample plus a random sample of endpoint pairs; repeat each
  // pair so the second visit exercises the cache-hit path.
  sim::Rng pick(7);
  for (int trial = 0; trial < 120; ++trial) {
    int a, b;
    if (trial < 40) {  // same-switch and same-group pairs, then cross-group
      a = trial % eps;
      b = (a + 1 + trial / 2) % eps;
    } else {
      a = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      b = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
    }
    if (a == b) continue;
    check_pair(a, b);
    check_pair(a, b);
  }

  // Fail the global link on a cross-group minimal route: both fabrics must
  // agree on the detour while it is down and return to the original route
  // after restore (the cache is invalidated wholesale both times). Needs a
  // third group to detour through.
  if (groups < 3) return;
  const int a = 0, b = eps - 1;
  const auto before = cached.route(a, b, rng_a);
  int global_id = -1;
  for (int l : before)
    if (t.link(l).kind == topo::LinkKind::Global) global_id = l;
  ASSERT_GE(global_id, 0);
  cached.fail_link(global_id);
  fresh.fail_link(global_id);
  const auto during_c = cached.route(a, b, rng_a);
  const auto during_f = fresh.route(a, b, rng_b);
  EXPECT_EQ(during_c, during_f);
  EXPECT_NE(during_c, before);  // detours around the failed bundle
  for (int l : during_c) EXPECT_NE(l, global_id);
  cached.restore_link(global_id);
  fresh.restore_link(global_id);
  EXPECT_EQ(cached.route(a, b, rng_a), before);
  EXPECT_EQ(fresh.route(a, b, rng_b), before);

  // Terminal failures (ISSUE 7 satellite 2): failing an Injection/Ejection
  // link zeroes its capacity but never changes where packets are steered, so
  // it must NOT invalidate the switch-pair route table. Routes stay cached ==
  // fresh, identical to the pre-failure route, and re-querying already-cached
  // pairs takes zero new cache misses while the terminal link is down.
  const int eject_b = t.ejection_link(b);
  ASSERT_EQ(t.link(eject_b).kind, topo::LinkKind::Ejection);
  const auto misses = [] {
    return obs::metrics().counter("net.route_cache.miss").value();
  };
  const auto sweep = [&] {
    for (int trial = 0; trial < 40; ++trial) {
      const int p = trial % eps;
      const int q = (p + 1 + trial / 2) % eps;
      if (p == q) continue;
      check_pair(p, q);
    }
  };
  // The endpoint-pair table is direct-mapped, so colliding keys evict each
  // other deterministically; measure the sweep's steady-state miss cost and
  // require the terminal failure not to add to it.
  sweep();  // re-warm anything the random sample evicted earlier
  const auto m0 = misses();
  sweep();
  const auto steady_misses = misses() - m0;
  cached.fail_link(eject_b);
  fresh.fail_link(eject_b);
  const auto term_c = cached.route(a, b, rng_a);
  const auto term_f = fresh.route(a, b, rng_b);
  EXPECT_EQ(term_c, term_f);
  EXPECT_EQ(term_c, before);  // steering unchanged: only capacity is gone
  const auto m1 = misses();
  sweep();
  EXPECT_EQ(misses() - m1, steady_misses)
      << "terminal-link failure invalidated the route cache";
  cached.restore_link(eject_b);
  fresh.restore_link(eject_b);
  EXPECT_EQ(cached.route(a, b, rng_a), before);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouteCacheProperty, ::testing::Values(2, 4, 9, 17));

// Route-cache contract across topology families (ISSUE 9 satellite 1): the
// universal invariants — cached == fresh routes, non-empty, duplicate-free,
// correct terminal links, and terminal-link failures never invalidating the
// switch-pair route table — hold on every family; the hop-structure bound is
// family-specific (a dragonfly minimal route crosses at most 3 switch links
// of which at most 1 is global; a fat-tree route crosses exactly 0 or 2 Core
// links and nothing else; a full-coverage rotor route crosses at most 1
// Global link and no Core/Local ones).

struct RouteFamily {
  const char* name;
  topo::Topology (*make)();
};

topo::Topology route_family_dragonfly() {
  return topo::Topology::uniform_dragonfly(6, {4, 4}, 1, 25e9, 180e-9);
}
topo::Topology route_family_os_fat_tree() {
  return topo::Topology::oversubscribed_fat_tree(12, 8, 4.0, 25e9, 180e-9);
}
topo::Topology route_family_rotor() {
  // Full matching coverage (n-1) so every switch pair has a direct link.
  return topo::Topology::rotor(10, 8, 9, 250e-6, 0.9, 25e9, 180e-9);
}

class RouteCacheFamilyProperty
    : public ::testing::TestWithParam<RouteFamily> {};

TEST_P(RouteCacheFamilyProperty, UniversalInvariantsAndFamilyHopBounds) {
  const RouteFamily fam = GetParam();
  const auto build = [&](bool cache) {
    net::FabricConfig cfg;
    cfg.routing = net::Routing::Minimal;
    cfg.route_cache = cache;
    return net::Fabric(fam.make(), cfg);
  };
  net::Fabric cached = build(true);
  net::Fabric fresh = build(false);
  const auto& t = cached.topology();
  const int eps = t.num_endpoints();
  sim::Rng rng_a(99), rng_b(99);

  const auto check_pair = [&](int a, int b) {
    const auto pc = cached.route(a, b, rng_a);
    const auto pf = fresh.route(a, b, rng_b);
    ASSERT_EQ(pc, pf) << fam.name << " src=" << a << " dst=" << b;
    ASSERT_FALSE(pc.empty());
    std::set<int> uniq(pc.begin(), pc.end());
    EXPECT_EQ(uniq.size(), pc.size()) << fam.name << ": duplicate link";
    int local = 0, global = 0, core = 0;
    for (int l : pc) {
      switch (t.link(l).kind) {
        case topo::LinkKind::Local: ++local; break;
        case topo::LinkKind::Global: ++global; break;
        case topo::LinkKind::Core: ++core; break;
        default: break;
      }
    }
    if (t.is_fat_tree()) {
      EXPECT_EQ(local, 0) << fam.name;
      EXPECT_EQ(global, 0) << fam.name;
      EXPECT_TRUE(core == 0 || core == 2) << fam.name << " core=" << core;
      EXPECT_EQ(pc.size(), static_cast<std::size_t>(2 + core)) << fam.name;
    } else if (t.is_rotor()) {
      EXPECT_EQ(local, 0) << fam.name;
      EXPECT_EQ(core, 0) << fam.name;
      EXPECT_LE(global, 1) << fam.name;
      EXPECT_EQ(pc.size(), static_cast<std::size_t>(2 + global)) << fam.name;
    } else {
      EXPECT_LE(local + global, 3) << fam.name;
      EXPECT_LE(global, 1) << fam.name;
      EXPECT_EQ(core, 0) << fam.name;
    }
    EXPECT_EQ(t.link(pc.front()).src, a);
    EXPECT_EQ(t.link(pc.back()).dst, b);
  };

  // Deterministic same-switch/neighbour pairs, then a random cross sample;
  // each pair queried twice so the second visit rides the cache-hit path.
  sim::Rng pick(7);
  for (int trial = 0; trial < 120; ++trial) {
    int a, b;
    if (trial < 40) {
      a = trial % eps;
      b = (a + 1 + trial / 2) % eps;
    } else {
      a = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      b = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
    }
    if (a == b) continue;
    check_pair(a, b);
    check_pair(a, b);
  }

  // Terminal failures zero capacity but never steer packets elsewhere, on
  // every family: the switch-pair route table must survive untouched.
  const int a = 0, b = eps - 1;
  const auto before = cached.route(a, b, rng_a);
  const int eject_b = t.ejection_link(b);
  ASSERT_EQ(t.link(eject_b).kind, topo::LinkKind::Ejection);
  const auto misses = [] {
    return obs::metrics().counter("net.route_cache.miss").value();
  };
  const auto sweep = [&] {
    for (int trial = 0; trial < 40; ++trial) {
      const int p = trial % eps;
      const int q = (p + 1 + trial / 2) % eps;
      if (p == q) continue;
      check_pair(p, q);
    }
  };
  sweep();  // re-warm anything the random sample evicted
  const auto m0 = misses();
  sweep();
  const auto steady_misses = misses() - m0;
  cached.fail_link(eject_b);
  fresh.fail_link(eject_b);
  EXPECT_EQ(cached.route(a, b, rng_a), before);
  EXPECT_EQ(fresh.route(a, b, rng_b), before);
  const auto m1 = misses();
  sweep();
  EXPECT_EQ(misses() - m1, steady_misses)
      << fam.name << ": terminal-link failure invalidated the route cache";
  cached.restore_link(eject_b);
  fresh.restore_link(eject_b);
  EXPECT_EQ(cached.route(a, b, rng_a), before);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RouteCacheFamilyProperty,
    ::testing::Values(RouteFamily{"dragonfly", route_family_dragonfly},
                      RouteFamily{"os_fat_tree", route_family_os_fat_tree},
                      RouteFamily{"rotor", route_family_rotor}),
    [](const ::testing::TestParamInfo<RouteFamily>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------- CSR core vs oracle ----

// Bitwise double identity (EXPECT_EQ would equate +0.0 and -0.0).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Tie-heavy randomized differential. Small-integer and decimal capacities
// (zero included) and weights drawn from {0, tiny, fractional, integer} make
// exact share ties common. Most problems go further: capacities are summed
// from per-flow fair-share levels (often one level for every flow) in
// reverse flow order, so in exact arithmetic many links saturate together
// and in floating point their shares land ULPs apart, with the solver's
// subtractions cancelling to tiny residuals. That is where a link slips
// into or out of the current iteration after an earlier subtraction in the
// same sweep — the case the heap loop's position-ordered candidate queue
// exists for (DESIGN.md §9). Problem sizes cover every path through the
// CSR core: half cross at most 10 links (its scan loop only), seven in 16
// cross 64-255 (the scan phase spends kCsrScanBudget within a few
// iterations and the heap loop finishes the solve), one in 16 more than
// kCsrScanBudget (the heap loop from the first iteration). The CSR core
// must reproduce the scan-based reference exactly: rate bits, iteration
// count and fired-link count, or the same exception.
TEST(SolverDifferential, TieHeavyRandomProblemsMatchReferenceBitwise) {
  sim::Rng rng(0x7E57u);
  const double cap_menu[] = {0.0, 1.0, 2.0, 3.0, 0.1, 0.3, 0.7, 1.0 / 3.0, 0.9};
  // 1e-13 leaves a link crossed only by such flows below the reference's
  // 1e-12 retirement threshold from the start.
  const double weight_menu[] = {0.0, 1e-13, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.0, 1.5, 3.0};
  const double level_menu[] = {0.1, 0.3, 0.7, 1.0 / 3.0, 1.0};
  const std::int64_t budget = static_cast<std::int64_t>(net::kCsrScanBudget);
  int solved = 0, multi_tie = 0, switched = 0, switched_multi_tie = 0, heap_only = 0;
  for (int problem = 0; problem < 20000; ++problem) {
    const int size_class = problem % 16;
    const int nl = size_class < 8    ? 1 + static_cast<int>(rng.index(10))
                   : size_class < 15 ? 64 + static_cast<int>(rng.index(192))
                                     : static_cast<int>(budget) + 128 + static_cast<int>(rng.index(256));
    const int nf = size_class < 8 ? 1 + static_cast<int>(rng.index(24))
                                  : nl + static_cast<int>(rng.index(static_cast<std::uint64_t>(nl)));
    std::vector<double> cap(static_cast<std::size_t>(nl));
    for (auto& c : cap) c = cap_menu[rng.index(std::size(cap_menu))];
    const bool saturated = rng.index(4) != 0;
    std::vector<std::vector<int>> paths(static_cast<std::size_t>(nf));
    std::set<int> crossed;
    for (auto& p : paths) {
      const int len = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(std::min(nl, 4))));
      while (static_cast<int>(p.size()) < len) {
        const int l = static_cast<int>(rng.index(static_cast<std::uint64_t>(nl)));
        if (std::find(p.begin(), p.end(), l) == p.end()) p.push_back(l);
      }
      crossed.insert(p.begin(), p.end());
    }
    const auto npos = static_cast<std::int64_t>(crossed.size());
    std::vector<double> w(static_cast<std::size_t>(nf), 1.0);
    const bool weighted = rng.index(4) != 0;
    if (weighted)
      for (auto& x : w) x = weight_menu[rng.index(std::size(weight_menu))];
    const std::vector<double>* wp = weighted ? &w : nullptr;
    if (saturated) {
      const bool one_level = rng.index(2) == 0;
      const double shared = level_menu[rng.index(std::size(level_menu))];
      std::vector<double> level(static_cast<std::size_t>(nf));
      for (auto& x : level)
        x = one_level ? shared : level_menu[rng.index(std::size(level_menu))];
      std::fill(cap.begin(), cap.end(), 0.0);
      for (std::size_t f = paths.size(); f-- > 0;)
        for (int l : paths[f]) cap[static_cast<std::size_t>(l)] += level[f] * w[f];
    }

  net::SolveStats ref_stats{}, csr_stats{};
    std::vector<double> ref, csr;
    std::string ref_err = "none", csr_err = "none";
    try {
      ref = net::max_min_rates_reference(cap, paths, wp, &ref_stats);
    } catch (const std::exception& e) {
      ref_err = typeid(e).name();
    }
    try {
      csr = net::max_min_rates(cap, paths, wp, &csr_stats);
    } catch (const std::exception& e) {
      csr_err = typeid(e).name();
    }
    ASSERT_EQ(ref_err, csr_err) << "problem " << problem;
    if (ref_err != "none") continue;
    ++solved;
    const bool tie = ref_stats.bottleneck_links > ref_stats.iterations;
    if (tie) ++multi_tie;
    // The scan phase runs budget / npos iterations at most.
    if (npos > budget) {
      ++heap_only;
    } else if (ref_stats.iterations > budget / npos) {
      ++switched;
      if (tie) ++switched_multi_tie;
    }
    ASSERT_EQ(ref.size(), csr.size());
    for (std::size_t f = 0; f < ref.size(); ++f)
      ASSERT_EQ(bits(ref[f]), bits(csr[f]))
          << "problem " << problem << " flow " << f << ": " << ref[f]
          << " vs " << csr[f];
    ASSERT_EQ(ref_stats.iterations, csr_stats.iterations) << "problem " << problem;
    ASSERT_EQ(ref_stats.bottleneck_links, csr_stats.bottleneck_links)
        << "problem " << problem;
  }
  // The sweep really is tie-heavy and mostly solvable (all-zero-weight
  // problems throw on both sides), on every path through the CSR core.
  EXPECT_GT(solved, 11000);
  EXPECT_GT(multi_tie, 5000);
  EXPECT_GT(switched, 1500);
  EXPECT_GT(switched_multi_tie, 1500);
  EXPECT_GT(heap_only, 200);
}

// A link whose crossers weigh 1e-13 in total starts below the 1e-12
// retirement threshold. The reference erases it after its first iteration,
// so a flow crossing only that link is never frozen and the solve has no
// finite allocation. Both loops of the CSR core must agree: the scan loop's
// per-iteration erase and the heap loop's iteration-1 sweep.
TEST(SolverDifferential, TinyWeightLinkRetiresAfterTheFirstIteration) {
  for (const std::size_t n : {std::size_t{3}, net::kCsrScanBudget + 1}) {
    std::vector<double> cap(n + 1, 1.0);
    std::vector<std::vector<int>> paths;
    std::vector<double> w;
    for (std::size_t l = 0; l < n; ++l) {
      paths.push_back({static_cast<int>(l)});
      w.push_back(1.0 + static_cast<double>(l % 3));
    }
    paths.push_back({static_cast<int>(n)});
    w.push_back(1e-13);
    EXPECT_THROW(net::max_min_rates_reference(cap, paths, &w), std::runtime_error) << n;
    EXPECT_THROW(net::max_min_rates(cap, paths, &w), std::runtime_error) << n;
  }
}

// --------------------------------------- steady_rates == route + solve ----

// Head-of-line blocking as the fabric documents it (fabric.hpp): per
// switch, the worst drain ratio of any oversubscribed link it sources,
// applied to every flow crossing that switch. Re-derived here so the
// no-congestion-control fabric has an independent oracle.
void hol_reference(const net::Fabric& fabric,
                   const std::vector<std::vector<int>>& paths,
                   std::vector<double>& rates) {
  const auto& topo = fabric.topology();
  const auto& cap = fabric.effective_capacities();
  std::vector<int> inj_count(topo.links().size(), 0);
  for (const auto& p : paths) ++inj_count[static_cast<std::size_t>(p.front())];
  std::vector<double> demand(topo.links().size(), 0.0);
  for (const auto& p : paths) {
    const auto inj = static_cast<std::size_t>(p.front());
    const double desire = cap[inj] / std::max(1, inj_count[inj]);
    for (int l : p) demand[static_cast<std::size_t>(l)] += desire;
  }
  std::vector<double> factor_of(static_cast<std::size_t>(topo.num_switches()), 1.0);
  for (const auto& l : topo.links()) {
    if (l.src >= topo.num_switches()) continue;
    const auto id = static_cast<std::size_t>(l.id);
    if (demand[id] > cap[id])
      factor_of[static_cast<std::size_t>(l.src)] =
          std::min(factor_of[static_cast<std::size_t>(l.src)], cap[id] / demand[id]);
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    double factor = 1.0;
    for (int l : paths[f])
      if (topo.link(l).src < topo.num_switches())
        factor = std::min(factor, factor_of[static_cast<std::size_t>(topo.link(l).src)]);
    rates[f] *= factor;
  }
}

// The per-flow composition steady_rates replaced: route each pair (load
// fed to adaptive routing), append caps as virtual links, solve by
// component decomposition, then head-of-line blocking when CC is off.
std::vector<double> steady_reference(const net::Fabric& fabric,
                                     const net::PairList& pairs,
                                     const std::vector<double>* weights,
                                     const std::vector<double>* caps,
                                     std::vector<std::vector<int>>* paths_out) {
  sim::Rng rng(fabric.config().seed);
  std::vector<int> load(fabric.topology().links().size(), 0);
  std::vector<std::vector<int>> paths;
  for (const auto& [s, d] : pairs) {
    paths.push_back(fabric.route(s, d, rng, &load));
    for (int l : paths.back()) ++load[static_cast<std::size_t>(l)];
  }
  std::vector<double> cap = fabric.effective_capacities();
  auto capped = paths;
  if (caps)
    for (std::size_t f = 0; f < paths.size(); ++f)
      if ((*caps)[f] > 0) {
        capped[f].push_back(static_cast<int>(cap.size()));
        cap.push_back((*caps)[f]);
      }
  auto rates = net::max_min_rates_components(cap, capped, weights);
  if (!fabric.config().congestion_control) hol_reference(fabric, paths, rates);
  *paths_out = std::move(paths);
  return rates;
}

struct SteadyFamily {
  const char* name;
  net::Fabric (*make)();
};

net::Fabric steady_frontier() { return machines::frontier().build_fabric(); }
net::Fabric steady_summit() { return machines::summit().build_fabric(); }
net::Fabric steady_os_fat_tree() {
  return net::Fabric(topo::Topology::oversubscribed_fat_tree(16, 8, 4.0, 25e9, 180e-9),
                     net::FabricConfig{});
}
net::Fabric steady_rotor() {
  return net::Fabric(topo::Topology::rotor(12, 8, 11, 250e-6, 0.9, 25e9, 180e-9),
                     net::FabricConfig{});
}

class SteadyRatesFamily : public ::testing::TestWithParam<SteadyFamily> {};

TEST_P(SteadyRatesFamily, SingleGlobalSolveMatchesRoutePlusComponentSolve) {
  const net::Fabric fabric = GetParam().make();
  const int eps = fabric.topology().num_endpoints();
  sim::Rng rng(0x57EAD1u);
  // A sampled rank permutation (the SimComm shape), 4 ranks per endpoint.
  const int n = std::min(eps, 2048);
  net::PairList pairs;
  for (int rep = 0; rep < 4; ++rep)
    for (const auto& [a, b] : net::random_permutation(n, rng))
      if (a != b) pairs.emplace_back(a * (eps / n), b * (eps / n));
  // GPCNeT-shaped extras: weighted flows (ranks sharing a NIC), half of
  // them capped below line rate like message-rate-limited congestors.
  std::vector<double> weights(pairs.size()), caps(pairs.size());
  for (std::size_t f = 0; f < pairs.size(); ++f) {
    weights[f] = static_cast<double>(1 + rng.index(4));
    caps[f] = rng.index(2) == 0 ? 0.0 : 4.5e9 * weights[f];
  }
  for (const bool shaped : {false, true}) {
    SCOPED_TRACE(shaped ? "weights+caps" : "plain");
    const auto* wp = shaped ? &weights : nullptr;
    const auto* cp = shaped ? &caps : nullptr;
    std::vector<std::vector<int>> want_paths, got_paths;
    const auto want = steady_reference(fabric, pairs, wp, cp, &want_paths);
    const auto got = fabric.steady_rates(pairs, wp, &got_paths, cp);
    ASSERT_EQ(got_paths, want_paths) << GetParam().name;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < got.size(); ++f)
      ASSERT_EQ(bits(got[f]), bits(want[f]))
          << GetParam().name << " flow " << f << ": " << got[f] << " vs " << want[f];
    // Warm repeat (reused per-thread arena) is identical too.
    EXPECT_EQ(fabric.steady_rates(pairs, wp, nullptr, cp), got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SteadyRatesFamily,
    ::testing::Values(SteadyFamily{"frontier_adaptive", steady_frontier},
                      SteadyFamily{"summit_hol", steady_summit},
                      SteadyFamily{"os_fat_tree", steady_os_fat_tree},
                      SteadyFamily{"rotor", steady_rotor}),
    [](const ::testing::TestParamInfo<SteadyFamily>& info) {
      return std::string(info.param.name);
    });

TEST(SteadyRatesFamily, FamiliesExerciseTheirModels) {
  EXPECT_EQ(steady_frontier().config().routing, net::Routing::Adaptive);
  EXPECT_FALSE(steady_summit().config().congestion_control);
}

// ------------------------------------------ random-endpoint properties ----

// Random endpoint pairs on every topology family. In range: every route is
// a non-empty run of valid link ids from the source's injection link to the
// destination's ejection link, steady_rates equals route + component solve
// bit for bit and passes the max-min certificate (feasible, and each flow
// is the largest on some saturated link of its path; the HOL-scaled rates
// of a fabric without congestion control are checked for feasibility
// only). Out of range: route and steady_rates throw std::out_of_range and
// leave the fabric as it was, so the next valid call returns identical bits.
net::Fabric endpoint_fat_tree_1to1() {
  return net::Fabric(topo::Topology::oversubscribed_fat_tree(16, 8, 1.0, 25e9, 180e-9),
                     net::FabricConfig{});
}

class RandomEndpointProperty : public ::testing::TestWithParam<SteadyFamily> {};

TEST_P(RandomEndpointProperty, InRangeValidOutOfRangeThrowsAndLeavesFabric) {
  const net::Fabric fabric = GetParam().make();
  const auto& t = fabric.topology();
  const int eps = t.num_endpoints();
  const auto links = static_cast<int>(t.links().size());
  sim::Rng pick(0xE9D5u);
  const auto endpoint = [&] {
    return static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
  };

  sim::Rng route_rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const int a = endpoint();
    int b = endpoint();
    if (b == a) b = (a + 1) % eps;
    const auto path = fabric.route(a, b, route_rng);
    ASSERT_FALSE(path.empty());
    for (int l : path) {
      ASSERT_GE(l, 0);
      ASSERT_LT(l, links);
    }
    EXPECT_EQ(path.front(), t.injection_link(a));
    EXPECT_EQ(path.back(), t.ejection_link(b));
  }

  net::PairList pairs;
  for (int f = 0; f < 512; ++f) {
    const int a = endpoint();
    int b = endpoint();
    if (b == a) b = (a + 1) % eps;
    pairs.emplace_back(a, b);
  }
  std::vector<std::vector<int>> want_paths, got_paths;
  const auto want = steady_reference(fabric, pairs, nullptr, nullptr, &want_paths);
  const auto rates = fabric.steady_rates(pairs, nullptr, &got_paths);
  ASSERT_EQ(got_paths, want_paths);
  ASSERT_EQ(rates.size(), want.size());
  for (std::size_t f = 0; f < rates.size(); ++f)
    ASSERT_EQ(bits(rates[f]), bits(want[f])) << "flow " << f;

  const auto& cap = fabric.effective_capacities();
  std::vector<double> load(cap.size(), 0.0), top(cap.size(), 0.0);
  for (std::size_t f = 0; f < rates.size(); ++f) {
    EXPECT_TRUE(rates[f] >= 0.0 && std::isfinite(rates[f]));  // 0: dark link
    for (int l : got_paths[f]) {
      const auto lu = static_cast<std::size_t>(l);
      load[lu] += rates[f];
      top[lu] = std::max(top[lu], rates[f]);
    }
  }
  for (std::size_t l = 0; l < cap.size(); ++l)
    EXPECT_LE(load[l], cap[l] * (1 + 1e-9)) << "link " << l;
  if (fabric.config().congestion_control) {
    for (std::size_t f = 0; f < rates.size(); ++f) {
      bool bottleneck = false;
      for (int l : got_paths[f]) {
        const auto lu = static_cast<std::size_t>(l);
        bottleneck = bottleneck || (load[lu] >= cap[lu] * (1 - 1e-9) &&
                                    rates[f] >= top[lu] * (1 - 1e-12));
      }
      EXPECT_TRUE(bottleneck) << GetParam().name << " flow " << f;
    }
  }

  sim::Rng before_rng(5);
  const auto route_before = fabric.route(pairs[0].first, pairs[0].second, before_rng);
  for (const int bad : {-1, eps, eps + 1000, std::numeric_limits<int>::min()}) {
    sim::Rng r(3);
    EXPECT_THROW(fabric.route(bad, 0, r), std::out_of_range) << bad;
    EXPECT_THROW(fabric.route(0, bad, r), std::out_of_range) << bad;
    net::PairList poisoned = pairs;
    poisoned[pairs.size() / 2].second = bad;
    EXPECT_THROW(fabric.steady_rates(poisoned), std::out_of_range) << bad;
  }
  const auto again = fabric.steady_rates(pairs);
  ASSERT_EQ(again.size(), rates.size());
  for (std::size_t f = 0; f < rates.size(); ++f)
    ASSERT_EQ(bits(again[f]), bits(rates[f])) << "flow " << f;
  sim::Rng after_rng(5);
  EXPECT_EQ(fabric.route(pairs[0].first, pairs[0].second, after_rng), route_before);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RandomEndpointProperty,
    ::testing::Values(SteadyFamily{"frontier_dragonfly", steady_frontier},
                      SteadyFamily{"os_fat_tree_1to1", endpoint_fat_tree_1to1},
                      SteadyFamily{"os_fat_tree_4to1", steady_os_fat_tree},
                      SteadyFamily{"rotor", steady_rotor},
                      SteadyFamily{"summit_fat_tree", steady_summit}),
    [](const ::testing::TestParamInfo<SteadyFamily>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------ dense routing-table identity ----

// The hash-map lookups the dense tables replaced, rebuilt from the link
// list: switch-switch links by (src, dst) switch, global links by
// (src group, dst group).
struct MapLookups {
  std::map<std::pair<int, int>, int> sw, gl;
  explicit MapLookups(const topo::Topology& t) {
    for (const auto& l : t.links()) {
      if (l.kind == topo::LinkKind::Local || l.kind == topo::LinkKind::Core)
        sw[{l.src, l.dst}] = l.id;
      if (l.kind == topo::LinkKind::Global)
        gl[{t.group_of_switch(l.src), t.group_of_switch(l.dst)}] = l.id;
    }
  }
  int switch_link(int u, int v) const {
    const auto it = sw.find({u, v});
    return it == sw.end() ? -1 : it->second;
  }
  int global_link(int g, int h) const {
    const auto it = gl.find({g, h});
    return it == gl.end() ? -1 : it->second;
  }
};

// The map-based valiant path, transcribed from the implementation the
// dense tables replaced (same RNG draws in the same order).
std::vector<int> valiant_reference(const net::TopologySnapshot& snap,
                                   const MapLookups& maps, int src, int dst,
                                   sim::Rng& rng, const std::vector<char>* failed) {
  const auto& t = snap.topology();
  auto is_failed = [&](int l) {
    return failed != nullptr && (*failed)[static_cast<std::size_t>(l)] != 0;
  };
  auto gateway = [&](int g, int h) {
    const int id = maps.global_link(g, h);
    return id < 0 ? -1 : t.link(id).src;
  };
  std::vector<int> minimal;
  snap.minimal_path_into(src, dst, failed, minimal);
  const int sa = t.endpoint_switch(src), sb = t.endpoint_switch(dst);
  const int ga = t.group_of_switch(sa), gb = t.group_of_switch(sb);
  if (ga == gb) {
    if (sa == sb) return minimal;
    const auto [base, n] = t.group_switch_range(ga);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int cand = base + static_cast<int>(rng.index(static_cast<std::uint64_t>(n)));
      if (cand != sa && cand != sb)
        return {t.injection_link(src), maps.switch_link(sa, cand),
                maps.switch_link(cand, sb), t.ejection_link(dst)};
    }
    return minimal;
  }
  int gi = -1;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int cand = static_cast<int>(rng.index(static_cast<std::uint64_t>(t.num_groups())));
    const int l1 = maps.global_link(ga, cand), l2 = maps.global_link(cand, gb);
    if (cand != ga && cand != gb && l1 >= 0 && l2 >= 0 && !is_failed(l1) &&
        !is_failed(l2)) {
      gi = cand;
      break;
    }
  }
  if (gi < 0) return minimal;
  std::vector<int> path{t.injection_link(src)};
  if (sa != gateway(ga, gi)) path.push_back(maps.switch_link(sa, gateway(ga, gi)));
  path.push_back(maps.global_link(ga, gi));
  if (gateway(gi, ga) != gateway(gi, gb))
    path.push_back(maps.switch_link(gateway(gi, ga), gateway(gi, gb)));
  path.push_back(maps.global_link(gi, gb));
  if (gateway(gb, gi) != sb) path.push_back(maps.switch_link(gateway(gb, gi), sb));
  path.push_back(t.ejection_link(dst));
  return path;
}

TEST(DenseRoutingTables, ValiantPathMatchesMapBasedPath) {
  // A 12-group dragonfly with uneven bundle widths; failed bundles (below)
  // make the intermediate-group search take its reject branches too.
  auto topo = topo::Topology::dragonfly(
      std::vector<topo::GroupSpec>(12, {6, 4}),
      [](int g, int h) { return 1 + (g + h) % 3; }, 25e9, 180e-9);
  const MapLookups maps(topo);
  const auto snap = net::make_snapshot(std::move(topo));
  const auto& t = snap->topology();
  // Table identity over every switch pair and group pair.
  for (int u = 0; u < t.num_switches(); ++u)
    for (int v = 0; v < t.num_switches(); ++v)
      ASSERT_EQ(t.switch_link(u, v), maps.switch_link(u, v)) << u << "->" << v;
  for (int g = 0; g < t.num_groups(); ++g)
    for (int h = 0; h < t.num_groups(); ++h)
      ASSERT_EQ(t.global_link(g, h), maps.global_link(g, h)) << g << "->" << h;

  // Some failed global bundles exercise the failure-avoiding group search.
  std::vector<char> failed(snap->num_links(), 0);
  for (int g = 0; g < t.num_groups(); ++g)
    for (int h = 0; h < t.num_groups(); ++h)
      if (g != h && (g * 7 + h) % 4 == 0)
        failed[static_cast<std::size_t>(t.global_link(g, h))] = 1;
  const int eps = t.num_endpoints();
  std::vector<int> got;
  for (const std::vector<char>* view : {static_cast<const std::vector<char>*>(nullptr),
                                        static_cast<const std::vector<char>*>(&failed)}) {
    sim::Rng pick(31), rng_a(0x5A17u), rng_b(0x5A17u);
    for (int trial = 0; trial < 4000; ++trial) {
      const int a = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      const int b = static_cast<int>(pick.index(static_cast<std::uint64_t>(eps)));
      if (a == b) continue;
      snap->valiant_path_into(a, b, rng_a, view, got);
      ASSERT_EQ(got, valiant_reference(*snap, maps, a, b, rng_b, view))
          << "src=" << a << " dst=" << b;
    }
    // Both sides consumed the same draws.
    EXPECT_EQ(rng_a.index(1u << 30), rng_b.index(1u << 30));
  }
}

TEST(DenseRoutingTables, FatTreeAndRotorTablesMatchMaps) {
  for (auto t : {topo::Topology::oversubscribed_fat_tree(9, 4, 2.0, 25e9, 180e-9),
                 topo::Topology::rotor(7, 2, 4, 250e-6, 0.9, 25e9, 180e-9)}) {
    const MapLookups maps(t);
    for (int u = -1; u <= t.num_switches(); ++u)
      for (int v = -1; v <= t.num_switches(); ++v)
        ASSERT_EQ(t.switch_link(u, v), maps.switch_link(u, v)) << u << "->" << v;
    for (int g = -1; g <= t.num_groups(); ++g)
      for (int h = -1; h <= t.num_groups(); ++h)
        ASSERT_EQ(t.global_link(g, h), maps.global_link(g, h)) << g << "->" << h;
  }
}

}  // namespace
