// Tests for the incremental FlowSim rate solver: differential equivalence
// against the full max-min oracle on randomized churn, stall/drop handling of
// zero-rate flows over failed links, and event-heap boundedness under the
// cancel-heavy reschedule pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "machines/machine.hpp"
#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "net/rotor.hpp"
#include "net/simd.hpp"
#include "net/solver.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"

namespace {

using namespace xscale;

net::Fabric make_fabric(topo::Topology t, net::Routing r, bool cc) {
  net::FabricConfig cfg;
  cfg.routing = r;
  cfg.congestion_control = cc;
  cfg.nic_efficiency = 0.70;
  return net::Fabric(std::move(t), cfg);
}

net::Fabric small_dragonfly(net::Routing r, bool cc = true) {
  // 8 groups x 4 switches x 4 endpoints, 1 link per group pair.
  return make_fabric(topo::Topology::uniform_dragonfly(8, {4, 4}, 1, 25e9, 180e-9),
                     r, cc);
}

// The three topology families the differential suites sweep (ISSUE 9): the
// classic dragonfly, an oversubscribed fat-tree (contention at the leaf
// uplinks) and a time-sliced rotor whose inter-switch capacity rotates every
// slot. All sized to 128 endpoints so the same churn driver applies.
struct FabricFamily {
  const char* name;
  net::Fabric (*make)(net::Routing);
  // Rotor fabrics get a RotorSchedule attached so every run crosses live
  // slot boundaries (wholesale capacity churn mid-differential).
  bool rotor;
};

net::Fabric family_dragonfly(net::Routing r) { return small_dragonfly(r); }
net::Fabric family_os_fat_tree(net::Routing r) {
  // 16 leaves x 8 endpoints, 4:1 oversubscribed uplinks.
  return make_fabric(
      topo::Topology::oversubscribed_fat_tree(16, 8, 4.0, 25e9, 180e-9), r,
      true);
}
net::Fabric family_rotor(net::Routing r) {
  // 8 switches x 16 endpoints, all 7 matchings (full any-to-any coverage),
  // 250 us slots at 90% duty — hundreds of slot boundaries per churn run.
  return make_fabric(
      topo::Topology::rotor(8, 16, 7, 250e-6, 0.9, 25e9, 180e-9), r, true);
}

constexpr FabricFamily kFamilies[] = {
    {"dragonfly", family_dragonfly, false},
    {"os_fat_tree", family_os_fat_tree, false},
    {"rotor", family_rotor, true},
};

// Rebuild the full problem from the simulator's state and check every active
// flow's rate against the retained reference oracle, bit for bit. The CSR
// adapter (`max_min_rates`) is checked against the reference on the same
// input, so one call pins live rates == CSR core == original implementation.
int check_against_oracle(const net::FlowSim& fs, const net::Fabric& fabric) {
  std::vector<std::vector<int>> paths;
  std::vector<double> live_rates;
  fs.for_each_flow([&](std::uint64_t, const std::vector<int>& path, double,
                       double rate) {
    paths.push_back(path);
    live_rates.push_back(rate);
  });
  const auto oracle =
      net::max_min_rates_reference(fabric.effective_capacities(), paths);
  const auto csr = net::max_min_rates(fabric.effective_capacities(), paths);
  EXPECT_EQ(oracle.size(), live_rates.size());
  EXPECT_EQ(csr.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(live_rates[i], oracle[i]) << "flow index " << i;
    EXPECT_EQ(csr[i], oracle[i]) << "csr adapter, flow index " << i;
  }
  return static_cast<int>(oracle.size());
}

// Randomized churn over every topology family: a window of concurrent flows
// with staggered starts and completions; after every state change (start or
// completion) the incremental rates must equal the oracle's exactly. On the
// rotor family the run additionally crosses live slot boundaries, so the
// oracle (rebuilt from `effective_capacities()`) pins mid-slot rates too.
TEST(FlowSimIncremental, DifferentialOracleOnRandomChurn) {
  for (const FabricFamily& fam : kFamilies) {
    for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
      SCOPED_TRACE(fam.name);
      sim::Engine eng;
      auto fabric = fam.make(net::Routing::Adaptive);
      net::FlowSim fs(eng, fabric);
      std::optional<net::RotorSchedule> rotor;
      if (fam.rotor) {
        rotor.emplace(eng, fabric, &fs);
        rotor->start();
      }
      sim::Rng rng(seed);
      const int eps = fabric.topology().num_endpoints();
      int launched = 0, completed = 0, checks = 0;
      const int total = 400;

      std::function<void()> launch = [&] {
        if (launched >= total) return;
        ++launched;
        const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        if (dst == src) dst = (dst + 1) % eps;
        fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
          ++completed;
          checks += check_against_oracle(fs, fabric);
          // Replacement keeps a ~16-flow window alive until the budget drains.
          launch();
        });
        checks += check_against_oracle(fs, fabric);
      };
      for (int i = 0; i < 16; ++i) launch();
      eng.run();

      EXPECT_EQ(completed, total);
      EXPECT_EQ(fs.active_flows(), 0u);
      EXPECT_GT(checks, 2000);  // the differential actually exercised rates
      // The point of the machinery: restricted solves happened and dominated.
      EXPECT_GT(fs.stats().component_solves, 0u);
      if (fam.rotor) {
        EXPECT_GT(rotor->transitions(), 100u);
      }
    }
  }
}

// SIMD-vs-scalar bitwise differential (ISSUE 10): the same churn workload —
// every topology family, threads in {1, 2, 8} — must produce a bitwise
// identical trajectory (every completion instant and every live rate after
// every completion) whichever min-share scan kernel is dispatched. On
// builds/hosts without a vector kernel both runs resolve to the scalar
// kernel and the differential degenerates to a determinism check.
TEST(FlowSimIncremental, SimdAndScalarKernelTrajectoriesIdentical) {
  std::printf("min_share_scan dispatch: %s\n", net::min_share_scan_name());
  const int prev_threads = sim::thread_count();
  for (const FabricFamily& fam : kFamilies) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(fam.name) + ", threads " +
                   std::to_string(threads));
      sim::set_thread_count(threads);
      auto run = [&](net::ScanKernel k) {
        net::set_scan_kernel(k);
        std::vector<double> trace;
        sim::Engine eng;
        auto fabric = fam.make(net::Routing::Adaptive);
        net::FlowSim fs(eng, fabric);
        std::optional<net::RotorSchedule> rotor;
        if (fam.rotor) {
          rotor.emplace(eng, fabric, &fs);
          rotor->start();
        }
        sim::Rng rng(0x51D5u);
        const int eps = fabric.topology().num_endpoints();
        int launched = 0;
        const int total = 200;
        std::function<void()> launch = [&] {
          if (launched >= total) return;
          ++launched;
          const int src =
              static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
          int dst =
              static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
          if (dst == src) dst = (dst + 1) % eps;
          fs.start(src, dst, rng.uniform(1e6, 5e8), [&] {
            trace.push_back(eng.now());
            fs.for_each_flow(
                [&](std::uint64_t, const std::vector<int>&, double,
                    double rate) { trace.push_back(rate); });
            launch();
          });
        };
        for (int i = 0; i < 16; ++i) launch();
        eng.run();
        net::set_scan_kernel(net::ScanKernel::Auto);
        return trace;
      };
      const auto dispatched = run(net::ScanKernel::Auto);
      const auto scalar = run(net::ScanKernel::ForceScalar);
      ASSERT_EQ(dispatched.size(), scalar.size());
      ASSERT_GT(dispatched.size(), 1000u);  // the trajectory has real content
      for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], scalar[i]) << "trace index " << i;
    }
  }
  sim::set_thread_count(prev_threads);
}

// Same-destination ties: many equal flows complete at the same instant, so
// several removals collapse into one resolve whose dirty set spans multiple
// merged components.
TEST(FlowSimIncremental, DifferentialOracleOnTiedIncast) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  int done = 0;
  for (int s = 4; s < 12; ++s)
    fs.start(s, 2, 8.75e9, [&] {
      ++done;
      check_against_oracle(fs, fabric);
    });
  for (int s = 16; s < 20; ++s)  // independent group, own component
    fs.start(s, 20, 17.5e9, [&] {
      ++done;
      check_against_oracle(fs, fabric);
    });
  check_against_oracle(fs, fabric);
  eng.run();
  EXPECT_EQ(done, 12);
}

TEST(FlowSimIncremental, FullAndIncrementalCompletionTimesAgree) {
  auto run = [](bool incremental) {
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Adaptive);
    net::FlowSim fs(eng, fabric, {.incremental = incremental});
    sim::Rng rng(7);
    std::vector<double> done_times;
    for (int i = 0; i < 96; ++i) {
      const int src = static_cast<int>(rng.index(128));
      int dst = static_cast<int>(rng.index(128));
      if (dst == src) dst = (dst + 1) % 128;
      fs.start(src, dst, rng.uniform(1e6, 1e9),
               [&done_times, &eng] { done_times.push_back(eng.now()); });
    }
    eng.run();
    return done_times;
  };
  const auto inc = run(true);
  const auto full = run(false);
  ASSERT_EQ(inc.size(), full.size());
  for (std::size_t i = 0; i < inc.size(); ++i) EXPECT_EQ(inc[i], full[i]);
}

// ------------------------------------------------------------ rate floor ---

TEST(FlowSim, FlowOverDownedLinkStallsVisiblyInsteadOfTrickling) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  fabric.fail_link(fabric.topology().ejection_link(3));
  net::FlowSim fs(eng, fabric);
  bool done = false;
  fs.start(0, 3, 1e9, [&] { done = true; });
  eng.run();  // returns immediately: a stalled flow schedules nothing
  EXPECT_FALSE(done);  // the old 1 B/s floor "completed" this after ~31 sim-years
  EXPECT_EQ(fs.active_flows(), 1u);
  EXPECT_EQ(fs.stalled_flows(), 1u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(FlowSim, StalledFlowRecoversWhenLinkRestored) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  const int ej3 = fabric.topology().ejection_link(3);
  fabric.fail_link(ej3);
  net::FlowSim fs(eng, fabric);
  double t_victim = -1;
  fs.start(0, 3, 17.5e9, [&] { t_victim = eng.now(); });
  eng.run();
  ASSERT_EQ(fs.stalled_flows(), 1u);

  fabric.restore_link(ej3);
  // Capacity changes are picked up at the next resolve that dirties the
  // component; a new flow over the same destination does exactly that.
  double t_probe = -1;
  fs.start(1, 3, 17.5e9, [&] { t_probe = eng.now(); });
  EXPECT_EQ(fs.stalled_flows(), 0u);
  eng.run();
  EXPECT_NEAR(t_victim, 2.0, 1e-6);  // both shared the restored ejection link
  EXPECT_NEAR(t_probe, 2.0, 1e-6);
  EXPECT_EQ(fs.active_flows(), 0u);
}

TEST(FlowSim, DropPolicyFailsFastWithHook) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  fabric.fail_link(fabric.topology().ejection_link(3));
  net::FlowSim fs(eng, fabric, {.stall_policy = net::StallPolicy::Drop});
  std::vector<std::uint64_t> stalled_ids;
  fs.on_stall([&](std::uint64_t id) { stalled_ids.push_back(id); });
  bool done = false, other_done = false;
  const auto id = fs.start(0, 3, 1e9, [&] { done = true; });
  fs.start(4, 5, 17.5e9, [&] { other_done = true; });  // healthy flow
  eng.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(other_done);
  EXPECT_EQ(fs.active_flows(), 0u);
  EXPECT_EQ(fs.stalled_flows(), 0u);
  EXPECT_EQ(fs.dropped_flows(), 1u);
  ASSERT_EQ(stalled_ids.size(), 1u);
  EXPECT_EQ(stalled_ids[0], id);
}

// ------------------------------------------------------------- heap churn ---

// Acceptance criterion: across a million-operation FlowSim churn, the engine
// heap stays bounded — cancelled (stale) entries never exceed live ones.
TEST(FlowSim, EngineHeapBoundedAcrossMillionOpChurn) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Adaptive);
  net::FlowSim fs(eng, fabric);
  sim::Rng rng(99);
  const int eps = fabric.topology().num_endpoints();
  std::uint64_t completions = 0;

  std::function<void()> launch = [&] {
    const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
    if (dst == src) dst = (dst + 1) % eps;
    fs.start(src, dst, rng.uniform(1e5, 1e7), [&] {
      ++completions;
      if (completions % 1024 == 0) {
        ASSERT_LE(eng.cancelled_events(), eng.pending_events());
        ASSERT_LE(eng.heap_size(),
                  2 * eng.pending_events());  // heap = live + stale
      }
      // Keep churning until scheduled + executed events pass the million-op
      // mark (each completion costs ~2 schedules, 1 cancel, 1 execution).
      if (eng.events_scheduled() < 700000) launch();
    });
  };
  for (int i = 0; i < 12; ++i) launch();
  eng.run();

  const std::uint64_t ops = eng.events_scheduled() + eng.events_executed();
  EXPECT_GT(ops, 1000000u);
  EXPECT_LE(eng.cancelled_events(), eng.pending_events());
  EXPECT_GT(eng.compactions(), 0u);
  EXPECT_EQ(fs.active_flows(), 0u);
  // The incremental machinery was engaged, not bypassed, during the churn.
  EXPECT_GT(fs.stats().component_solves, 0u);
}

// ------------------------------------------------------------ warm start ---

// Restores the configured thread count after a test that sweeps it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { sim::set_thread_count(1); }
};

enum class Shape { Incast, AllToAll, Permutation };

// Deterministic churn of `total` flows in the given traffic shape with a
// ~24-flow replacement window; returns the completion-time sequence. The
// same seed drives every configuration, so any divergence between warm and
// cold (`incremental = false`, or across thread counts) shows up as a
// completion-time mismatch.
// On the rotor family every run carries a live RotorSchedule: warm and cold
// cross identical slot boundaries, so the bitwise contract covers wholesale
// slot-capacity churn as well.
std::vector<double> run_shape(const FabricFamily& fam, Shape shape,
                              bool incremental, int threads, int* oracle_checks,
                              bool incremental_writeback = true,
                              net::FlowSim::Stats* out_stats = nullptr) {
  sim::set_thread_count(threads);
  sim::Engine eng;
  auto fabric = fam.make(net::Routing::Minimal);
  // A low fallback fraction pushes even moderate merged components through
  // the warm whole-set path.
  net::FlowSim fs(eng, fabric,
                  {.incremental = incremental, .fallback_fraction = 0.25,
                   .incremental_writeback = incremental_writeback});
  std::optional<net::RotorSchedule> rotor;
  if (fam.rotor) {
    rotor.emplace(eng, fabric, &fs);
    rotor->start();
  }
  sim::Rng rng(4242);
  const int eps = fabric.topology().num_endpoints();
  const int total = 160;
  int launched = 0, completed = 0;
  std::vector<double> times;
  std::function<void()> launch = [&] {
    if (launched >= total) return;
    const int i = launched++;
    int src = 0, dst = 0;
    switch (shape) {
      case Shape::Incast:
        src = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(eps - 1)));
        dst = 0;
        break;
      case Shape::AllToAll:
        src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        if (dst == src) dst = (dst + 1) % eps;
        break;
      case Shape::Permutation:
        src = i % eps;
        dst = (src + 37) % eps;
        break;
    }
    fs.start(src, dst, rng.uniform(1e6, 2e8), [&] {
      ++completed;
      times.push_back(eng.now());
      if (oracle_checks && completed % 16 == 0)
        *oracle_checks += check_against_oracle(fs, fabric);
      launch();
    });
  };
  for (int i = 0; i < 24; ++i) launch();
  eng.run();
  EXPECT_EQ(completed, total) << fam.name;
  if (out_stats) *out_stats = fs.stats();
  if (incremental && shape == Shape::Incast) {
    // The cliff pattern must actually ride the warm path.
    EXPECT_GT(fs.stats().warm_solves, 0u) << fam.name;
    // On the static families it mostly rides the single-bottleneck closed
    // form (one ejection link is the unique minimum and every flow crosses
    // it). The rotor run usually holds stalled flows (dark matchings), which
    // the closed form correctly declines, so the claim is family-gated.
    if (!fam.rotor) {
      EXPECT_GT(fs.stats().warm_single_hits, 0u) << fam.name;
    }
  }
  return times;
}

// The tentpole contract: the warm-start whole-set solve is bit-identical to
// the cold full solve (`incremental = false`) and both to the reference
// oracle under incast, all-to-all and permutation churn, at every thread
// count — on every topology family (dragonfly, oversubscribed fat-tree,
// live-slotted rotor).
TEST(FlowSimWarmStart, MatchesColdAndOracleAcrossShapesAndThreads) {
  ThreadCountGuard guard;
  for (const FabricFamily& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    for (Shape shape : {Shape::Incast, Shape::AllToAll, Shape::Permutation}) {
      sim::set_thread_count(1);
      const auto baseline =
          run_shape(fam, shape, /*incremental=*/false, 1, nullptr);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        const auto times =
            run_shape(fam, shape, /*incremental=*/true, threads, &checks);
        ASSERT_EQ(times.size(), baseline.size());
        for (std::size_t i = 0; i < times.size(); ++i)
          EXPECT_EQ(times[i], baseline[i])
              << "shape=" << static_cast<int>(shape) << " threads=" << threads
              << " completion " << i;
        EXPECT_GT(checks, 0);
      }
    }
  }
}

// Regression (ISSUE 7 satellite 1): redundant fail/restore calls — failing an
// already-failed link, restoring a never-failed one — are no-ops that must not
// bump the capacity epoch (which would retire the single-bottleneck summary
// and the frozen-prefix metadata for nothing), and the rates stay exact.
TEST(FlowSimWarmStart, RedundantFailRestoreKeepsEpochAndRates) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  const int dead = fabric.topology().ejection_link(60);
  const int never_failed = fabric.topology().ejection_link(61);
  ASSERT_TRUE(fabric.fail_link(dead));
  const std::uint64_t epoch_after_fail = fabric.capacity_epoch();
  // Two incast groups with different fan-in (13 flows into endpoint 0, 11
  // into endpoint 1) make a multi-level solution, plus a recurring short
  // flow; every completion hammers the fabric with redundant fail/restore.
  for (int s = 4; s < 17; ++s) fs.start(s, 0, 1e12, [] {});
  for (int s = 17; s < 28; ++s) fs.start(s, 1, 1e12, [] {});
  const int cycles = 6;
  int done = 0;
  int checks = 0;
  std::function<void()> tick = [&] {
    fs.start(100, 0, 1e3, [&] {
      ++done;
      EXPECT_FALSE(fabric.fail_link(dead));             // already failed
      EXPECT_FALSE(fabric.restore_link(never_failed));  // never failed
      checks += check_against_oracle(fs, fabric);
      if (done < cycles) tick();
    });
  };
  tick();
  eng.run();
  EXPECT_EQ(done, cycles);
  EXPECT_GT(checks, 0);
  EXPECT_EQ(fabric.capacity_epoch(), epoch_after_fail);
  EXPECT_GT(fs.stats().warm_solves, 0u);
}

// Regression (ISSUE 7 satellite 4): a resolve that throws std::invalid_argument
// (non-finite / negative capacity) used to abandon `live_links_` mid-compaction,
// leaving the simulator permanently broken. The throw must be deferred until
// the invariant is restored: a failed resolve leaves the simulator re-solvable.
TEST(FlowSimWarmStart, FailedResolveLeavesSimulatorReSolvable) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  // Incast deep enough that resolves run the warm path with a populated
  // live-link set (the structure the bug corrupted).
  for (int s = 4; s < 14; ++s) fs.start(s, 0, 1e12, [] {});
  check_against_oracle(fs, fabric);
  const int eject0 = fabric.topology().ejection_link(0);
  ASSERT_TRUE(fabric.set_link_capacity(eject0, -2.0));
  EXPECT_THROW(fs.start(14, 0, 1e12, [] {}), std::invalid_argument);
  // Still broken the same way: the second attempt must throw too, not crash
  // or silently mis-solve on a corrupted live-link set.
  EXPECT_THROW(fs.start(15, 0, 1e12, [] {}), std::invalid_argument);
  ASSERT_TRUE(fabric.clear_link_capacity(eject0));
  fs.start(16, 0, 1e12, [] {});  // resolves cleanly again
  check_against_oracle(fs, fabric);
}

// The warm solve on a wide problem — one firing link freezing 2,100 flows
// in a set touching more than 4,000 links — pinned against the oracle at
// every thread count. Synthetic paths give the scale without a
// 4096-endpoint topology: every incast flow crosses the shared link 0 plus
// two private links.
TEST(FlowSimWarmStart, WideIncastMatchesOracleAcrossThreads) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    sim::set_thread_count(threads);
    sim::Engine eng;
    auto t = topo::Topology::uniform_dragonfly(16, {16, 4}, 1, 25e9, 180e-9);
    net::Fabric fabric(std::move(t), net::FabricConfig{});
    const std::size_t incast = 2100;
    const std::size_t extras = 50;
    ASSERT_GE(fabric.topology().links().size(), 1 + 2 * incast);
    net::FlowSim fs(eng, fabric);
    int done = 0;
    for (std::size_t f = 0; f < incast; ++f)
      fs.start_on_path({0, static_cast<int>(1 + 2 * f),
                        static_cast<int>(2 + 2 * f)},
                       1e9, [&] { ++done; });
    // Extra flows that do NOT cross link 0 (each rides one incast flow's
    // private link): with them present, link 0 no longer covers the whole
    // active set, so the single-bottleneck closed form declines and the
    // resolve runs the general warm loop, whose first iteration freezes
    // the 2100-flow batch.
    for (std::size_t g = 0; g < extras; ++g)
      fs.start_on_path({static_cast<int>(1 + 2 * g)}, 1e9, [&] { ++done; });
    check_against_oracle(fs, fabric);
    EXPECT_GT(fs.stats().warm_solves, 2000u);
    EXPECT_GT(fs.stats().warm_single_hits, 0u);  // pure-incast ramp-up
    EXPECT_GT(fs.stats().warm_solves,
              fs.stats().warm_single_hits + extras);  // general loop ran too
    eng.run();
    EXPECT_EQ(done, static_cast<int>(incast + extras));
  }
}

// Property: a removal-only delta whose removed flow froze *after* the first
// water-filling level replays the untouched frozen prefix instead of
// re-deriving it — here the level-1 incast victims are re-frozen wholesale
// and only the surviving level-2 flow is iterated.
TEST(FlowSimWarmStart, RemovalOnlyDeltaReplaysFrozenPrefix) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  net::FlowSim fs(eng, fabric);
  // B goes first: a group-2 source to an uncongested group-0 endpoint. It
  // shares
  // its injection and global links with the incast flows below but is alone
  // on its ejection link, so it freezes at level 2 — and completes long
  // before the level-1 incast victims.
  bool b_done = false;
  net::FlowSim::Stats after_add{};
  fs.start(33, 12, 1e9, [&] {
    b_done = true;
    const auto& st = fs.stats();
    EXPECT_EQ(st.warm_prefix_hits, after_add.warm_prefix_hits + 1);
    // All 16 level-1 survivors were replayed: only C (level 2) was
    // re-derived, so this resolve contributed exactly one frontier flow.
    EXPECT_EQ(st.frontier_flows, after_add.frontier_flows + 1);
    check_against_oracle(fs, fabric);
  });
  // C persists past B's completion and also freezes at level 2 (another
  // group-2 source alone on its group-0 ejection link). With C around, the
  // post-removal set is not a pure single-bottleneck incast, so the closed
  // form declines and the frozen-prefix replay is what must serve it.
  fs.start(40, 13, 1e12, [] {});
  // 16 incast flows pinned at level 1 by endpoint 0's ejection link; their
  // sources include group 2, connecting them to B's and C's links.
  for (int k = 0; k < 16; ++k) fs.start(20 + k, 0, 1e12, [] {});
  after_add = fs.stats();  // B's completion callback fires inside run()
  eng.run();
  EXPECT_TRUE(b_done);
}

// ---------------------------------------------------- rate write-back ---

// The ISSUE 8 differential: the change-list write-back (applied set) union
// the proven no-ops (skipped set) must equal the old whole-set write, bit
// for bit. Reference mode (`incremental_writeback = false`) routes every
// solver result through set_rate; incremental mode applies only the change
// list and coalesces same-instant uniform rates lazily. Identical completion
// sequences — at every thread count — prove the two writes are the same
// function of the solve, and the in-run oracle checks (which read rates
// through `for_each_flow`, i.e. through any pending uniform rate) pin the
// observable rates as well.
TEST(FlowSimWriteback, ChangeListEqualsWholeSetWriteBitwise) {
  ThreadCountGuard guard;
  for (const FabricFamily& fam : kFamilies) {
    SCOPED_TRACE(fam.name);
    for (Shape shape : {Shape::Incast, Shape::AllToAll, Shape::Permutation}) {
      sim::set_thread_count(1);
      net::FlowSim::Stats ref{};
      const auto baseline =
          run_shape(fam, shape, /*incremental=*/true, 1, nullptr,
                    /*incremental_writeback=*/false, &ref);
      // Reference mode hands every solved flow through the write-back, so the
      // counter pair partitions the whole-set write exactly.
      EXPECT_EQ(ref.writeback_applied + ref.writeback_skipped, ref.flows_solved);
      EXPECT_GT(ref.writeback_applied, 0u);
      for (int threads : {1, 2, 8}) {
        int checks = 0;
        net::FlowSim::Stats inc{};
        const auto times = run_shape(fam, shape, /*incremental=*/true, threads,
                                     &checks, /*incremental_writeback=*/true,
                                     &inc);
        ASSERT_EQ(times.size(), baseline.size());
        for (std::size_t i = 0; i < times.size(); ++i)
          EXPECT_EQ(times[i], baseline[i])
              << "shape=" << static_cast<int>(shape) << " threads=" << threads
              << " completion " << i;
        EXPECT_GT(checks, 0);
        EXPECT_GT(inc.writeback_applied, 0u);
        // Coalescing can only shrink the applied set (same-instant uniform
        // segments are zero-width; intermediate values never materialise).
        EXPECT_LE(inc.writeback_applied, ref.writeback_applied);
        if (shape == Shape::Incast && !fam.rotor) {
          // The tentpole claim at test scale: incast write-back is dominated
          // by skips, not applications. (Rotor slot boundaries legitimately
          // re-rate most of the set each transition, so the skip-dominance
          // claim is for the static families; the bitwise equality above
          // holds for all three.)
          EXPECT_LT(inc.writeback_applied, inc.writeback_skipped);
          EXPECT_GT(inc.minshare_incr, 0u);  // summary verdicts actually ran
        }
      }
    }
  }
}

// Satellite: stall and Drop transitions ride the applied set exactly once.
// A flow whose rate goes to zero is `applied` on the transition (set_rate
// does real work: accrual + stall bookkeeping) and `skipped` on every later
// resolve it sits through — never re-applied.
TEST(FlowSimWriteback, StallAndDropTransitionsAppliedExactlyOnce) {
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Minimal);
    fabric.fail_link(fabric.topology().ejection_link(3));
    // fallback_fraction 0 pushes every resolve through the warm whole-set
    // path, so the victim is re-presented to the write-back each time.
    net::FlowSim fs(eng, fabric,
                    {.fallback_fraction = 0.0, .stall_policy = policy});
    bool victim_done = false;
    fs.start(0, 3, 1e9, [&] { victim_done = true; });
    const auto s1 = fs.stats();
    // Exactly one application: the 0-rate transition (fresh flows hold rate
    // 0 but are not stalled, so the write is not a no-op).
    EXPECT_EQ(s1.writeback_applied, 1u);
    if (policy == net::StallPolicy::Drop) {
      EXPECT_EQ(fs.dropped_flows(), 1u);
      EXPECT_EQ(fs.active_flows(), 0u);
      continue;
    }
    ASSERT_EQ(fs.stalled_flows(), 1u);
    // A healthy flow forces another whole-set resolve with the stalled
    // victim still active: the victim must land in the skipped set.
    bool other_done = false;
    fs.start(4, 5, 17.5e9, [&] { other_done = true; });
    const auto s2 = fs.stats();
    EXPECT_EQ(s2.writeback_applied, s1.writeback_applied + 1);  // healthy only
    EXPECT_GE(s2.writeback_skipped, s1.writeback_skipped + 1);  // victim skips
    eng.run();
    EXPECT_TRUE(other_done);
    EXPECT_FALSE(victim_done);
    EXPECT_EQ(fs.stalled_flows(), 1u);
  }
}

// Satellite: the full stall/restore/drop churn stays bitwise identical
// across write-back modes — mid-run capacity failures and recoveries
// (which invalidate the min-share summary and force eager paths) produce
// the same completion sequence whether the write-back is change-list or
// whole-set.
TEST(FlowSimWriteback, StallRestoreDropChurnBitwiseAcrossModes) {
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop}) {
    auto run = [&](bool incw) {
      sim::Engine eng;
      auto fabric = small_dragonfly(net::Routing::Minimal);
      const int ej3 = fabric.topology().ejection_link(3);
      net::FlowSim fs(eng, fabric,
                      {.fallback_fraction = 0.25,
                       .incremental_writeback = incw,
                       .stall_policy = policy});
      std::vector<double> times;
      int completed = 0, launched = 0;
      const int total = 96;
      sim::Rng rng(777);
      std::function<void()> launch = [&] {
        if (launched >= total) return;
        const int i = launched++;
        // Mostly incast into endpoint 0 (the warm fast path), with every
        // sixth flow aimed at the failure-prone endpoint 3.
        const int src =
            1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(30)));
        const int dst = (i % 6 == 5) ? 3 : 0;
        fs.start(src == dst ? src + 1 : src, dst, rng.uniform(1e6, 2e8), [&] {
          ++completed;
          times.push_back(eng.now());
          // Fail mid-churn, restore later: stalls (or drops) happen while
          // the incast fast path is hot.
          if (completed == 20) fabric.fail_link(ej3);
          if (completed == 48) fabric.restore_link(ej3);
          launch();
        });
      };
      for (int i = 0; i < 16; ++i) launch();
      eng.run();
      return std::make_pair(times, fs.stats());
    };
    const auto [ref_times, ref_stats] = run(false);
    const auto [inc_times, inc_stats] = run(true);
    ASSERT_EQ(inc_times.size(), ref_times.size());
    for (std::size_t i = 0; i < inc_times.size(); ++i)
      EXPECT_EQ(inc_times[i], ref_times[i])
          << "policy=" << static_cast<int>(policy) << " completion " << i;
    EXPECT_EQ(ref_stats.writeback_applied + ref_stats.writeback_skipped,
              ref_stats.flows_solved);
    EXPECT_LE(inc_stats.writeback_applied, ref_stats.writeback_applied);
  }
}

// ------------------------------------------------------ completion index ---

// Brute-force horizon oracle: after every state change the next completion
// must fire at exactly now + max(min remaining/rate, 0) over the active
// flows, and complete exactly the flows whose drain predicate holds at that
// instant, in ascending id order. Both are rebuilt from `for_each_flow` /
// `for_each_flow_at`, i.e. from scratch over every flow, independent of the
// completion index.
class HorizonOracle {
 public:
  HorizonOracle(sim::Engine& eng, net::FlowSim& fs) : eng_(eng), fs_(fs) {}

  // Call after every start, capacity change or fail/restore.
  void observe() {
    const double now = eng_.now();
    double h = std::numeric_limits<double>::infinity();
    fs_.for_each_flow([&](std::uint64_t, const std::vector<int>&, double rem,
                          double rate) {
      if (rate > 0.0) h = std::min(h, rem / rate);
    });
    expect_ids_.clear();
    has_expect_ = std::isfinite(h);
    if (!has_expect_) return;
    expect_t_ = now + std::max(h, 0.0);
    fs_.for_each_flow_at(expect_t_, [&](std::uint64_t id,
                                        const std::vector<int>&, double rem,
                                        double rate) {
      if (rate > 0.0 && rem <= 1e-6 * std::max(1.0, rate))
        expect_ids_.push_back(id);
    });
  }

  // Call first thing in every completion callback.
  void on_done(std::uint64_t id) {
    if (eng_.events_executed() != event_) {
      finish_event();
      event_ = eng_.events_executed();
      ASSERT_TRUE(has_expect_) << "completion fired with no finite horizon";
      EXPECT_EQ(eng_.now(), expect_t_) << "completion event " << events_;
      event_ids_ = expect_ids_;
      got_ids_.clear();
      ++events_;
      observe();  // the handler's own resolve ran before its callbacks
    }
    got_ids_.push_back(id);
  }

  // Call after the run: checks the last event's completed set.
  void finish_event() {
    if (events_ == 0) return;
    EXPECT_EQ(got_ids_, event_ids_) << "completion event " << events_;
    max_batch_ = std::max(max_batch_, got_ids_.size());
    got_ids_.clear();
    event_ids_.clear();
  }

  int events() const { return events_; }
  std::size_t max_batch() const { return max_batch_; }

 private:
  sim::Engine& eng_;
  net::FlowSim& fs_;
  bool has_expect_ = false;
  double expect_t_ = 0.0;
  std::vector<std::uint64_t> expect_ids_, event_ids_, got_ids_;
  std::uint64_t event_ = std::numeric_limits<std::uint64_t>::max();
  int events_ = 0;
  std::size_t max_batch_ = 0;
};

// Rotor slot rotation driven from the test, so each transition's resolve
// is observed (RotorSchedule's own events would resolve unobserved).
void rotate_rotor(sim::Engine& eng, net::Fabric& fabric, net::FlowSim& fs,
                  HorizonOracle& oracle, int slot) {
  const auto& t = fabric.topology();
  std::vector<std::pair<int, double>> batch;
  std::vector<int> links;
  for (int m = 0; m < t.rotor_matchings(); ++m)
    for (int l : t.rotor_matching_links(m)) {
      batch.emplace_back(l, m == slot ? t.rotor_active_capacity() : 0.0);
      links.push_back(l);
    }
  fabric.set_link_capacities(batch);
  fs.notify_capacity_change(links);
  oracle.observe();
  if (fs.active_flows() == 0) return;
  eng.schedule_in(t.rotor_slot_s(), [&eng, &fabric, &fs, &oracle, slot] {
    const int next = (slot + 1) % fabric.topology().rotor_matchings();
    rotate_rotor(eng, fabric, fs, oracle, next);
  });
}

enum class Traffic { Random, Incast, EqualTies };

struct OracleRun {
  int events = 0;
  std::size_t max_batch = 0;
  net::FlowSim::Stats stats;
};

OracleRun run_horizon_oracle(const FabricFamily& fam, net::FlowSimConfig cfg,
                             Traffic traffic, std::uint64_t seed,
                             bool fail_restore) {
  sim::Engine eng;
  auto fabric = fam.make(net::Routing::Adaptive);
  net::FlowSim fs(eng, fabric, cfg);
  HorizonOracle oracle(eng, fs);
  const int eps = fabric.topology().num_endpoints();
  const int fail_link = fabric.topology().ejection_link(3);
  sim::Rng rng(seed);
  int launched = 0, completed = 0;
  const int total = 240;
  // The completion callback reads its flow's id, which start returns only
  // afterwards; each launch stores it by launch index.
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(total));
  std::function<void()> launch = [&] {
    if (launched >= total) return;
    const int i = launched++;
    int src = 0, dst = 0;
    double bytes = 0.0;
    switch (traffic) {
      case Traffic::Random:
        src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
        bytes = rng.uniform(1e6, 2e8);
        break;
      case Traffic::Incast:
        src = 1 + static_cast<int>(rng.index(static_cast<std::uint64_t>(eps - 1)));
        dst = i % 7 == 6 ? 3 : 0;
        bytes = rng.uniform(1e6, 2e8);
        break;
      case Traffic::EqualTies:
        src = i % eps;
        dst = (src + 1 + 5 * (i / 16)) % eps;
        bytes = 5e7;
        break;
    }
    if (dst == src) dst = (dst + 1) % eps;
    const auto k = static_cast<std::size_t>(i);
    ids[k] = fs.start(src, dst, bytes, [&, k] {
      oracle.on_done(ids[k]);
      ++completed;
      if (fail_restore && completed == 40) {
        fabric.fail_link(fail_link);
        fs.notify_capacity_change({fail_link});
        oracle.observe();
      }
      if (fail_restore && completed == 90) {
        fabric.restore_link(fail_link);
        fs.notify_capacity_change({fail_link});
        oracle.observe();
      }
      // Equal-size waves restart only once the whole wave is gone.
      if (traffic != Traffic::EqualTies || fs.active_flows() == 0) {
        const int n = traffic == Traffic::EqualTies ? 16 : 1;
        for (int k = 0; k < n; ++k) launch();
      }
    });
    oracle.observe();
  };
  for (int i = 0; i < 16; ++i) launch();
  if (fam.rotor) rotate_rotor(eng, fabric, fs, oracle, 0);
  eng.run();
  oracle.finish_event();
  return {oracle.events(), oracle.max_batch(), fs.stats()};
}

TEST(FlowSimCompletionIndex, HorizonAndDrainedSetMatchBruteForce) {
  const net::FlowSimConfig configs[] = {
      {},
      {.incremental = false},
      {.fallback_fraction = 0.0},
      {.incremental_writeback = false},
  };
  for (const FabricFamily& fam : kFamilies)
    for (std::size_t c = 0; c < std::size(configs); ++c)
      for (Traffic traffic :
           {Traffic::Random, Traffic::Incast, Traffic::EqualTies}) {
        SCOPED_TRACE(std::string(fam.name) + " config " + std::to_string(c) +
                     " traffic " + std::to_string(static_cast<int>(traffic)));
        const OracleRun r =
            run_horizon_oracle(fam, configs[c], traffic, 31 + c, false);
        if (traffic == Traffic::EqualTies) {
          // 15 waves of 16; each wave drains in as few events as its
          // per-path rates allow, down to one.
          EXPECT_GE(r.events, 15);
          EXPECT_GE(r.max_batch, 16u);
        } else {
          EXPECT_GT(r.events, 30);
        }
      }
}

TEST(FlowSimCompletionIndex, OracleHoldsThroughStallDropFailRestore) {
  for (net::StallPolicy policy :
       {net::StallPolicy::Stall, net::StallPolicy::Drop})
    for (Traffic traffic : {Traffic::Random, Traffic::Incast}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   " traffic " + std::to_string(static_cast<int>(traffic)));
      const OracleRun r = run_horizon_oracle(
          kFamilies[0], {.fallback_fraction = 0.25, .stall_policy = policy},
          traffic, 5, true);
      EXPECT_GT(r.events, 30);
    }
}

// The parked uniform rate: an incast whose every resolve lands in the
// single-bottleneck closed form, so the horizon comes from the tracked
// minimum remaining, never from the index.
TEST(FlowSimCompletionIndex, ParkedUniformIncastMatchesOracle) {
  const OracleRun r = run_horizon_oracle(kFamilies[0], {}, Traffic::Incast,
                                         77, false);
  EXPECT_GT(r.events, 30);
  EXPECT_GT(r.stats.warm_single_hits, r.stats.resolves / 2);
}

// Finish instants that tie in exact arithmetic but not in floating point:
// flows on distinct single links start at staggered instants with sizes
// chosen so each finishes at T, or exactly one drain tolerance (1 us)
// after T, in real arithmetic. Their accrual histories differ, so the
// rounded horizons and drain predicates scatter by a few ulps around the
// tie and the drain boundary — exactly where a completion index without
// its rounding window would pick a different minimum or miss a drained
// flow.
// A second shape starts every flow at time 0 on links with random
// capacities: the first completion then fires at exactly the minimum
// remaining/rate, so even a one-ulp difference in which flow wins shows.
TEST(FlowSimCompletionIndex, NearTiesAcrossAccrualHistoriesMatchOracle) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    const bool staggered = seed % 2 == 1;
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Minimal);
    sim::Rng rng(seed);
    if (!staggered)
      for (int l = 0; l < static_cast<int>(fabric.topology().links().size()); ++l)
        fabric.set_link_capacity(l, rng.uniform(1e9, 5e10));
    net::FlowSim fs(eng, fabric);
    HorizonOracle oracle(eng, fs);
    const auto& cap = fabric.effective_capacities();
    const double finish = 1e-3;
    const int flows = static_cast<int>(cap.size());
    int completed = 0;
    std::vector<std::uint64_t> ids(static_cast<std::size_t>(flows));
    for (int l = 0; l < flows; ++l) {
      const double t0 = staggered ? rng.uniform(0.0, 0.5e-3) : 0.0;
      const double late = rng.index(2) == 0 ? 0.0 : 1e-6;
      eng.schedule_at(t0, [&, l, t0, late] {
        const auto lu = static_cast<std::size_t>(l);
        // A few ulps of jitter scatters the rounded horizons around the tie.
        const double jitter = 1.0 + std::ldexp(rng.uniform(-8.0, 8.0), -53);
        const double bytes = cap[lu] * (finish + late - t0) * jitter;
        ids[lu] = fs.start_on_path({l}, bytes, [&, lu] {
          oracle.on_done(ids[lu]);
          ++completed;
        });
        oracle.observe();
      });
    }
    eng.run();
    oracle.finish_event();
    EXPECT_EQ(completed, flows);
    EXPECT_GE(oracle.max_batch(), 2u);
  }
}

// Flows on disjoint single-link paths of the full Frontier fabric, in a
// closed loop. Sizes span a range proportional to the flow count, so
// completions per simulated microsecond (the drain tolerance) stay fixed:
// the exact predicates the index evaluates per resolve must then stay flat
// as the active set grows 16x. The scans it replaced visited every flow.
double horizon_visits_per_resolve(int flows) {
  sim::Engine eng;
  const machines::Machine m = machines::frontier();
  auto fabric = m.build_fabric();
  net::FlowSim fs(eng, fabric);
  sim::Rng rng(2024);
  const auto& topo = fabric.topology();
  const double span = 2e4 * flows;  // bytes
  int completions = 0;
  const int target = 3 * flows;
  std::function<void(int)> launch = [&](int i) {
    fs.start_on_path({topo.injection_link(i)}, 1e6 + rng.uniform(0.0, span),
                     [&, i] {
                       if (++completions < target) launch(i);
                     });
  };
  for (int i = 0; i < flows; ++i) launch(i);
  const auto s0 = fs.stats();
  eng.run();
  const auto s1 = fs.stats();
  EXPECT_GE(completions, target);
  return static_cast<double>(s1.horizon_visits - s0.horizon_visits) /
         static_cast<double>(s1.resolves - s0.resolves);
}

TEST(FlowSimCompletionIndex, HorizonVisitsPerResolveIndependentOfActiveCount) {
  const double small = horizon_visits_per_resolve(1024);
  const double large = horizon_visits_per_resolve(16384);
  std::printf("horizon visits per resolve: %.3f at 1024 flows, %.3f at "
              "16384\n", small, large);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(small, 3.0);
  EXPECT_LT(large, 3.0);
  EXPECT_LT(large, 1.5 * small);
}

// --------------------------------------------------- entry validation ---

// Rejected starts throw before any state moves: no leaked arena slot, no
// RNG draw, no adaptive-load bump, so the run continues bitwise equal to
// one that never saw them.
TEST(FlowSimValidation, RejectedStartsLeaveRunBitwiseUnchanged) {
  const auto run = [](bool with_bad_calls) {
    sim::Engine eng;
    auto fabric = small_dragonfly(net::Routing::Adaptive);
    net::FlowSim fs(eng, fabric);
    const int eps = fabric.topology().num_endpoints();
    const int links = static_cast<int>(fabric.topology().links().size());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    sim::Rng rng(4242);
    std::vector<double> times;
    int launched = 0;
    std::function<void()> launch = [&] {
      if (launched >= 120) return;
      ++launched;
      if (with_bad_calls) {
        const std::size_t arena = fs.arena_slots();
        const std::size_t active = fs.active_flows();
        for (int k = 0; k < 3; ++k) {
          EXPECT_THROW(fs.start(-1, 5, 1e6, [] {}), std::out_of_range);
          EXPECT_THROW(fs.start(5, eps, 1e6, [] {}), std::out_of_range);
          EXPECT_THROW(fs.start(eps + 7, -3, 1e6, [] {}), std::out_of_range);
          EXPECT_THROW(fs.start(1, 2, nan, [] {}), std::invalid_argument);
          EXPECT_THROW(fs.start(1, 2, inf, [] {}), std::invalid_argument);
          EXPECT_THROW(fs.start_on_path({}, 1e6, [] {}), std::invalid_argument);
          EXPECT_THROW(fs.start_on_path({0, links}, 1e6, [] {}),
                       std::out_of_range);
          EXPECT_THROW(fs.start_on_path({-1}, 1e6, [] {}), std::out_of_range);
          EXPECT_THROW(fs.start_on_path({0}, -inf, [] {}),
                       std::invalid_argument);
        }
        EXPECT_EQ(fs.arena_slots(), arena);
        EXPECT_EQ(fs.active_flows(), active);
      }
      const int src = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      int dst = static_cast<int>(rng.index(static_cast<std::uint64_t>(eps)));
      if (dst == src) dst = (dst + 1) % eps;
      fs.start(src, dst, rng.uniform(1e6, 2e8), [&] {
        times.push_back(eng.now());
        launch();
      });
    };
    for (int i = 0; i < 16; ++i) launch();
    eng.run();
    EXPECT_EQ(fs.active_flows(), 0u);
    return std::make_pair(times, fs.arena_slots());
  };
  const auto [want, want_arena] = run(false);
  const auto [got, got_arena] = run(true);
  EXPECT_EQ(got_arena, want_arena);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "completion " << i;
}

// A start whose route fails at run time (every global link out of the
// source group is down) hands its arena slot back before rethrowing.
TEST(FlowSimValidation, UnroutableStartReturnsItsSlot) {
  sim::Engine eng;
  auto fabric = small_dragonfly(net::Routing::Minimal);
  const auto& t = fabric.topology();
  for (const auto& l : t.links())
    if (l.kind == topo::LinkKind::Global && t.group_of_switch(l.src) == 0)
      fabric.fail_link(l.id);
  net::FlowSim fs(eng, fabric);
  bool done = false;
  fs.start(0, 1, 1e6, [&] { done = true; });  // within group 0: routable
  const std::size_t arena = fs.arena_slots();
  const int far = t.num_endpoints() - 1;      // another group
  for (int k = 0; k < 5; ++k)
    EXPECT_THROW(fs.start(0, far, 1e6, [] {}), std::runtime_error);
  // The slot routing needed comes back each time and is reused, so the
  // arena grows by one slot at most, and a later start takes that slot.
  EXPECT_LE(fs.arena_slots(), arena + 1);
  const std::size_t after = fs.arena_slots();
  EXPECT_EQ(fs.active_flows(), 1u);
  bool second = false;
  fs.start(2, 3, 1e6, [&] { second = true; });
  EXPECT_EQ(fs.arena_slots(), after);
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(second);
}

}  // namespace
