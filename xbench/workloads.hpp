// The three xbench workloads and their seeded input generators. The seed is
// a benchmark argument: generators turn it into plain library inputs (rows,
// endpoint pairs, scenarios), and the library never sees the seed itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/tables.hpp"
#include "harness.hpp"
#include "machines/machine.hpp"
#include "serve/session.hpp"

namespace xbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  const References* refs = nullptr;  // null: no reference comparison
  std::string spans_path;            // traced runs write their spans here
  // Self-test only: corrupt one scenario of serve_whatif's first stream.
  bool inject_invalid = false;
};

// --- paper_tables -------------------------------------------------------
// Table 6 + Table 7 rows with every Frontier and baseline node count divided
// by `divisor` after a seeded +-5% jitter per distinct (machine, count), so
// rows that share a count in the paper keep sharing it. Counts are clamped
// to [2, machine.compute_nodes].
std::vector<xscale::apps::SpeedupRow> paper_rows(std::uint64_t seed,
                                                 int divisor);
Outcome run_paper_tables(const Options& opt, int divisor = 16);

// --- flow_churn ---------------------------------------------------------
// One flow outstanding per NIC chain (node x NIC) on the first `nodes`
// compute nodes of Frontier. A chain sends to the same NIC of its partner
// node (a seeded perfect matching within each switch), except one chain in
// 64 that writes to the sink node of its 1,024-node block.
struct ChurnInputs {
  int nodes = 0;
  int nics = 0;
  std::vector<int> partner;  // [node]
  std::vector<int> sink;     // [block]
  std::vector<int> dst_node;  // [chain] destination node
};
// `switch_of_node[n]` is the switch of node n's first NIC.
ChurnInputs churn_inputs(std::uint64_t seed,
                         const std::vector<int>& switch_of_node, int nics);
// Switch of each of the first `nodes` nodes' first NIC.
std::vector<int> node_switches(const xscale::machines::Machine& m,
                               const xscale::topo::Topology& topo, int nodes);
// `nodes` 0 = all compute nodes; `budget` 0 = sized from opt.seconds.
Outcome run_flow_churn(const Options& opt, int nodes = 0,
                       std::uint64_t budget = 0);

// --- serve_whatif -------------------------------------------------------
// Per session: one seeded 16-node job (nodes distinct across sessions), its
// fixed traffic (8 flows per endpoint to job peers, 1-100 MB, starts over
// 0-50 us), and a stream of failure sets of 0-4 global bundles between the
// job's groups; one scenario in four repeats the previous one.
std::vector<std::vector<xscale::serve::Scenario>> serve_streams(
    std::uint64_t seed, const xscale::topo::Topology& topo,
    const xscale::machines::Machine& m, int sessions, int scenarios);
// `batches` 0 = sized from opt.seconds.
Outcome run_serve_whatif(const Options& opt, int batches = 0);

}  // namespace xbench
