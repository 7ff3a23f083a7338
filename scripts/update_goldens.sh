#!/usr/bin/env bash
# Regenerate tests/golden/*.golden from the current build.
#
# Run after an intentional model change, then review the golden diff like any
# other code change. Benches run in --quick mode with XSCALE_THREADS=1 —
# outputs are thread-count invariant by construction (see DESIGN.md §7), so
# one thread is the canonical recording configuration. With --full they run
# at full scale (no --quick) into tests/golden/full/, the goldens behind
# `ctest -L full`; prefer a Release build there (~15 s in total).
#
# Usage: scripts/update_goldens.sh [--full] [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=tests/golden
ARGS=(--quick)
if [[ "${1:-}" == "--full" ]]; then
  OUT=tests/golden/full
  ARGS=()
  shift
fi
BUILD="${1:-build}"

BENCHES=(
  table1_system_specs table2_io_specs table4_gpu_stream table5_gpcnet
  fig3_gemm fig4_cpu_gpu_bw fig5_gcd_gcd_bw fig6_mpigraph
  sec43_storage sec44_scaling sec51_power sec54_resiliency
  table6_caar table7_ecp ablation_design
  xtopo_fat_tree xtopo_rotor
)

cmake --build "$BUILD" -j --target golden_check "${BENCHES[@]}"

mkdir -p "$OUT"
for b in "${BENCHES[@]}"; do
  echo "recording $b..."
  XSCALE_THREADS=1 "$BUILD/tests/golden_check" "$BUILD/bench/$b" \
    "$OUT/$b.golden" --update -- ${ARGS[@]+"${ARGS[@]}"}
done
echo "done: $(ls "$OUT"/*.golden | wc -l) golden files in $OUT"
