// Branch-free min-share scan kernels over the dense link-state SoA
// (DESIGN.md §9). The water-filling inner loop spends its time computing
//
//     min over live links of  (active_w > 0 ? max(0, residual) / active_w
//                                           : +inf)
//
// FlowSim's warm-start solve keeps `residual[]` / `active_w[]` position-
// indexed and contiguous (parallel to the compacted active-link list), so
// the scan is a straight sweep over two double arrays. This header exposes
// that sweep as a kernel with two implementations that are bitwise
// interchangeable:
//
//   - a portable scalar kernel (4 independent accumulators, always
//     compiled), and
//   - an AVX2 kernel compiled behind the XSCALE_SIMD build option and
//     selected at runtime via CPU dispatch.
//
// Bit-identity argument (the contract every caller relies on): both kernels
// evaluate the identical per-element expression — IEEE max, IEEE divide
// (never a reciprocal-multiply: 1/x then * is not correctly rounded and
// would change bits), +inf for non-live lanes — and `min` over doubles is
// exact and order-independent, so any lane width, unroll factor, chunking,
// or horizontal-reduce order returns the same bits as a naive serial loop.
// The differential suite pins scalar == AVX2 == reference on every topology
// family and thread count.
#pragma once

#include <cstddef>

namespace xscale::net {

// min over i in [b, e) of: aw[i] > 0 ? max(0, resid[i]) / aw[i] : +inf.
// Returns +inf for an empty range.
using MinShareScanFn = double (*)(const double* resid, const double* aw,
                                  std::size_t b, std::size_t e);

// Portable kernel; always compiled, the differential baseline.
double min_share_scan_scalar(const double* resid, const double* aw,
                             std::size_t b, std::size_t e);

// Kernel selection override. Auto resolves to the best kernel the build and
// the host CPU support; ForceScalar pins the portable kernel so tests can
// run the same workload through both and compare bits. Set it only while no
// solve is in flight (same contract as sim::set_thread_count).
enum class ScanKernel { Auto, ForceScalar };
void set_scan_kernel(ScanKernel k);
ScanKernel scan_kernel_override();

// The kernel a solve started right now would use, after the override and
// runtime CPU dispatch. Callers resolve once per solve and reuse the
// pointer for every chunk.
MinShareScanFn min_share_scan();

// "avx2" or "scalar" — what min_share_scan() currently resolves to.
const char* min_share_scan_name();
// True iff the resolved kernel is a vector kernel (build has XSCALE_SIMD
// and the host supports it and no scalar override is active).
bool min_share_scan_is_simd();

}  // namespace xscale::net
