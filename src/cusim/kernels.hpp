// Access plans of the paper's device kernels on the cusim SIMT layer.
//
// The kernels themselves — get_hermitian with one block per rating row
// (Fig. 2) and the batch CG solver with one block per linear system
// (Algorithm 1) — run functionally in the tests (tests/cusim_kernels.hpp),
// about 10x slower than the direct host loops the engines use. What ships
// is their declared AccessPlans, which cuverify's static passes prove
// without executing anything.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/cuverify/plan.hpp"
#include "cusim/cusim.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace cumf::cusim {

/// Inputs for the hermitian kernel's symbolic access plan. The plan models
/// the launch for a *representative* row — normally the worst-case (max-nnz)
/// row of the dataset, whose column ids drive the exact θ gather — while the
/// grid covers all `rows` blocks (global A/b indices stay affine in the
/// block id, so bounds close over every block without enumeration).
struct HermitianPlanParams {
  unsigned rows = 1;            ///< grid extent (rating rows / blocks)
  std::size_t theta_rows = 0;   ///< θ row count (gather targets live in it)
  std::size_t f = 0;
  int tile = 1;
  int bin = 1;
  std::vector<index_t> cols;    ///< representative row's CSR column ids
  int regs_per_thread = 32;     ///< occupancy input (gpusim register model)
};

/// The declared AccessPlan of hermitian_kernel_launch: same geometry, same
/// buffers, one plan segment per barrier-delimited phase of the kernel.
/// cuverify's static passes consume this — never the kernel itself.
analysis::cuverify::AccessPlan hermitian_kernel_plan(
    const HermitianPlanParams& params);

/// The declared AccessPlan of cg_kernel_launch for `fs` iterations (the
/// static plan models the full iteration budget; the dynamic early exit on
/// convergence only shrinks the executed suffix, so the plan's access set is
/// a superset of any run's).
analysis::cuverify::AccessPlan cg_kernel_plan(std::size_t batch,
                                              std::size_t f, std::uint32_t fs,
                                              int regs_per_thread = 32);

}  // namespace cumf::cusim
