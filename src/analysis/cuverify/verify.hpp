// cuverify — static analysis passes over kernel AccessPlans.
//
// The dynamic layer (cucheck) finds bugs by running instrumented kernels;
// cuverify proves the same properties from the declared AccessPlan alone,
// with zero kernel execution (tests pin this with cusim::launch_count()):
//
//   bounds      — affine interval analysis (with exact enumeration when a
//                 guard, gather, or thread table makes the closed form
//                 unsound) proves every access within its buffer's extent
//                 for the whole grid, or produces a first-fault witness in
//                 the dynamic memcheck's own vocabulary.
//   racecheck   — happens-before over barrier-delimited plan segments: a
//                 shared-memory byte written in a segment must not be
//                 touched by a different thread in the same segment. Same
//                 epoch semantics as the dynamic Checker, so every dynamic
//                 hazard is statically visible (the converse need not hold:
//                 the static plan models all fs CG iterations, a superset).
//   barrier     — a declared partial-participation barrier is the static
//                 face of cusim's BarrierDivergence.
//   coalescing  — the plan's global accesses are expanded into per-warp
//                 instruction line sets (plan_warp_instructions) and run
//                 through the *same* lint_load_trace budget as the dynamic
//                 lint; on the gpusim load schemes the static stream is
//                 instruction-for-instruction identical to the dynamic
//                 trace (see the differential tests in test_cuverify).
//   bank        — shared accesses are grouped the same way; a warp
//                 instruction whose lanes hit one 4-byte-word bank with more
//                 than `max_bank_way` distinct words is flagged (same-word
//                 lanes broadcast and are free, as on hardware).
//   occupancy   — the launch is validated against gpusim device limits;
//                 a launch that cannot be scheduled at all is an error.
//
// Findings use the shared analysis/report.hpp severity scale and exit-code
// convention; `cumf_train --cuverify` and `tools/cuslint` both render them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/coalesce.hpp"
#include "analysis/cucheck.hpp"
#include "analysis/cuverify/plan.hpp"
#include "analysis/report.hpp"
#include "gpusim/device.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"

namespace cumf::analysis::cuverify {

struct VerifyOptions {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::maxwell_titan_x();
  /// Same budget type (and default) as the dynamic coalescing lint, so the
  /// static and dynamic verdicts are comparable by construction.
  CoalesceBudget coalesce;
  /// Max distinct words per bank per warp instruction before a shared access
  /// is flagged (1 = conflict-free; 2 tolerates the occasional 2-way).
  unsigned max_bank_way = 2;
  /// Cap on exact-enumeration work per access (guarded/gathered/table
  /// indices). Exceeding it truncates the proof and emits a warning.
  std::uint64_t max_enumeration = 1ULL << 22;
};

/// A statically derived hazard, in the dynamic checker's vocabulary so the
/// differential tests can match kinds one-for-one.
struct StaticHazard {
  HazardKind kind = HazardKind::OutOfBounds;
  std::string message;
};

struct BoundsReport {
  std::uint64_t accesses_proved = 0;  ///< accesses shown in-bounds
  std::uint64_t points_flagged = 0;   ///< individual out-of-bounds points
  bool truncated = false;             ///< enumeration cap hit somewhere
  std::vector<StaticHazard> violations;  ///< first witness per access
};

struct RaceReport {
  std::uint64_t segments = 0;  ///< barrier-delimited epochs analyzed
  std::vector<StaticHazard> hazards;
};

/// Static prediction of the warp-level global-memory access shape.
struct CoalescePrediction {
  std::uint64_t instructions = 0;
  std::uint64_t line_accesses = 0;  ///< Σ distinct lines per instruction
  int worst_lines = 0;
  double mean_lines = 0.0;
  std::uint64_t flagged = 0;  ///< instructions over the lint budget
};

struct BankPrediction {
  std::uint64_t instructions = 0;  ///< shared-memory warp instructions
  unsigned worst_way = 0;          ///< max distinct words on one bank
  std::uint64_t conflicted = 0;    ///< instructions over max_bank_way
};

struct VerifyReport {
  std::string kernel;
  BoundsReport bounds;
  RaceReport races;
  std::vector<StaticHazard> barrier_hazards;
  CoalescePrediction coalesce;
  BankPrediction banks;
  gpusim::Occupancy occupancy;
  bool launchable = true;  ///< occupancy > 0 and shared fits the SM
  /// Everything above flattened into the shared cucheck/cuverify format.
  std::vector<Finding> findings;

  /// No error-severity findings (the exit-code-0 condition).
  bool clean() const noexcept { return count(findings, Severity::Error) == 0; }
  std::string summary() const;
};

/// Runs every static pass over one plan.
VerifyReport verify(const AccessPlan& plan, const VerifyOptions& options = {});

/// Expands the plan's *global* accesses for one block into per-warp
/// instruction line sets — the same record type the gpusim trace produces —
/// grouping lanes by (loop iteration, warp) and deduplicating lines, so the
/// stream is directly comparable (and, for the load schemes below, equal) to
/// gpusim::hermitian_load_trace output.
std::vector<gpusim::WarpInstruction> plan_warp_instructions(
    const AccessPlan& plan, unsigned block, const gpusim::DeviceSpec& dev);

}  // namespace cumf::analysis::cuverify
