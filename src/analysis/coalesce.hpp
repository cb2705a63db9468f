// cucheck coalescing lint.
//
// The paper's Fig. 3/4 story is that the non-coalesced load scheme issues
// warp instructions touching up to 32 distinct cache lines and survives
// only because the working set fits in L1/L2. This lint replays the
// gpusim/trace.hpp warp-access records and flags every instruction whose
// line count exceeds a configurable budget — the static half of the
// memory-access analysis, complementing racecheck/memcheck's dynamic half.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpusim/trace.hpp"

namespace cumf::analysis {

struct CoalesceBudget {
  /// Max distinct cache lines one warp instruction may touch before it is
  /// flagged. 1 is fully coalesced; 4 tolerates unaligned segments; 32 is
  /// the worst a 32-lane warp can do.
  int max_lines_per_instruction = 4;
  std::size_t max_findings = 16;  ///< findings kept in the report
};

struct CoalesceFinding {
  std::size_t block = 0;        ///< index into the linted block set
  std::size_t instruction = 0;  ///< index within that block's stream
  int lines_touched = 0;
};

struct CoalesceReport {
  std::uint64_t instructions = 0;
  std::uint64_t flagged = 0;  ///< count over budget (beyond max_findings too)
  int worst_lines = 0;
  double mean_lines = 0.0;
  int budget = 0;
  std::vector<CoalesceFinding> findings;

  bool clean() const noexcept { return flagged == 0; }
  std::string summary() const;
};

/// Lints pre-built warp instruction streams (one stream per thread-block).
CoalesceReport lint_load_trace(
    std::span<const std::vector<gpusim::WarpInstruction>> blocks,
    const CoalesceBudget& budget = {});

}  // namespace cumf::analysis
