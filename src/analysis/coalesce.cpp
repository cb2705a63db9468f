#include "analysis/coalesce.hpp"

#include <algorithm>
#include <sstream>

namespace cumf::analysis {

CoalesceReport lint_load_trace(
    std::span<const std::vector<gpusim::WarpInstruction>> blocks,
    const CoalesceBudget& budget) {
  CoalesceReport report;
  report.budget = budget.max_lines_per_instruction;
  std::uint64_t total_lines = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t i = 0; i < blocks[b].size(); ++i) {
      const auto lines = static_cast<int>(blocks[b][i].lines.size());
      ++report.instructions;
      total_lines += static_cast<std::uint64_t>(lines);
      report.worst_lines = std::max(report.worst_lines, lines);
      if (lines > budget.max_lines_per_instruction) {
        ++report.flagged;
        if (report.findings.size() < budget.max_findings) {
          report.findings.push_back({b, i, lines});
        }
      }
    }
  }
  if (report.instructions > 0) {
    report.mean_lines = static_cast<double>(total_lines) /
                        static_cast<double>(report.instructions);
  }
  return report;
}

std::string CoalesceReport::summary() const {
  std::ostringstream os;
  if (clean()) {
    os << "cucheck coalesce: all " << instructions
       << " warp instructions within budget (" << budget
       << " lines/instruction)\n";
  } else {
    os << "cucheck coalesce: " << flagged << " of " << instructions
       << " warp instructions exceed the budget of " << budget
       << " lines (worst " << worst_lines << ")\n";
    for (const CoalesceFinding& f : findings) {
      os << "  block " << f.block << " instruction " << f.instruction
         << " touches " << f.lines_touched << " cache lines\n";
    }
  }
  os << "cucheck coalesce: mean " << mean_lines << " lines/instruction\n";
  return os.str();
}

}  // namespace cumf::analysis
