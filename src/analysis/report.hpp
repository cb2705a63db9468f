// Shared finding format for the analysis layer.
//
// cumf_train's static `--cuverify` pregate and the standalone
// `tools/cuslint` auditor emit their results as Findings with one severity
// scale, so reports compose and the exit-code convention is uniform:
//
//   exit 0 — no error-severity findings (warnings/info may be present)
//   exit 1 — at least one error-severity finding (or a runtime failure)
//   exit 2 — usage error (bad flags/arguments)
//
// Severity mapping: provable bugs (races, out-of-bounds, barrier divergence,
// launch-impossible resource demands) are `Error`; advisory performance
// findings (coalescing or bank-conflict budgets exceeded, FP16 overflow
// predicted for a dataset) are `Warning`, because the paper's own kernels
// deliberately trade coalescing for cache reuse and the PR 4 degradation
// ladder absorbs FP16 overflow at runtime; everything informational is
// `Info`.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace cumf::analysis {

enum class Severity { Info, Warning, Error };

const char* to_string(Severity severity) noexcept;

/// One analysis result in the shared cucheck/cuverify format.
struct Finding {
  Severity severity = Severity::Info;
  std::string pass;     ///< producing pass: "racecheck", "bounds", ...
  std::string subject;  ///< kernel or fixture the finding is about
  std::string message;  ///< one-line human-readable statement
};

/// Count of findings at exactly `severity`.
std::size_t count(std::span<const Finding> findings,
                  Severity severity) noexcept;

/// The documented convention: 1 if any error-severity finding, else 0.
int exit_code(std::span<const Finding> findings) noexcept;

/// Multi-line rendering, one "severity [pass] subject: message" per line.
std::string render(std::span<const Finding> findings);

}  // namespace cumf::analysis
