// cuslint — static audit of every registered cusim kernel × launch config.
//
//   cuslint --all [--fixtures] [--json FILE] [--device NAME]
//
// Runs the full cuverify pass pipeline (bounds, racecheck, barrier,
// coalescing/bank prediction, occupancy) over the launch registry
// (analysis/cuverify/registry.hpp) with zero kernel execution — the tool
// prints the cusim launch-count delta to prove it. With --fixtures it also
// audits the shared buggy-kernel corpus and fails unless every planted bug
// is statically flagged, and it self-checks the FP16 range analysis on an
// overflow-inducing and a safe synthetic dataset.
//
// Exit codes follow the shared analysis/report.hpp convention:
//   0  audit ran, no error-severity findings (warnings allowed)
//   1  error findings on clean kernels, a missed fixture bug, a wrong FP16
//      verdict, or any kernel execution during the audit
//   2  usage error
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/cuverify/fp16range.hpp"
#include "analysis/cuverify/registry.hpp"
#include "analysis/cuverify/verify.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/report.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "cusim/cusim.hpp"
#include "gpusim/device.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

using namespace cumf;
namespace cuv = analysis::cuverify;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: cuslint --all [--fixtures] [--json FILE]\n"
               "               [--device k40|titanx|p100|v100]\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Did the static report flag the fixture's planted bug (in the dynamic
/// checker's vocabulary)?
bool statically_flagged(const cuv::VerifyReport& report,
                        analysis::HazardKind kind) {
  switch (kind) {
    case analysis::HazardKind::WriteWrite:
    case analysis::HazardKind::ReadWrite:
      for (const auto& h : report.races.hazards) {
        if (h.kind == kind) return true;
      }
      return false;
    case analysis::HazardKind::OutOfBounds:
      return !report.bounds.violations.empty();
    case analysis::HazardKind::BarrierDivergence:
      return !report.barrier_hazards.empty();
    default:
      return false;
  }
}

/// Synthetic dataset with `rows` rows of ~`nnz_per_row` ratings bounded by
/// `rating_max` — the FP16 self-check presets.
CsrMatrix synthetic_ratings(index_t rows, index_t cols, index_t nnz_per_row,
                            double rating_max, std::uint64_t seed) {
  RatingsCoo coo(rows, cols);
  Rng rng(seed);
  for (index_t u = 0; u < rows; ++u) {
    for (index_t k = 0; k < nnz_per_row; ++k) {
      const auto v = static_cast<index_t>(rng.uniform() * cols) % cols;
      coo.add(u, v, static_cast<real_t>(rating_max * (0.5 + 0.5 * rng.uniform())));
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  bool fixtures = false;
  std::string json_path;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::maxwell_titan_x();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--all") {
      all = true;
    } else if (arg == "--fixtures") {
      fixtures = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--device") {
      try {
        device = gpusim::device_by_name(next());
      } catch (const CheckError& e) {
        std::fprintf(stderr, "cuslint: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "cuslint: unknown option '%s'\n", arg.c_str());
      usage();
    }
  }
  if (!all) {
    usage();
  }

  const std::uint64_t launches_before = cusim::launch_count();
  cuv::VerifyOptions options;
  options.device = device;

  std::size_t errors_total = 0;
  std::size_t warnings_total = 0;
  std::string json = "{\n  \"device\": \"" + json_escape(device.name) +
                     "\",\n  \"launches\": [";

  const auto launches = cuv::registered_launches();
  std::printf("cuslint: auditing %zu registered launches on %s\n\n",
              launches.size(), device.name.c_str());
  bool first = true;
  for (const auto& launch : launches) {
    const auto report = cuv::verify(launch.plan, options);
    const auto errors =
        analysis::count(report.findings, analysis::Severity::Error);
    const auto warnings =
        analysis::count(report.findings, analysis::Severity::Warning);
    errors_total += errors;
    warnings_total += warnings;
    std::printf("--- %s ---\n%s\n", launch.name.c_str(),
                report.summary().c_str());

    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"name\": \"" + json_escape(launch.name) +
            "\", \"kernel\": \"" + json_escape(report.kernel) +
            "\", \"clean\": " + (report.clean() ? "true" : "false") +
            ", \"errors\": " + std::to_string(errors) +
            ", \"warnings\": " + std::to_string(warnings) +
            ", \"occupancy\": " + std::to_string(report.occupancy.fraction) +
            ", \"coalesce_worst_lines\": " +
            std::to_string(report.coalesce.worst_lines) +
            ", \"bank_worst_way\": " +
            std::to_string(report.banks.worst_way) + ", \"findings\": [";
    bool ffirst = true;
    for (const auto& f : report.findings) {
      json += ffirst ? "" : ", ";
      ffirst = false;
      json += "{\"severity\": \"" + std::string(to_string(f.severity)) +
              "\", \"pass\": \"" + json_escape(f.pass) +
              "\", \"message\": \"" + json_escape(f.message) + "\"}";
    }
    json += "]}";
  }
  json += "\n  ]";

  std::size_t fixtures_missed = 0;
  if (fixtures) {
    json += ",\n  \"fixtures\": [";
    std::printf("--- buggy-fixture corpus (static detection, no execution) "
                "---\n");
    bool ffirst = true;
    for (const auto& fixture : analysis::fixtures::all_fixtures()) {
      const auto report = cuv::verify(fixture.plan(), options);
      const bool flagged = statically_flagged(report, fixture.expected);
      if (!flagged) {
        ++fixtures_missed;
      }
      std::printf("  %-20s expected %-22s %s\n", fixture.name,
                  to_string(fixture.expected),
                  flagged ? "FLAGGED" : "MISSED");
      json += ffirst ? "\n" : ",\n";
      ffirst = false;
      json += std::string("    {\"name\": \"") + fixture.name +
              "\", \"expected\": \"" + to_string(fixture.expected) +
              "\", \"flagged\": " + (flagged ? "true" : "false") + "}";
    }
    json += "\n  ]";

    // FP16 range self-check: an overflow-inducing dataset (huge ratings,
    // dense rows, small f) must predict unsafe; a rating-scale dataset must
    // predict safe.
    cuv::Fp16RangeOptions range;
    range.f = 8;
    range.lambda = 0.05;
    const auto overflow = cuv::analyze_fp16_range(
        synthetic_ratings(64, 64, 40, 3.0e4, 21), range);
    const auto safe = cuv::analyze_fp16_range(
        synthetic_ratings(64, 64, 20, 5.0, 22), range);
    std::printf("\n--- fp16 range self-check ---\n  overflow preset: "
                "predicted_fp16_safe=%s\n  safe preset:     "
                "predicted_fp16_safe=%s\n",
                overflow.predicted_fp16_safe ? "true" : "false",
                safe.predicted_fp16_safe ? "true" : "false");
    if (overflow.predicted_fp16_safe || !safe.predicted_fp16_safe) {
      std::fprintf(stderr, "cuslint: fp16 range self-check FAILED\n");
      ++fixtures_missed;
    }
    json += ",\n  \"fp16_self_check\": {\"overflow_predicted_safe\": " +
            std::string(overflow.predicted_fp16_safe ? "true" : "false") +
            ", \"safe_predicted_safe\": " +
            std::string(safe.predicted_fp16_safe ? "true" : "false") + "}";
  }

  const std::uint64_t executed = cusim::launch_count() - launches_before;
  json += ",\n  \"kernels_executed\": " + std::to_string(executed);
  json += ",\n  \"errors_total\": " + std::to_string(errors_total);
  json += ",\n  \"warnings_total\": " + std::to_string(warnings_total);
  json += ",\n  \"fixtures_missed\": " + std::to_string(fixtures_missed);
  json += "\n}\n";

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cuslint: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\njson report written to %s\n", json_path.c_str());
  }

  std::printf(
      "\ncuslint: %zu launches audited, %zu errors, %zu warnings, "
      "%llu kernels executed%s\n",
      launches.size(), errors_total, warnings_total,
      static_cast<unsigned long long>(executed),
      fixtures ? (fixtures_missed == 0 ? ", all fixture bugs flagged"
                                       : ", FIXTURE BUGS MISSED")
               : "");
  if (executed != 0) {
    std::fprintf(stderr,
                 "cuslint: BUG: %llu kernels were executed during a static "
                 "audit\n",
                 static_cast<unsigned long long>(executed));
    return 1;
  }
  return errors_total == 0 && fixtures_missed == 0 ? 0 : 1;
}
