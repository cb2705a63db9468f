// Tests for the cuverify static-analysis layer: the registered (clean)
// kernel plans must prove out with zero error findings and zero kernel
// execution; every planted bug in the shared fixture corpus must be flagged
// statically; the static coalescing prediction must match the dynamic
// gpusim trace instruction-for-instruction; and the FP16 range analysis
// must predict the CG-FP16 solver's observed fallback behaviour on both an
// overflow-inducing and a safe dataset.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/cuverify/fp16range.hpp"
#include "analysis/cuverify/registry.hpp"
#include "analysis/cuverify/verify.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/report.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "cusim/cusim.hpp"
#include "cusim/kernels.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"
#include "linalg/cg.hpp"
#include "sparse/csr.hpp"

namespace cumf::analysis::cuverify {
namespace {

/// Did the static report flag a hazard of the given dynamic kind?
bool statically_flagged(const VerifyReport& report, HazardKind kind) {
  switch (kind) {
    case HazardKind::WriteWrite:
    case HazardKind::ReadWrite:
      return std::any_of(report.races.hazards.begin(),
                         report.races.hazards.end(),
                         [&](const StaticHazard& h) { return h.kind == kind; });
    case HazardKind::OutOfBounds:
      return !report.bounds.violations.empty();
    case HazardKind::BarrierDivergence:
      return !report.barrier_hazards.empty();
    default:
      return false;
  }
}

RatingsCoo synthetic_coo(index_t rows, index_t cols, index_t nnz_per_row,
                         double rating_max, std::uint64_t seed) {
  RatingsCoo coo(rows, cols);
  Rng rng(seed);
  for (index_t u = 0; u < rows; ++u) {
    for (index_t k = 0; k < nnz_per_row; ++k) {
      const auto v = static_cast<index_t>(rng.uniform_index(cols));
      coo.add(u, v,
              static_cast<real_t>(rating_max * (0.5 + 0.5 * rng.uniform())));
    }
  }
  coo.sort_and_dedup();
  return coo;
}

// ---------- clean kernels: every registered launch proves out ----------

TEST(CuverifyRegistry, AllRegisteredLaunchesVerifyWithZeroErrors) {
  const std::uint64_t launches_before = cusim::launch_count();
  const auto launches = registered_launches();
  ASSERT_GE(launches.size(), 5U);  // 3 hermitian shapes + 2 CG shapes
  for (const auto& launch : launches) {
    const VerifyReport report = verify(launch.plan);
    EXPECT_TRUE(report.clean()) << launch.name << ":\n" << report.summary();
    EXPECT_TRUE(report.bounds.violations.empty()) << launch.name;
    EXPECT_TRUE(report.races.hazards.empty()) << launch.name;
    EXPECT_TRUE(report.barrier_hazards.empty()) << launch.name;
    EXPECT_TRUE(report.launchable) << launch.name;
    // The hermitian accumulate and the CG reduction ladders are designed
    // conflict-free; the static bank model must agree.
    EXPECT_EQ(report.banks.conflicted, 0U) << launch.name;
    EXPECT_EQ(exit_code(report.findings), 0) << launch.name;
  }
  // The entire audit is symbolic: no cusim kernel may have been launched.
  EXPECT_EQ(cusim::launch_count() - launches_before, 0U);
}

TEST(CuverifyRegistry, OccupancyMatchesGpusimModel) {
  // The f=100 paper shape: plan occupancy must equal the direct gpusim
  // computation from the same resources.
  const auto launches = registered_launches();
  const auto it = std::find_if(
      launches.begin(), launches.end(),
      [](const RegisteredLaunch& l) { return l.name.find("f=100") != std::string::npos; });
  ASSERT_NE(it, launches.end());
  const VerifyReport report = verify(it->plan);
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  // verify() feeds the occupancy model the thread count rounded up to a
  // whole number of warps (hardware schedules whole warps); do the same.
  const auto warp = static_cast<unsigned>(dev.warp_size);
  gpusim::KernelResources res;
  res.regs_per_thread = it->plan.regs_per_thread;
  res.threads_per_block =
      static_cast<int>((it->plan.threads() + warp - 1) / warp * warp);
  res.smem_per_block_bytes = static_cast<int>(it->plan.shared_bytes);
  const auto expected = gpusim::compute_occupancy(dev, res);
  EXPECT_EQ(report.occupancy.blocks_per_sm, expected.blocks_per_sm);
  EXPECT_EQ(report.occupancy.limited_by, expected.limited_by);
}

// ---------- fixture corpus: every planted bug flagged statically ----------

TEST(CuverifyFixtures, EveryPlantedBugIsFlaggedWithoutExecution) {
  const std::uint64_t launches_before = cusim::launch_count();
  for (const auto& fixture : fixtures::all_fixtures()) {
    const VerifyReport report = verify(fixture.plan());
    EXPECT_TRUE(statically_flagged(report, fixture.expected))
        << fixture.name << " expected " << to_string(fixture.expected)
        << " but the static report was:\n"
        << report.summary();
    EXPECT_FALSE(report.clean()) << fixture.name;
    EXPECT_EQ(exit_code(report.findings), 1) << fixture.name;
  }
  EXPECT_EQ(cusim::launch_count() - launches_before, 0U);
}

TEST(CuverifyFixtures, StaticWitnessesMatchDynamicVocabulary) {
  // The static messages must be directly comparable to the dynamic ones:
  // same hazard nouns, same thread/index coordinates.
  for (const auto& fixture : fixtures::all_fixtures()) {
    const VerifyReport report = verify(fixture.plan());
    const std::string name = fixture.name;
    const auto all_messages = [&report]() {
      std::string out;
      for (const auto& h : report.bounds.violations) out += h.message + "\n";
      for (const auto& h : report.races.hazards) out += h.message + "\n";
      for (const auto& h : report.barrier_hazards) out += h.message + "\n";
      return out;
    }();
    if (name == "shared_race") {
      EXPECT_NE(all_messages.find("write-write hazard"), std::string::npos);
      EXPECT_NE(all_messages.find("'cell'"), std::string::npos);
    } else if (name == "missing_barrier") {
      EXPECT_NE(all_messages.find("read-write hazard"), std::string::npos);
      EXPECT_NE(all_messages.find("__syncthreads"), std::string::npos);
    } else if (name == "oob_shared_write") {
      EXPECT_NE(all_messages.find("out-of-bounds write"), std::string::npos);
      EXPECT_NE(all_messages.find("'staged'"), std::string::npos);
      EXPECT_NE(all_messages.find("index 4 (extent 4)"), std::string::npos);
      EXPECT_NE(all_messages.find("thread (3,0,0)"), std::string::npos);
    } else if (name == "oob_global_read") {
      EXPECT_NE(all_messages.find("out-of-bounds read"), std::string::npos);
      EXPECT_NE(all_messages.find("'theta'"), std::string::npos);
      EXPECT_NE(all_messages.find("extent 6"), std::string::npos);
    } else if (name == "barrier_divergence") {
      EXPECT_NE(all_messages.find("still pending"), std::string::npos);
    }
  }
}

// ---------- differential: static hazards ⊇ dynamic hazards ----------

TEST(CuverifyDifferential, StaticRacecheckFlagsEveryDynamicHazard) {
  for (const auto& fixture : fixtures::all_fixtures()) {
    const CheckReport dynamic = fixture.run_dynamic();
    ASSERT_FALSE(dynamic.clean()) << fixture.name;
    const VerifyReport statics = verify(fixture.plan());
    std::set<HazardKind> dynamic_kinds;
    for (const auto& hazard : dynamic.hazards) {
      dynamic_kinds.insert(hazard.kind);
    }
    for (const HazardKind kind : dynamic_kinds) {
      EXPECT_TRUE(statically_flagged(statics, kind))
          << fixture.name << ": dynamic found " << to_string(kind)
          << " but the static report missed it:\n"
          << statics.summary();
    }
  }
}

// ---------- coalescing: static prediction == dynamic trace ----------

/// Static mirror of gpusim::hermitian_load_trace: an AccessPlan whose warp
/// instructions reproduce scheme (a)/(b) of the paper's load phase for the
/// given column set, so the coalescing differential below can compare the
/// static prediction with the dynamic trace and the gpusim cache counters.
AccessPlan hermitian_load_plan(const gpusim::DeviceSpec& dev,
                               const gpusim::TraceConfig& config,
                               std::span<const index_t> cols) {
  CUMF_EXPECTS(config.f > 0 && config.bin > 0, "f and BIN must be positive");
  CUMF_EXPECTS(config.threads_per_block % dev.warp_size == 0,
               "block must be whole warps");
  const auto f = static_cast<std::uint64_t>(config.f);
  const auto ff = static_cast<std::int64_t>(f);
  const int warp = dev.warp_size;

  index_t max_col = 0;
  for (const index_t c : cols) {
    max_col = std::max(max_col, c);
  }

  AccessPlan plan;
  plan.kernel = config.coalesced ? "hermitian_load(coalesced)"
                                 : "hermitian_load(noncoalesced)";
  plan.grid = cusim::Dim3{1, 1, 1};
  plan.block = cusim::Dim3{
      config.coalesced ? static_cast<unsigned>(warp)
                       : static_cast<unsigned>(config.threads_per_block),
      1, 1};
  plan.buffers = {{"theta", cusim::MemSpace::Global,
                   (static_cast<std::uint64_t>(max_col) + 1) * f,
                   sizeof(real_t), config.theta_base}};
  plan.segments.emplace_back();
  PlanSegment& segment = plan.segments.back();

  for (std::size_t batch = 0; batch < cols.size();
       batch += static_cast<std::size_t>(config.bin)) {
    const std::size_t len = std::min(cols.size() - batch,
                                     static_cast<std::size_t>(config.bin));
    PlanAccess access;
    access.buffer = 0;
    access.kind = cusim::AccessKind::Read;
    access.label = config.coalesced ? "theta (coalesced stage)"
                                    : "theta (own-column stage)";
    if (config.coalesced) {
      // Scheme (a): one warp walks column after column; chunk ⟨c, k⟩ covers
      // floats [k·warp, k·warp+warp) of column cols[batch+c].
      const auto chunks =
          static_cast<std::uint32_t>((f + warp - 1) / static_cast<std::uint64_t>(warp));
      access.loops = {{static_cast<std::uint32_t>(len), "c"},
                      {chunks, "k"}};
      access.index.thread_coeff = 1;
      access.index.loop_coeffs = {static_cast<std::int64_t>(chunks) * warp,
                                  warp};
      AffineForm guard;
      guard.thread_coeff = 1;
      guard.loop_coeffs = {0, warp};
      access.guard = guard;
      access.guard_bound = ff;
      access.gather.resize(len * chunks * static_cast<std::size_t>(warp));
      const std::uint64_t per_col = static_cast<std::uint64_t>(chunks) * warp;
      for (std::size_t v = 0; v < access.gather.size(); ++v) {
        const std::size_t c = v / per_col;
        const auto elem = static_cast<std::int64_t>(v % per_col);
        access.gather[v] =
            static_cast<std::int64_t>(cols[batch + c]) * ff + elem;
      }
    } else {
      // Scheme (b): each thread owns (a segment of) one column; instruction
      // e advances every thread one element down its own column.
      const int threads = config.threads_per_block;
      const int segments_n =
          std::max(1, threads / static_cast<int>(len));
      const auto seg_len =
          (f + static_cast<std::uint64_t>(segments_n) - 1) /
          static_cast<std::uint64_t>(segments_n);
      access.loops = {{static_cast<std::uint32_t>(seg_len), "e"}};
      access.index.loop_coeffs = {1};
      access.index.thread_table.resize(threads);
      AffineForm guard;
      guard.loop_coeffs = {1};
      guard.thread_table.resize(threads);
      for (int t = 0; t < threads; ++t) {
        const std::size_t ci = static_cast<std::size_t>(t) % len;
        const auto seg = static_cast<std::uint64_t>(t) / len %
                         static_cast<std::uint64_t>(segments_n);
        const auto seg_base = static_cast<std::int64_t>(seg * seg_len);
        access.index.thread_table[t] =
            static_cast<std::int64_t>(cols[batch + ci]) * ff + seg_base;
        guard.thread_table[t] = seg_base;
      }
      access.guard = guard;
      access.guard_bound = ff;
    }
    segment.accesses.push_back(std::move(access));
  }
  return plan;
}

void expect_stream_equal(const std::vector<gpusim::WarpInstruction>& statics,
                         const std::vector<gpusim::WarpInstruction>& dynamic,
                         const char* scheme) {
  ASSERT_EQ(statics.size(), dynamic.size()) << scheme;
  for (std::size_t i = 0; i < statics.size(); ++i) {
    EXPECT_EQ(statics[i].lines, dynamic[i].lines)
        << scheme << " instruction " << i;
  }
}

TEST(CuverifyCoalesce, LoadPlanReproducesGpusimTraceInstructionForInstruction) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  std::vector<index_t> cols(70);
  Rng rng(31);
  for (auto& c : cols) {
    c = static_cast<index_t>(rng.uniform_index(512));
  }
  for (const bool coalesced : {true, false}) {
    gpusim::TraceConfig config;
    config.coalesced = coalesced;
    const auto dynamic = gpusim::hermitian_load_trace(dev, config, cols);
    const AccessPlan plan = hermitian_load_plan(dev, config, cols);
    const auto statics = plan_warp_instructions(plan, 0, dev);
    expect_stream_equal(statics, dynamic,
                        coalesced ? "scheme (a)" : "scheme (b)");

    // Totals must line up with the cache simulator's own accounting.
    std::vector<std::vector<index_t>> rows{{cols.begin(), cols.end()}};
    const auto stats = gpusim::simulate_hermitian_load(dev, config, rows);
    EXPECT_EQ(stats.warp_instructions, statics.size());
    std::uint64_t lines = 0;
    for (const auto& inst : statics) {
      lines += inst.lines.size();
    }
    EXPECT_EQ(stats.line_accesses, lines);

    // And the lint verdict (the dynamic coalescing oracle) must agree with
    // the prediction embedded in verify()'s coalesce pass.
    const auto report = verify(plan);
    std::vector<std::vector<gpusim::WarpInstruction>> blocks{dynamic};
    const CoalesceReport lint = lint_load_trace(blocks);
    EXPECT_EQ(report.coalesce.instructions, lint.instructions);
    EXPECT_EQ(report.coalesce.flagged, lint.flagged);
    EXPECT_EQ(report.coalesce.worst_lines, lint.worst_lines);
    // Scheme (a) is coalesced by construction; scheme (b) is the paper's
    // deliberately scattered layout and must be flagged by both.
    if (coalesced) {
      EXPECT_EQ(lint.flagged, 0U) << "scheme (a) must lint clean";
    } else {
      EXPECT_GT(lint.flagged, 0U) << "scheme (b) must be flagged";
    }
  }
}

// ---------- bank conflicts ----------

TEST(CuverifyBank, StrideOfBankCountIsFlaggedAndUnitStrideIsClean) {
  AccessPlan plan;
  plan.kernel = "bank_probe";
  plan.grid = cusim::Dim3{1};
  plan.block = cusim::Dim3{32};
  plan.shared_bytes = 32 * 32 * sizeof(real_t);
  plan.buffers = {
      {"tilebuf", cusim::MemSpace::Shared, 32 * 32, sizeof(real_t), 0}};
  PlanAccess column;  // lane t reads word 32·t: all lanes on bank 0
  column.buffer = 0;
  column.kind = cusim::AccessKind::Read;
  column.index.thread_coeff = 32;
  column.label = "column";
  plan.segments.push_back({{column}, 0, 0});
  const VerifyReport conflicted = verify(plan);
  EXPECT_EQ(conflicted.banks.worst_way, 32U);
  EXPECT_GT(conflicted.banks.conflicted, 0U);
  EXPECT_TRUE(conflicted.clean()) << "bank conflicts are warnings";
  EXPECT_EQ(count(conflicted.findings, Severity::Warning), 1U);

  plan.segments[0].accesses[0].index.thread_coeff = 1;  // row-major: clean
  const VerifyReport clean = verify(plan);
  EXPECT_EQ(clean.banks.conflicted, 0U);
  EXPECT_LE(clean.banks.worst_way, 1U);
}

// ---------- occupancy / launchability ----------

TEST(CuverifyOccupancy, ImpossibleSharedRequestIsAnError) {
  AccessPlan plan;
  plan.kernel = "smem_hog";
  plan.grid = cusim::Dim3{1};
  plan.block = cusim::Dim3{64};
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  plan.shared_bytes = dev.smem_per_sm_bytes + 4096;
  plan.buffers = {{"hog", cusim::MemSpace::Shared,
                   (dev.smem_per_sm_bytes + 4096) / sizeof(real_t),
                   sizeof(real_t), 0}};
  plan.segments.push_back({{}, 0, 0});
  const VerifyReport report = verify(plan);
  EXPECT_FALSE(report.launchable);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(exit_code(report.findings), 1);
}

// ---------- shared severity / exit-code convention ----------

TEST(CuverifyReport, SeverityScaleAndExitCodesAreShared) {
  EXPECT_STREQ(to_string(Severity::Error), "error");
  std::vector<Finding> findings;
  EXPECT_EQ(exit_code(findings), 0);
  findings.push_back({Severity::Warning, "coalesce", "k", "over budget"});
  EXPECT_EQ(exit_code(findings), 0) << "warnings do not gate";
  findings.push_back({Severity::Error, "racecheck", "k", "hazard"});
  EXPECT_EQ(exit_code(findings), 1);
  const std::string rendered = render(findings);
  EXPECT_NE(rendered.find("warning [coalesce]"), std::string::npos);
  EXPECT_NE(rendered.find("error [racecheck]"), std::string::npos);
}

// ---------- FP16 range analysis vs observed fallbacks ----------

TEST(CuverifyFp16, OverflowDatasetIsPredictedUnsafeAndDoesFallBack) {
  // Ratings of ~3e4 with ~40-dense rows at f=8: the equilibrium diagonal
  // n·r/f + λ·n lands near 1.5e5, far past half::max() = 65504.
  const auto coo = synthetic_coo(48, 48, 40, 3.0e4, 21);
  const auto csr = CsrMatrix::from_coo(coo);
  Fp16RangeOptions options;
  options.f = 8;
  options.lambda = 0.05;
  const Fp16RangeResult prediction = analyze_fp16_range(csr, options);
  EXPECT_TRUE(prediction.overflow_risk);
  EXPECT_FALSE(prediction.predicted_fp16_safe);
  EXPECT_GT(prediction.a_eq_max, 65504.0);

  AlsOptions als;
  als.f = 8;
  als.lambda = 0.05F;
  als.solver.kind = SolverKind::CgFp16;
  AlsEngine engine(coo, als);
  for (int epoch = 0; epoch < 3; ++epoch) {
    engine.run_epoch();
  }
  EXPECT_GT(engine.solve_stats().fp16_fallbacks, 0U)
      << "the predicted overflow must materialize as FP32 fallbacks";

  // The finding is a Warning when the CG-FP16 solver is selected.
  const auto findings = fp16_findings(prediction, /*cg_fp16_selected=*/true,
                                      "overflow dataset");
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].severity, Severity::Warning);
  EXPECT_EQ(exit_code(findings), 0) << "advisory, never gates";
}

TEST(CuverifyFp16, RatingScaleDatasetIsPredictedSafeAndNeverFallsBack) {
  const auto coo = synthetic_coo(48, 48, 20, 5.0, 22);
  const auto csr = CsrMatrix::from_coo(coo);
  Fp16RangeOptions options;
  options.f = 8;
  options.lambda = 0.05;
  const Fp16RangeResult prediction = analyze_fp16_range(csr, options);
  EXPECT_TRUE(prediction.predicted_fp16_safe) << prediction.explanation;
  EXPECT_FALSE(prediction.flush_risk);

  AlsOptions als;
  als.f = 8;
  als.lambda = 0.05F;
  als.solver.kind = SolverKind::CgFp16;
  AlsEngine engine(coo, als);
  for (int epoch = 0; epoch < 3; ++epoch) {
    engine.run_epoch();
  }
  EXPECT_EQ(engine.solve_stats().fp16_fallbacks, 0U);

  const auto findings =
      fp16_findings(prediction, /*cg_fp16_selected=*/true, "safe dataset");
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].severity, Severity::Info);
}

TEST(CuverifyFp16, MatvecEnvelopeStaysInFp32Range) {
  // CG arithmetic is FP32: even the overflow dataset's intermediates are
  // tiny against float range — the A pack is the only half constraint.
  const auto coo = synthetic_coo(48, 48, 40, 3.0e4, 21);
  const auto prediction =
      analyze_fp16_range(CsrMatrix::from_coo(coo), {});
  EXPECT_GT(prediction.cg_intermediate_abs, 0.0);
  EXPECT_LT(prediction.cg_intermediate_abs, 3.0e38);
  EXPECT_DOUBLE_EQ(
      cg_matvec_abs_bound(100, 2.0, 3.0), 600.0);
}

}  // namespace
}  // namespace cumf::analysis::cuverify
