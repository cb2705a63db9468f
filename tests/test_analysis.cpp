// Tests for the cucheck dynamic-analysis layer: the seeded-bug fixture
// corpus must be caught with hazard reports naming the offending thread
// coordinates, the ported hermitian/CG kernels must run hazard-free (and
// still match the host implementations), and the coalescing lint must
// reproduce the Fig. 3/4 access-pattern story.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/coalesce.hpp"
#include "analysis/cucheck.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/spans.hpp"
#include "common/rng.hpp"
#include "cusim/kernels.hpp"
#include "data/generator.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"
#include "linalg/cg.hpp"
#include "sparse/csr.hpp"

#include "cusim_kernels.hpp"

namespace cumf::analysis {
namespace {

// ---------- fixture corpus: seeded bugs must be caught ----------

TEST(CucheckFixtures, SharedMemoryRaceIsDetected) {
  const CheckReport report = fixtures::run_shared_race();
  ASSERT_FALSE(report.clean());
  ASSERT_FALSE(report.hazards.empty());
  const Hazard& hazard = report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::WriteWrite);
  EXPECT_NE(hazard.message.find("write-write hazard"), std::string::npos);
  EXPECT_NE(hazard.message.find("'cell'"), std::string::npos);
  // Both conflicting thread coordinates are named.
  EXPECT_NE(hazard.message.find("thread (0,0,0)"), std::string::npos);
  EXPECT_NE(hazard.message.find("thread (1,0,0)"), std::string::npos);
  EXPECT_NE(hazard.message.find("block (0,0,0)"), std::string::npos);
}

TEST(CucheckFixtures, MissingBarrierIsDetectedAsReadWriteHazard) {
  const CheckReport report = fixtures::run_missing_barrier();
  ASSERT_FALSE(report.clean());
  bool saw_rw = false;
  for (const Hazard& hazard : report.hazards) {
    if (hazard.kind == HazardKind::ReadWrite) {
      saw_rw = true;
      EXPECT_NE(hazard.message.find("read-write hazard"), std::string::npos);
      EXPECT_NE(hazard.message.find("__syncthreads"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_rw);
}

TEST(CucheckFixtures, OobSharedWriteIsDetectedWithThreadCoordinates) {
  const CheckReport report = fixtures::run_oob_shared_write();
  ASSERT_FALSE(report.clean());
  const Hazard& hazard = report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::OutOfBounds);
  EXPECT_NE(hazard.message.find("out-of-bounds write"), std::string::npos);
  EXPECT_NE(hazard.message.find("shared buffer 'staged'"),
            std::string::npos);
  EXPECT_NE(hazard.message.find("index 4 (extent 4)"), std::string::npos);
  EXPECT_NE(hazard.message.find("thread (3,0,0)"), std::string::npos);
}

TEST(CucheckFixtures, OobGlobalReadIsDetectedWithThreadCoordinates) {
  const CheckReport report = fixtures::run_oob_global_read();
  ASSERT_FALSE(report.clean());
  const Hazard& hazard = report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::OutOfBounds);
  EXPECT_NE(hazard.message.find("out-of-bounds read"), std::string::npos);
  EXPECT_NE(hazard.message.find("global buffer 'theta'"),
            std::string::npos);
  EXPECT_NE(hazard.message.find("thread (2,0,0)"), std::string::npos);
}

TEST(CucheckFixtures, BarrierDivergenceIsReported) {
  const CheckReport report = fixtures::run_barrier_divergence();
  ASSERT_FALSE(report.clean());
  const Hazard& hazard = report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::BarrierDivergence);
  EXPECT_NE(hazard.message.find("still pending"), std::string::npos);
}

// ---------- racecheck must not cry wolf ----------

TEST(Cucheck, BarrierSeparatedProducerConsumerIsClean) {
  cusim::LaunchConfig config{cusim::Dim3{2}, cusim::Dim3{8},
                             sizeof(real_t)};
  std::vector<real_t> out(16, 0);
  const CheckReport report =
      launch_checked(config, [&](cusim::KernelCtx ctx) -> cusim::ThreadTask {
        auto cell = shared_span<real_t>(ctx, 0, 1, "cell");
        auto sink = global_span<real_t>(ctx, std::span<real_t>(out), "out");
        if (ctx.tid() == 0) {
          cell[0] = 42;
        }
        co_await ctx.sync();
        sink[ctx.blockIdx.x * 8 + ctx.tid()] = cell(0);
        co_return;
      });
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.stats.blocks, 2u);
  EXPECT_EQ(report.stats.barriers, 2u);
  EXPECT_GT(report.stats.shared_reads, 0u);
  for (const real_t v : out) {
    EXPECT_EQ(v, 42.0F);
  }
}

TEST(Cucheck, SameThreadReadModifyWriteIsClean) {
  cusim::LaunchConfig config{cusim::Dim3{1}, cusim::Dim3{4},
                             4 * sizeof(real_t)};
  const CheckReport report =
      launch_checked(config, [](cusim::KernelCtx ctx) -> cusim::ThreadTask {
        auto acc = shared_span<real_t>(ctx, 0, 4, "acc");
        for (int step = 0; step < 3; ++step) {
          acc[ctx.tid()] += 1.0F;  // owner discipline: no cross-thread touch
        }
        co_return;
      });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Cucheck, ReportSummaryMentionsCensusAndHazards) {
  const CheckReport clean_report = fixtures::run_shared_race();
  const std::string text = clean_report.summary();
  EXPECT_NE(text.find("hazard"), std::string::npos);
  EXPECT_NE(text.find("blocks"), std::string::npos);
  EXPECT_NE(text.find("shared"), std::string::npos);
}

// ---------- ported kernels: hazard-free and still correct ----------

TEST(CucheckKernels, CheckedHermitianIsHazardFree) {
  SyntheticConfig cfg;
  cfg.m = 30;
  cfg.n = 24;
  cfg.nnz = 400;
  cfg.seed = 11;
  const auto data = generate_synthetic(cfg);
  const auto csr = CsrMatrix::from_coo(data.ratings);
  const std::size_t f = 16;
  Matrix theta(csr.cols(), f);
  Rng rng(13);
  for (auto& v : theta.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }

  Checker checker;
  const auto checked =
      cusim::hermitian_kernel_launch(csr, theta, 0.05F, 4, 8, &checker);
  const CheckReport report = checker.take_report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.stats.blocks, csr.rows());
  EXPECT_GT(report.stats.barriers, 0u);
  EXPECT_GT(report.stats.shared_writes, 0u);

  // The checked run must be bit-identical to the unchecked fast path.
  const auto unchecked =
      cusim::hermitian_kernel_launch(csr, theta, 0.05F, 4, 8);
  EXPECT_EQ(checked.a, unchecked.a);
  EXPECT_EQ(checked.b, unchecked.b);
}

TEST(CucheckKernels, CheckedCgIsHazardFreeAndMatchesUnchecked) {
  const std::size_t batch = 4;
  const std::size_t f = 12;
  Rng rng(17);
  std::vector<real_t> a(batch * f * f);
  std::vector<real_t> b(batch * f);
  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<real_t> g(f * f);
    for (auto& v : g) {
      v = static_cast<real_t>(rng.normal(0.0, 1.0));
    }
    for (std::size_t r = 0; r < f; ++r) {
      for (std::size_t c = 0; c < f; ++c) {
        double acc = r == c ? 2.0 : 0.0;
        for (std::size_t k = 0; k < f; ++k) {
          acc += static_cast<double>(g[r * f + k]) *
                 static_cast<double>(g[c * f + k]);
        }
        a[i * f * f + r * f + c] = static_cast<real_t>(acc);
      }
    }
  }
  for (auto& v : b) {
    v = static_cast<real_t>(rng.normal(0.0, 1.0));
  }

  std::vector<real_t> x_checked(batch * f, 0.0F);
  Checker checker;
  cusim::cg_kernel_launch(batch, f, a, b, x_checked, 6, 1e-4F, &checker);
  const CheckReport report = checker.take_report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.stats.shared_reads, 0u);
  EXPECT_GT(report.stats.global_reads, 0u);

  std::vector<real_t> x_plain(batch * f, 0.0F);
  cusim::cg_kernel_launch(batch, f, a, b, x_plain, 6, 1e-4F);
  EXPECT_EQ(x_checked, x_plain);
}

// ---------- coalescing lint ----------

/// Builds the hermitian load-phase trace of each row's column set and lints
/// the streams, one per thread-block.
CoalesceReport lint_hermitian_load(
    const gpusim::DeviceSpec& dev, const gpusim::TraceConfig& config,
    const std::vector<std::vector<index_t>>& rows_per_block,
    const CoalesceBudget& budget) {
  std::vector<std::vector<gpusim::WarpInstruction>> streams;
  for (const auto& cols : rows_per_block) {
    streams.push_back(gpusim::hermitian_load_trace(dev, config, cols));
  }
  return lint_load_trace(streams, budget);
}

TEST(CoalesceLint, FlagsInstructionsOverBudget) {
  std::vector<std::vector<gpusim::WarpInstruction>> blocks(1);
  blocks[0].push_back({{0, 128}});                       // 2 lines: fine
  blocks[0].push_back({{0, 128, 256, 384, 512, 640}});   // 6 lines: flagged
  const CoalesceReport report =
      lint_load_trace(blocks, CoalesceBudget{4, 16});
  EXPECT_EQ(report.instructions, 2u);
  EXPECT_EQ(report.flagged, 1u);
  EXPECT_EQ(report.worst_lines, 6);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].instruction, 1u);
  EXPECT_EQ(report.findings[0].lines_touched, 6);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.summary().find("exceed the budget"), std::string::npos);
}

TEST(CoalesceLint, CoalescedHermitianLoadIsClean) {
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  gpusim::TraceConfig config;
  config.f = 64;
  config.bin = 16;
  config.threads_per_block = 64;
  config.coalesced = true;
  std::vector<std::vector<index_t>> rows(2);
  for (index_t v = 0; v < 40; ++v) {
    rows[v % 2].push_back(v);
  }
  const CoalesceReport report =
      lint_hermitian_load(dev, config, rows, CoalesceBudget{4, 16});
  EXPECT_GT(report.instructions, 0u);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(CoalesceLint, NonCoalescedHermitianLoadExceedsTightBudget) {
  // The paper's scheme (b): each thread walks its own column, so one warp
  // instruction touches up to 32 distinct cache lines (Fig. 3).
  const auto dev = gpusim::DeviceSpec::maxwell_titan_x();
  gpusim::TraceConfig config;
  config.f = 100;
  config.bin = 32;
  config.threads_per_block = 64;
  config.coalesced = false;
  std::vector<std::vector<index_t>> rows(1);
  for (index_t v = 0; v < 64; ++v) {
    rows[0].push_back(v * 3);  // scattered columns
  }
  const CoalesceReport report =
      lint_hermitian_load(dev, config, rows, CoalesceBudget{4, 8});
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.worst_lines, 4);
  EXPECT_LE(report.findings.size(), 8u);  // capped
  EXPECT_GE(report.flagged, report.findings.size());
}

}  // namespace
}  // namespace cumf::analysis
