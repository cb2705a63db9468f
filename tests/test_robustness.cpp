// Robustness layer: CRC32, atomic writes, checkpoint format + resume,
// solver graceful degradation, fault injection, and the model/ratings I/O
// hardening. The crash-and-resume path is also exercised end-to-end at the
// CLI level (tools/CMakeLists.txt, cli_crash_resume_*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/faultinject.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/als.hpp"
#include "core/solver.hpp"
#include "data/atomic_file.hpp"
#include "data/checkpoint.hpp"
#include "data/generator.hpp"
#include "data/io.hpp"
#include "data/model_io.hpp"

namespace cumf {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

bool all_finite(const Matrix& m) {
  for (const real_t v : m.data()) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

// ---------- CRC32 ----------

TEST(Crc32, MatchesKnownAnswer) {
  // The standard CRC-32 check value (zlib, PNG, gzip all agree on it).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Crc32, RunningUpdateMatchesOneShot) {
  const std::string data = "123456789";
  const std::uint32_t part = crc32(0, data.data(), 4);
  EXPECT_EQ(crc32(part, data.data() + 4, 5), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const std::uint32_t clean = crc32(data);
  data[7] ^= 0x01;
  EXPECT_NE(crc32(data), clean);
}

// ---------- Rng state round trip ----------

TEST(RngState, ResumedStreamIsBitIdentical) {
  Rng rng(42);
  for (int i = 0; i < 7; ++i) {  // odd count: leaves a cached Box-Muller half
    rng.normal();
  }
  const Rng::State snap = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(rng.normal());
  }
  Rng resumed(1);  // different seed: set_state must fully overwrite
  resumed.set_state(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(resumed.normal(), expected[static_cast<std::size_t>(i)]);
  }
}

// ---------- atomic file writes ----------

TEST(AtomicFile, WritesAndReplacesWithoutLeavingTemp) {
  const std::string path = temp_path("cumf_atomic.txt");
  atomic_write_file(path, "first");
  atomic_write_file(path, "second");
  std::ifstream is(path);
  std::string contents;
  std::getline(is, contents);
  EXPECT_EQ(contents, "second");
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  std::filesystem::remove(path);
}

TEST(AtomicFile, ShortWriteFaultProducesDetectablyTruncatedFile) {
  const std::string path = temp_path("cumf_atomic_short.bin");
  TrainCheckpoint ckpt;
  ckpt.x = Matrix(4, 3, 1.5f);
  ckpt.theta = Matrix(5, 3, -0.5f);
  {
    analysis::FaultPlan plan;
    plan.short_write_bytes = 24;  // past the magic, mid-payload
    analysis::ScopedFaultPlan guard(plan);
    write_checkpoint_file(path, ckpt);
  }
  try {
    read_checkpoint_file(path);
    FAIL() << "torn checkpoint must be rejected";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::truncated);
  }
  std::filesystem::remove(path);
}

// ---------- checkpoint format ----------

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ckpt;
  ckpt.epoch = 7;
  Rng rng(99);
  rng.normal();
  ckpt.rng = rng.state();
  ckpt.train_seconds = 12.75;
  ckpt.solve_stats.systems = 1234;
  ckpt.solve_stats.cg_iterations = 5678;
  ckpt.solve_stats.failures = 2;
  ckpt.solve_stats.fp16_converted = 4096;
  ckpt.solve_stats.cg_fallbacks = 3;
  ckpt.solve_stats.fp16_fallbacks = 5;
  ckpt.solve_stats.cg_hist[4] = 100;
  ckpt.solve_stats.cg_hist[SolveStats::kCgHistMax] = 1;
  ckpt.curve = {{1.0, 1.11, 1}, {2.0, 0.95, 2}};
  ckpt.x = Matrix(6, 4);
  ckpt.theta = Matrix(5, 4);
  Rng fill(7);
  for (real_t& v : ckpt.x.data()) {
    v = static_cast<real_t>(fill.normal());
  }
  for (real_t& v : ckpt.theta.data()) {
    v = static_cast<real_t>(fill.normal());
  }
  ckpt.seed = 31;
  ckpt.f = 4;
  ckpt.solver_kind = 3;
  ckpt.cg_fs = 6;
  ckpt.lambda = 0.05f;
  ckpt.rows = 6;
  ckpt.cols = 5;
  ckpt.train_nnz = 17;
  return ckpt;
}

FrameReject reject_reason(const std::string& bytes) {
  try {
    parse_checkpoint(bytes);
  } catch (const FrameError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected the checkpoint to be rejected";
  return FrameReject::io;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const TrainCheckpoint before = sample_checkpoint();
  const TrainCheckpoint after = parse_checkpoint(serialize_checkpoint(before));
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.rng, before.rng);
  EXPECT_EQ(after.train_seconds, before.train_seconds);
  EXPECT_EQ(after.solve_stats.systems, before.solve_stats.systems);
  EXPECT_EQ(after.solve_stats.cg_iterations,
            before.solve_stats.cg_iterations);
  EXPECT_EQ(after.solve_stats.failures, before.solve_stats.failures);
  EXPECT_EQ(after.solve_stats.fp16_converted,
            before.solve_stats.fp16_converted);
  EXPECT_EQ(after.solve_stats.cg_fallbacks, before.solve_stats.cg_fallbacks);
  EXPECT_EQ(after.solve_stats.fp16_fallbacks,
            before.solve_stats.fp16_fallbacks);
  EXPECT_EQ(after.solve_stats.cg_hist, before.solve_stats.cg_hist);
  ASSERT_EQ(after.curve.size(), before.curve.size());
  for (std::size_t i = 0; i < after.curve.size(); ++i) {
    EXPECT_EQ(after.curve[i].seconds, before.curve[i].seconds);
    EXPECT_EQ(after.curve[i].rmse, before.curve[i].rmse);
    EXPECT_EQ(after.curve[i].epoch, before.curve[i].epoch);
  }
  EXPECT_TRUE(after.x == before.x);
  EXPECT_TRUE(after.theta == before.theta);
  EXPECT_EQ(after.seed, before.seed);
  EXPECT_EQ(after.f, before.f);
  EXPECT_EQ(after.solver_kind, before.solver_kind);
  EXPECT_EQ(after.cg_fs, before.cg_fs);
  EXPECT_EQ(after.lambda, before.lambda);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_EQ(after.cols, before.cols);
  EXPECT_EQ(after.train_nnz, before.train_nnz);
}

// The on-disk bytes, pinned by size and CRC-32: a codec change that moves
// a single byte of the format fails here, not at some later resume.
TEST(Checkpoint, BytesArePinned) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  EXPECT_EQ(bytes.size(), 685u);
  EXPECT_EQ(crc32(bytes), 0xd74e0194u);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[0] = 'X';
  EXPECT_EQ(reject_reason(bytes), FrameReject::bad_magic);
  EXPECT_EQ(reject_reason("not a checkpoint at all"), FrameReject::bad_magic);
}

TEST(Checkpoint, RejectsVersionSkew) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[8] = static_cast<char>(bytes[8] + 1);
  EXPECT_EQ(reject_reason(bytes), FrameReject::version_skew);
}

TEST(Checkpoint, RejectsTruncation) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  EXPECT_EQ(reject_reason(bytes.substr(0, bytes.size() / 2)),
            FrameReject::truncated);
  EXPECT_EQ(reject_reason(bytes.substr(0, 10)), FrameReject::truncated);
}

TEST(Checkpoint, RejectsCorruptedPayload) {
  std::string bytes = serialize_checkpoint(sample_checkpoint());
  bytes[bytes.size() / 2] ^= 0x40;  // deep inside the payload
  EXPECT_EQ(reject_reason(bytes), FrameReject::bad_crc);
}

TEST(Checkpoint, FileRoundTripAndIoRejection) {
  const std::string path = temp_path("cumf_ckpt_roundtrip.bin");
  write_checkpoint_file(path, sample_checkpoint());
  const TrainCheckpoint back = read_checkpoint_file(path);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  std::filesystem::remove(path);
  try {
    read_checkpoint_file(path);
    FAIL() << "missing file must be rejected";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::io);
  }
}

TEST(Checkpoint, LatestAndPrune) {
  const std::string dir = temp_path("cumf_ckpt_dir");
  std::filesystem::create_directories(dir);
  TrainCheckpoint ckpt = sample_checkpoint();
  for (const int epoch : {2, 4, 1, 3}) {
    ckpt.epoch = static_cast<std::uint32_t>(epoch);
    write_checkpoint_file(checkpoint_path(dir, epoch), ckpt);
  }
  const auto latest = latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, checkpoint_path(dir, 4));
  prune_checkpoints(dir, 2);
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(dir, 1)));
  EXPECT_FALSE(std::filesystem::exists(checkpoint_path(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 3)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 4)));
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(latest_checkpoint(dir).has_value());
}

TEST(Checkpoint, PruneCollectsTmpOrphans) {
  // An atomic write that crashes between create and rename strands a
  // "ckpt-*.bin.tmp.<pid>" file. It is never a resume target, and pruning
  // must collect it regardless of the keep window.
  const std::string dir = temp_path("cumf_ckpt_orphans");
  std::filesystem::create_directories(dir);
  TrainCheckpoint ckpt = sample_checkpoint();
  for (const int epoch : {1, 2}) {
    ckpt.epoch = static_cast<std::uint32_t>(epoch);
    write_checkpoint_file(checkpoint_path(dir, epoch), ckpt);
  }
  const std::string orphan = atomic_temp_path(checkpoint_path(dir, 3));
  std::ofstream(orphan, std::ios::binary) << "half-written";
  ASSERT_TRUE(std::filesystem::exists(orphan));

  prune_checkpoints(dir, 2);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(checkpoint_path(dir, 2)));
  // The orphan must not count against the keep window, and a resume still
  // lands on the newest complete checkpoint.
  const auto latest = latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, checkpoint_path(dir, 2));
  std::filesystem::remove_all(dir);
}

// ---------- model / ratings I/O hardening ----------

TEST(ModelIo, WriteMatrixRestoresStreamPrecision) {
  std::ostringstream probe;
  probe << 0.123456789;
  const std::string default_format = probe.str();

  std::ostringstream os;
  Matrix m(1, 1);
  m(0, 0) = 0.1f;
  write_matrix(os, m);
  os.str("");
  os << 0.123456789;
  // Regression: write_matrix used to leave the caller's stream at
  // max_digits10 permanently.
  EXPECT_EQ(os.str(), default_format);
}

TEST(ModelIo, FileRoundTripIsBitExact) {
  FactorModel model;
  model.x = Matrix(9, 5);
  model.theta = Matrix(7, 5);
  Rng rng(11);
  for (real_t& v : model.x.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 2.0));
  }
  for (real_t& v : model.theta.data()) {
    v = static_cast<real_t>(rng.normal(0.0, 2.0));
  }
  const std::string path = temp_path("cumf_model_roundtrip.txt");
  write_model_file(path, model);
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(path)));
  const FactorModel back = read_model_file(path);
  // max_digits10 formatting makes the text round trip lossless.
  EXPECT_TRUE(back.x == model.x);
  EXPECT_TRUE(back.theta == model.theta);
  std::filesystem::remove(path);
}

TEST(RatingsIo, RejectsNegativeHeaderNnz) {
  std::istringstream is("2 2 -1\n");
  EXPECT_THROW(read_ratings(is), CheckError);
}

TEST(RatingsIo, TruncatedStreamNamesThePromise) {
  std::istringstream is("2 2 5\n0 0 3.0\n1 1 4.0\n");
  try {
    read_ratings(is);
    FAIL() << "truncated ratings must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("promises 5"), std::string::npos);
  }
}

// ---------- solver graceful degradation ----------

TEST(SolverDegradation, CgBreakdownFallsBackToExactLu) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp32;
  SystemSolver solver(2, opts);
  // Indefinite A = diag(1, -1) with b = (1, 1) and a zero warm start makes
  // the first CG direction p = r = (1, 1), so pᵀAp = 0: breakdown on step 1.
  const std::vector<real_t> a = {1.0f, 0.0f, 0.0f, -1.0f};
  const std::vector<real_t> b = {1.0f, 1.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -1.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
  EXPECT_EQ(solver.stats().failures, 0u);
}

TEST(SolverDegradation, PcgDegradesOnNonPositiveDiagonal) {
  // pcg_solve itself throws on a non-positive diagonal (its documented
  // contract); the SystemSolver pre-screens and reroutes to LU instead.
  SolverOptions opts;
  opts.kind = SolverKind::PcgFp32;
  SystemSolver solver(2, opts);
  const std::vector<real_t> a = {1.0f, 0.0f, 0.0f, -1.0f};
  const std::vector<real_t> b = {2.0f, 3.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_FLOAT_EQ(x[0], 2.0f);
  EXPECT_FLOAT_EQ(x[1], -3.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
}

TEST(SolverDegradation, Fp16OverflowRetriesInFp32) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp16;
  opts.cg_fs = 8;
  SystemSolver solver(2, opts);
  // 70000 > half::max() = 65504: the FP16 pack overflows to inf and the
  // solver must redo the system with A kept in FP32.
  const std::vector<real_t> a = {70000.0f, 0.0f, 0.0f, 70000.0f};
  const std::vector<real_t> b = {70000.0f, 140000.0f};
  std::vector<real_t> x = {0.0f, 0.0f};
  ASSERT_TRUE(solver.solve(a, b, x));
  EXPECT_NEAR(x[0], 1.0f, 1e-4f);
  EXPECT_NEAR(x[1], 2.0f, 1e-4f);
  EXPECT_EQ(solver.stats().fp16_fallbacks, 1u);
  EXPECT_EQ(solver.stats().cg_fallbacks, 0u);
  EXPECT_EQ(solver.stats().failures, 0u);
}

TEST(SolverDegradation, NanSystemFailsCleanlyAndRestoresX) {
  SolverOptions opts;
  opts.kind = SolverKind::CgFp32;
  SystemSolver solver(2, opts);
  const std::vector<real_t> a = {std::nanf(""), 0.0f, 0.0f, 1.0f};
  const std::vector<real_t> b = {1.0f, 1.0f};
  std::vector<real_t> x = {-7.0f, 3.0f};
  EXPECT_FALSE(solver.solve(a, b, x));
  // CG broke down, the exact fallback produced non-finite output, and the
  // caller's warm start came back untouched.
  EXPECT_FLOAT_EQ(x[0], -7.0f);
  EXPECT_FLOAT_EQ(x[1], 3.0f);
  EXPECT_EQ(solver.stats().cg_fallbacks, 1u);
  EXPECT_EQ(solver.stats().failures, 1u);
}

// ---------- fault injection ----------

TEST(FaultInjection, DisarmedInjectorIsInert) {
  EXPECT_FALSE(analysis::FaultInjector::enabled());
  {
    analysis::FaultPlan plan;
    plan.nan_a_prob = 1.0;
    analysis::ScopedFaultPlan guard(plan);
    EXPECT_TRUE(analysis::FaultInjector::enabled());
  }
  EXPECT_FALSE(analysis::FaultInjector::enabled());
}

TEST(FaultInjection, DecisionsAreDeterministic) {
  analysis::FaultPlan plan;
  plan.seed = 7;
  plan.nan_a_prob = 0.3;
  const auto run = [&plan]() {
    std::vector<bool> pattern;
    analysis::ScopedFaultPlan guard(plan);
    for (index_t row = 0; row < 200; ++row) {
      std::vector<real_t> a(4, 1.0f);
      std::vector<real_t> b(2, 1.0f);
      analysis::FaultInjector::instance().corrupt_system(0, row, a, b);
      pattern.push_back(std::isnan(a[0]) || std::isnan(a[1]) ||
                        std::isnan(a[2]) || std::isnan(a[3]));
    }
    return pattern;
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_LT(std::count(first.begin(), first.end(), true), 200);
}

// ---------- AlsEngine: hooks, restore, training under faults ----------

RatingsCoo tiny_ratings() {
  SyntheticConfig cfg;
  cfg.m = 60;
  cfg.n = 40;
  cfg.nnz = 900;
  cfg.true_rank = 4;
  cfg.mean = 3.5;
  cfg.seed = 5;
  return generate_synthetic(cfg).ratings;
}

AlsOptions tiny_options(SolverKind kind) {
  AlsOptions options;
  options.f = 8;
  options.lambda = 0.05f;
  options.solver.kind = kind;
  options.workers = 2;
  options.seed = 1;
  return options;
}

TEST(AlsResume, EpochHookFiresWithTheNewCounter) {
  AlsEngine engine(tiny_ratings(), tiny_options(SolverKind::CgFp32));
  std::vector<int> seen;
  engine.set_epoch_hook([&seen](int epoch) { seen.push_back(epoch); });
  engine.run_epoch();
  engine.run_epoch();
  engine.run_epoch();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(AlsResume, RestoredRunIsBitIdenticalToUninterrupted) {
  const RatingsCoo ratings = tiny_ratings();
  const AlsOptions options = tiny_options(SolverKind::CgFp16);

  AlsEngine uninterrupted(ratings, options);
  for (int i = 0; i < 4; ++i) {
    uninterrupted.run_epoch();
  }

  AlsEngine first_half(ratings, options);
  first_half.run_epoch();
  first_half.run_epoch();

  // A brand-new engine (fresh init, fresh solver stats) picks up from the
  // snapshot and must land exactly where the uninterrupted run did.
  AlsEngine second_half(ratings, options);
  second_half.restore(first_half.user_factors(), first_half.item_factors(),
                      first_half.epochs_run(), first_half.solve_stats());
  second_half.run_epoch();
  second_half.run_epoch();

  EXPECT_EQ(second_half.epochs_run(), 4);
  EXPECT_TRUE(second_half.user_factors() == uninterrupted.user_factors());
  EXPECT_TRUE(second_half.item_factors() == uninterrupted.item_factors());
  // The restored baseline makes cumulative stats span the whole logical run.
  EXPECT_EQ(second_half.solve_stats().systems,
            uninterrupted.solve_stats().systems);
  EXPECT_EQ(second_half.solve_stats().cg_iterations,
            uninterrupted.solve_stats().cg_iterations);
}

TEST(AlsResume, RestoreRejectsWrongShapes) {
  AlsEngine engine(tiny_ratings(), tiny_options(SolverKind::CgFp32));
  EXPECT_THROW(engine.restore(Matrix(3, 3), engine.item_factors(), 1),
               CheckError);
}

TEST(AlsFaults, TrainingSurvivesInjectedFaultsWithFiniteFactors) {
  analysis::FaultPlan plan;
  plan.seed = 13;
  plan.nan_a_prob = 0.01;
  plan.indefinite_a_prob = 0.03;
  plan.fp16_overflow_prob = 0.03;
  analysis::ScopedFaultPlan guard(plan);

  AlsEngine engine(tiny_ratings(), tiny_options(SolverKind::CgFp16));
  engine.run_epoch();
  engine.run_epoch();

  const SolveStats stats = engine.solve_stats();
  // Indefinite and NaN systems break CG; overflowed diagonals break the
  // FP16 pack; only the NaN systems are unsolvable even exactly.
  EXPECT_GT(stats.cg_fallbacks, 0u);
  EXPECT_GT(stats.fp16_fallbacks, 0u);
  EXPECT_GT(stats.failures, 0u);
  EXPECT_LT(stats.failures, stats.systems);
  // The degradation ladder must keep every factor finite: failed rows keep
  // their previous (finite) value instead of absorbing NaN.
  EXPECT_TRUE(all_finite(engine.user_factors()));
  EXPECT_TRUE(all_finite(engine.item_factors()));
}

TEST(AlsFaults, FaultCountsAreScheduleInvariant) {
  analysis::FaultPlan plan;
  plan.seed = 21;
  plan.indefinite_a_prob = 0.05;
  const auto run = [&plan](int workers, AlsSchedule schedule) {
    analysis::ScopedFaultPlan guard(plan);
    AlsOptions options = tiny_options(SolverKind::CgFp32);
    options.workers = workers;
    options.schedule = schedule;
    AlsEngine engine(tiny_ratings(), options);
    engine.run_epoch();
    return engine.solve_stats();
  };
  const SolveStats serial = run(1, AlsSchedule::static_rows);
  const SolveStats guided = run(3, AlsSchedule::nnz_guided);
  EXPECT_GT(serial.cg_fallbacks, 0u);
  EXPECT_EQ(serial.cg_fallbacks, guided.cg_fallbacks);
  EXPECT_EQ(serial.failures, guided.failures);
}

}  // namespace
}  // namespace cumf
