// cutune tests: the determinism contract (byte-identical configs across
// runs and tuner worker counts), the winner-vs-default guarantee, pruning
// monotonicity against exhaustive probing, and the full persistence
// rejection taxonomy (bad magic, version skew, truncation, CRC, malformed
// payload, fingerprint mismatch).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "sparse/csr.hpp"
#include "tune/tune.hpp"

namespace cumf::tune {
namespace {

// ---------- shared fixtures ----------

/// ~1.5k synthetic ratings on a 120x60 grid, pre-split and canonical.
TuneInput make_input(std::size_t f) {
  Rng rng(77);
  std::vector<Rating> train_entries;
  std::vector<Rating> test_entries;
  for (int i = 0; i < 1600; ++i) {
    Rating r{static_cast<index_t>(rng.uniform_index(120)),
             static_cast<index_t>(rng.uniform_index(60)),
             static_cast<real_t>(rng.uniform(1.0, 5.0))};
    (i % 8 == 0 ? test_entries : train_entries).push_back(r);
  }
  TuneInput input;
  input.train = RatingsCoo(120, 60, std::move(train_entries));
  input.train.sort_and_dedup();
  input.test = RatingsCoo(120, 60, std::move(test_entries));
  input.test.sort_and_dedup();
  input.fingerprint.device = gpusim::DeviceSpec::maxwell_titan_x().name;
  input.fingerprint.rows = 120;
  input.fingerprint.cols = 60;
  input.fingerprint.nnz = 1600;
  input.fingerprint.f = static_cast<std::uint32_t>(f);
  input.fingerprint.lambda = 0.05f;
  return input;
}

/// A small-but-real search space: every knob axis is exercised, exhaustive
/// probing stays cheap enough for the monotonicity test.
TuneRequest make_request() {
  TuneRequest req;
  req.f = 16;
  req.probe_epochs = 1;
  req.finalists = 6;
  req.tile_grid = {8, 16};
  req.bin_grid = {16, 32};
  req.fs_grid = {2, 6};
  req.worker_grid = {1, 2};
  req.include_scalar_path = false;
  return req;
}

// ---------- enumeration + model ----------

TEST(TuneGrid, DefaultChoiceComesFirstAndPointsAreUnique) {
  const TuneRequest req = make_request();
  const std::vector<TuneChoice> grid = enumerate_grid(req);
  ASSERT_FALSE(grid.empty());
  // The baseline the winner must beat comes first, normalized for this f
  // (pick_tile collapses the default tile=10 to a divisor of f).
  TuneChoice def;
  def.tile = pick_tile(req.f, def.tile);
  EXPECT_EQ(grid.front(), def);
  std::set<std::string> seen;
  for (const TuneChoice& c : grid) {
    // Normalized key over every knob; enumerate_grid must dedup points that
    // pick_tile collapses.
    std::string key = std::to_string(c.tile) + "/" + std::to_string(c.bin) +
                      "/" + std::to_string(static_cast<int>(c.solver)) + "/" +
                      std::to_string(c.fs) + "/" +
                      std::to_string(static_cast<int>(c.schedule)) + "/" +
                      std::to_string(static_cast<int>(c.path)) + "/" +
                      std::to_string(c.workers) + "/" +
                      std::to_string(c.gpus) + "/" + c.link + "/" +
                      std::to_string(c.ooc_host_bytes);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate grid point " << key;
    EXPECT_EQ(static_cast<std::size_t>(req.f) %
                  static_cast<std::size_t>(c.tile),
              0u)
        << "tile " << c.tile << " does not divide f";
  }
  // Exact solvers requested -> LU and Cholesky candidates present.
  bool saw_lu = false;
  bool saw_chol = false;
  for (const TuneChoice& c : grid) {
    saw_lu |= c.solver == SolverKind::LuFp32;
    saw_chol |= c.solver == SolverKind::CholeskyFp32;
  }
  EXPECT_TRUE(saw_lu);
  EXPECT_TRUE(saw_chol);
}

TEST(TuneModel, OocBudgetBelowLargestTileIsInfeasible) {
  TuneRequest req = make_request();
  TileRange tile;
  tile.row_begin = 0;
  tile.row_end = 60;
  tile.nnz = 700;
  tile.bytes = 1 << 20;
  req.ooc_row_tiles = {tile};
  const TuneInput input = make_input(req.f);
  const auto csr = CsrMatrix::from_coo(input.train);

  TuneChoice starved;
  starved.ooc_host_bytes = 64;  // far below one resident tile
  const Candidate c = evaluate_model(req, csr, starved);
  EXPECT_FALSE(c.feasible);
  EXPECT_NE(c.infeasible_why.find("host budget"), std::string::npos);

  // On a shard store every choice needs a budget — in-core (0) is not an
  // option the tuner may pick, since the dataset doesn't fit by premise.
  const Candidate zero = evaluate_model(req, csr, TuneChoice{});
  EXPECT_FALSE(zero.feasible);

  // A comfortable budget is feasible and never models faster than the same
  // choice trained in-core (streaming can stall but cannot help).
  TuneChoice roomy;
  roomy.ooc_host_bytes = 8ull << 20;
  const Candidate ok = evaluate_model(req, csr, roomy);
  ASSERT_TRUE(ok.feasible);
  TuneRequest incore_req = make_request();  // same knobs, no shard tiles
  const Candidate incore = evaluate_model(incore_req, csr, TuneChoice{});
  ASSERT_TRUE(incore.feasible);
  EXPECT_GE(ok.model_epoch_s, incore.model_epoch_s);
}

// ---------- the search itself ----------

TEST(TuneSearch, WinnerNeverModelsSlowerThanDefault) {
  const TuneRequest req = make_request();
  const TuneInput input = make_input(req.f);
  const TunedConfig config = tune(req, input);
  EXPECT_GT(config.candidates, config.finalists);
  EXPECT_EQ(config.candidates, config.pruned + config.finalists);
  EXPECT_LE(config.model_epoch_s, config.default_epoch_s);
  EXPECT_GT(config.model_epoch_s, 0.0);
  EXPECT_FALSE(config.verdicts.empty());
  EXPECT_EQ(config.fingerprint, input.fingerprint);
}

TEST(TuneSearch, ByteIdenticalAcrossRunsAndWorkerCounts) {
  const TuneInput input = make_input(16);
  std::string first;
  for (int workers : {1, 1, 4}) {  // repeat run, then a parallel run
    TuneRequest req = make_request();
    req.workers = workers;
    const std::string bytes = serialize_tuned_config(tune(req, input));
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first) << "workers=" << workers
                              << " changed the serialized config";
    }
  }
}

TEST(TuneSearch, PruningNeverDiscardsAClearlyBetterVariant) {
  // Exhaustively probe every feasible grid point and compare against the
  // pruned search: the winner's counter-refined time must be within 10% of
  // the best any discarded variant would have achieved. (The model may
  // mis-rank near-ties; it must not bury a clear winner.)
  const TuneRequest req = make_request();
  const TuneInput input = make_input(req.f);
  const TunedConfig config = tune(req, input);

  const auto csr = CsrMatrix::from_coo(input.train);
  double best_refined = std::numeric_limits<double>::infinity();
  for (const TuneChoice& choice : enumerate_grid(req)) {
    Candidate c = evaluate_model(req, csr, choice);
    if (!c.feasible) {
      continue;
    }
    probe_candidate(req, input, csr, c);
    if (c.refined_epoch_s < best_refined) {
      best_refined = c.refined_epoch_s;
    }
  }
  ASSERT_TRUE(std::isfinite(best_refined));
  EXPECT_LE(config.model_epoch_s, best_refined * 1.10)
      << "the model prune discarded a variant that probes >10% faster";
}

// ---------- persistence ----------

TEST(TunePersist, RoundTripIsByteIdentical) {
  const TuneRequest req = make_request();
  const TunedConfig config = tune(req, make_input(req.f));
  const std::string bytes = serialize_tuned_config(config);
  const TunedConfig back = parse_tuned_config(bytes);
  EXPECT_EQ(back.fingerprint, config.fingerprint);
  EXPECT_EQ(back.choice, config.choice);
  EXPECT_EQ(back.candidates, config.candidates);
  EXPECT_EQ(back.pruned, config.pruned);
  EXPECT_EQ(back.finalists, config.finalists);
  // The payload prints doubles at 12 significant digits, so parsed values
  // match to that precision; byte-identity of the *re-serialized* form is
  // the real contract (asserted below).
  EXPECT_NEAR(back.model_epoch_s, config.model_epoch_s,
              config.model_epoch_s * 1e-9);
  EXPECT_NEAR(back.default_epoch_s, config.default_epoch_s,
              config.default_epoch_s * 1e-9);
  EXPECT_EQ(back.verdicts.size(), config.verdicts.size());
  EXPECT_EQ(serialize_tuned_config(back), bytes);
}

// The on-disk bytes of a hand-built config, pinned by size and CRC-32. A
// tune() result would pin the build's floating-point contraction as well;
// these fields are all exact in the payload's 12 significant digits.
TEST(TunePersist, BytesArePinned) {
  TunedConfig config;
  config.fingerprint.device = "Maxwell Titan X";
  config.fingerprint.rows = 120;
  config.fingerprint.cols = 60;
  config.fingerprint.nnz = 1600;
  config.fingerprint.f = 16;
  config.fingerprint.lambda = 0.25f;
  config.choice.tile = 8;
  config.choice.bin = 64;
  config.choice.solver = SolverKind::CgFp16;
  config.choice.fs = 4;
  config.choice.schedule = AlsSchedule::static_rows;
  config.choice.path = simd::KernelPath::simd;
  config.choice.workers = 2;
  config.choice.gpus = 2;
  config.choice.link = "pcie3";
  config.choice.ooc_host_bytes = 1 << 20;
  config.model_epoch_s = 0.5;
  config.default_epoch_s = 1.5;
  config.mean_cg_iters = 3.25;
  config.probe_rmse = 0.875;
  config.candidates = 96;
  config.pruned = 90;
  config.finalists = 6;
  prof::Verdict v;
  v.phase = "get_hermitian";
  v.bound = prof::Bound::dram;
  v.arithmetic_intensity = 2.5;
  v.pct_of_roof = 0.75;
  v.headroom = 0.25;
  v.wall_s = 0.0625;
  config.verdicts.push_back(v);
  const std::string bytes = serialize_tuned_config(config);
  EXPECT_EQ(bytes.size(), 586u);
  EXPECT_EQ(crc32(bytes), 0x3119f6d2u);
}

FrameReject reject_reason(const std::string& bytes) {
  try {
    (void)parse_tuned_config(bytes);
  } catch (const FrameError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "tampered config was accepted";
  return FrameReject::io;
}

TEST(TunePersist, RejectionTaxonomy) {
  const TuneRequest req = make_request();
  const std::string good = serialize_tuned_config(tune(req, make_input(16)));
  ASSERT_NO_THROW(parse_tuned_config(good));

  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(reject_reason(bad), FrameReject::bad_magic);

  bad = good;
  bad[8] = static_cast<char>(kTuneVersion + 1);  // version u32 LE at offset 8
  EXPECT_EQ(reject_reason(bad), FrameReject::version_skew);

  EXPECT_EQ(reject_reason(good.substr(0, 10)), FrameReject::truncated);
  EXPECT_EQ(reject_reason(good.substr(0, good.size() - 3)),
            FrameReject::truncated);
  // A length near 2^64 must not wrap the bounds check into a read before
  // the buffer (u64 LE at offset 12).
  for (const std::uint64_t len : {~std::uint64_t{0} - 20, ~std::uint64_t{0}}) {
    bad = good;
    std::memcpy(bad.data() + 12, &len, sizeof(len));
    EXPECT_EQ(reject_reason(bad), FrameReject::truncated) << len;
  }

  bad = good;
  bad[40] ^= 0x5a;  // flip a payload byte; frame stays intact
  EXPECT_EQ(reject_reason(bad), FrameReject::bad_crc);

  // A frame whose CRC is valid but whose payload is not the expected JSON
  // must be rejected as malformed, for both non-JSON and wrong-shape JSON.
  const auto frame = [](const std::string& payload) {
    std::string out(kTuneMagic);
    const auto le = [&out](std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
    };
    le(kTuneVersion, 4);
    le(payload.size(), 8);
    out += payload;
    le(crc32(payload), 4);
    return out;
  };
  EXPECT_EQ(reject_reason(frame("not json at all")), FrameReject::malformed);
  EXPECT_EQ(reject_reason(frame("{\"type\":\"wrong\"}")),
            FrameReject::malformed);
  EXPECT_EQ(reject_reason(frame("{}")), FrameReject::malformed);
}

TEST(TunePersist, FileRoundTripAndDirectoryLookup) {
  const TuneRequest req = make_request();
  const TuneInput input = make_input(req.f);
  const TunedConfig config = tune(req, input);

  const auto dir =
      std::filesystem::temp_directory_path() / "cumf_tune_test_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string file =
      (dir / tuned_config_filename(config.fingerprint)).string();
  write_tuned_config_file(file, config);

  // Load by explicit path and by directory; both validate the fingerprint.
  EXPECT_EQ(load_tuned_config(file, input.fingerprint).choice, config.choice);
  EXPECT_EQ(load_tuned_config(dir.string(), input.fingerprint).choice,
            config.choice);

  // Any fingerprint drift is a mismatch naming the differing field.
  TuneFingerprint other = input.fingerprint;
  other.f = 64;
  try {
    (void)load_tuned_config(file, other);
    FAIL() << "fingerprint mismatch was accepted";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::mismatch);
    EXPECT_NE(std::string(e.what()).find("f"), std::string::npos);
  }

  // Missing file / empty directory -> io, naming the expected filename.
  try {
    (void)load_tuned_config((dir / "nope.bin").string(), input.fingerprint);
    FAIL() << "missing file was accepted";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.reason(), FrameReject::io);
  }
  std::filesystem::remove_all(dir);
}

TEST(TunePersist, FilenameIsSanitizedAndKeyed) {
  TuneFingerprint fp;
  fp.device = "Maxwell Titan X";
  fp.rows = 120;
  fp.cols = 60;
  fp.nnz = 1600;
  fp.f = 16;
  EXPECT_EQ(tuned_config_filename(fp),
            "tune-maxwell-titan-x-120x60-1600-f16.bin");
}

}  // namespace
}  // namespace cumf::tune
