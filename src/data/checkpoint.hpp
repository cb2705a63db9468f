// Crash-safe training checkpoints: versioned binary snapshots with CRC.
//
// A checkpoint captures everything a killed training run needs to continue
// bit-identically: both factor matrices, the epoch counter, the holdout-
// split RNG state, the cumulative SolveStats, and the ConvergenceTracker
// curve, plus a run fingerprint (f, solver, fs, λ, seed, dataset shape)
// that resume validates so a checkpoint is never applied to the wrong run.
//
// Files use the shared frame (data/frame.hpp: magic "CUMFCKPT",
// kCheckpointVersion, length, payload, CRC-32), so a torn, corrupted or
// foreign file is rejected with a FrameError naming its FrameReject reason,
// which the CLI turns into a nonzero-exit diagnostic. Files are written
// through atomic_write_file, so a crash mid-checkpoint can never damage the
// previous good checkpoint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "data/frame.hpp"
#include "linalg/dense.hpp"
#include "metrics/convergence.hpp"

namespace cumf {

inline constexpr std::string_view kCheckpointMagic = "CUMFCKPT";
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Full resumable training state plus the run fingerprint.
struct TrainCheckpoint {
  // --- resumable state ---
  std::uint32_t epoch = 0;      ///< epochs completed when snapshotted
  Rng::State rng;               ///< holdout-split RNG after the split
  double train_seconds = 0.0;   ///< cumulative wall seconds before resume
  SolveStats solve_stats;       ///< cumulative since the logical run began
  std::vector<ConvergenceTracker::Point> curve;  ///< per-epoch RMSE history
  Matrix x;                     ///< m×f user factors
  Matrix theta;                 ///< n×f item factors

  // --- run fingerprint (validated by resume) ---
  std::uint64_t seed = 0;
  std::uint64_t f = 0;
  std::uint32_t solver_kind = 0;  ///< static_cast<uint32_t>(SolverKind)
  std::uint32_t cg_fs = 0;
  float lambda = 0.0f;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint64_t train_nnz = 0;
};

/// Renders the framed byte stream (magic, version, length, payload, CRC).
std::string serialize_checkpoint(const TrainCheckpoint& ckpt);

/// Parses and validates a byte stream; throws FrameError.
TrainCheckpoint parse_checkpoint(std::string_view bytes);

/// Atomic write via temp-file + rename (see data/atomic_file.hpp).
void write_checkpoint_file(const std::string& path,
                           const TrainCheckpoint& ckpt);

/// Reads and validates; throws FrameError (reason io if unreadable).
TrainCheckpoint read_checkpoint_file(const std::string& path);

/// "DIR/ckpt-<epoch, zero-padded>.bin" — sortable lexicographically.
std::string checkpoint_path(const std::string& dir, int epoch);

/// Highest-epoch "ckpt-*.bin" in `dir`; nullopt when none (or no dir).
std::optional<std::string> latest_checkpoint(const std::string& dir);

/// Deletes all but the `keep` highest-epoch checkpoints in `dir`, bounding
/// disk use for long runs. keep >= 1. Also collects "ckpt-*.bin.tmp.*"
/// orphans left by atomic writes that crashed before their rename.
void prune_checkpoints(const std::string& dir, int keep);

}  // namespace cumf
