// cutune: cost-model-pruned auto-tuning over the cuMF variant space.
//
// The paper's headline numbers (Figs. 4-8, Table III) come from hand-picked
// per-device knobs: BIN/tile sizes, the CG truncation fs, FP16 staging, the
// worker schedule, the kernel path, device counts and the interconnect.
// cutune makes that search reproducible:
//
//   1. enumerate_grid() spans the knob space (a few thousand candidates);
//   2. evaluate_model() scores every candidate against the gpusim cost
//      model — occupancy feasibility, the trace-driven cache simulation
//      behind update_phase_times(), the all-gather interconnect model and
//      the out-of-core stream pipeline — which prunes the field to a
//      handful of finalists without training anything;
//   3. probe_candidate() runs real AlsEngine epochs for each finalist and
//      refines its score with the *measured deterministic counters* (mean
//      CG iterations, FP16/CG fallback rates) plugged back into the model;
//   4. tune() picks the winner — the default configuration is always a
//      finalist, so the winner's modeled epoch time never exceeds the
//      default's — and attaches cuscope roofline verdicts explaining why
//      the chosen variant wins.
//
// Determinism contract: the persisted TunedConfig is a pure function of
// (dataset bytes, TuneRequest) — rankings use modeled seconds refined by
// deterministic counters, never wall-clock measurements (wall times appear
// only in the human-readable trace). Repeated runs and any tuner worker
// count serialize byte-identical configs; tests/test_tune.cpp pins this.
//
// Persistence: versioned JSON payload inside the shared CRC frame
// (data/frame.hpp, magic "CUMFTUNE", kTuneVersion), keyed by a device x
// dataset fingerprint that `cumf_train --auto-tune` validates before
// applying anything. Rejections are FrameErrors, so the CLI names the
// FrameReject reason as it does for checkpoints and shard files.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/als.hpp"
#include "core/kernel_stats.hpp"
#include "data/frame.hpp"
#include "data/shards.hpp"
#include "gpusim/device.hpp"
#include "prof/bottleneck.hpp"
#include "simd/vec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf::tune {

inline constexpr std::string_view kTuneMagic = "CUMFTUNE";
inline constexpr std::uint32_t kTuneVersion = 1;

/// The device x dataset x rank identity a tuned config is valid for.
/// `cumf_train --auto-tune` recomputes this from its own inputs and
/// rejects (FrameReject::mismatch) on any difference.
struct TuneFingerprint {
  std::string device;       ///< gpusim DeviceSpec name
  std::uint32_t rows = 0;   ///< dataset rows (pre-split)
  std::uint32_t cols = 0;   ///< dataset cols
  std::uint64_t nnz = 0;    ///< dataset nnz (pre-split)
  std::uint32_t f = 0;      ///< latent dimension
  float lambda = 0.0f;      ///< ALS-WR regularization
  friend bool operator==(const TuneFingerprint&,
                         const TuneFingerprint&) = default;
};

/// One point of the knob space. The defaults reproduce cumf_train's
/// defaults exactly, so the default-constructed choice *is* "the default
/// config" the acceptance gate compares the winner against.
struct TuneChoice {
  int tile = 10;
  int bin = 32;
  SolverKind solver = SolverKind::CgFp16;  ///< CgFp16 = FP16 staging on
  std::uint32_t fs = 6;                    ///< CG truncation depth
  AlsSchedule schedule = AlsSchedule::nnz_guided;
  simd::KernelPath path = simd::kDefaultPath;
  int workers = 1;  ///< host lanes of the functional run
  int gpus = 1;
  std::string link = "nvlink";
  /// Out-of-core host tile budget in bytes; 0 = in-core training. Only
  /// enumerated when the tuned dataset is a shard store.
  std::uint64_t ooc_host_bytes = 0;
  friend bool operator==(const TuneChoice&, const TuneChoice&) = default;
};

/// One evaluated grid point: cheap model score, and — for finalists — the
/// probe counters plus the counter-refined score the winner is ranked by.
/// `wall_epoch_s` is measured host time, printed in the trace for humans
/// but never ranked or persisted (it would break determinism).
struct Candidate {
  TuneChoice choice;
  bool feasible = true;
  std::string infeasible_why;  ///< occupancy / budget reason when !feasible
  double model_epoch_s = std::numeric_limits<double>::infinity();
  bool probed = false;
  double mean_cg_iters = 0;  ///< measured CG iterations per system
  std::uint64_t cg_fallbacks = 0;
  std::uint64_t fp16_fallbacks = 0;
  std::uint64_t failures = 0;
  double probe_rmse = std::numeric_limits<double>::quiet_NaN();
  double refined_epoch_s = std::numeric_limits<double>::infinity();
  double wall_epoch_s = 0;  ///< trace-only; never ranked or persisted
  bool quality_ok = true;   ///< RMSE within slack of the best finalist
};

/// What to search and how hard. The grids are overridable so tests can run
/// tiny spaces; empty grids fall back to the single default value.
struct TuneRequest {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::maxwell_titan_x();
  std::size_t f = 32;
  double lambda = 0.05;
  std::uint64_t seed = 1;
  int probe_epochs = 2;       ///< real epochs per finalist probe
  std::size_t finalists = 8;  ///< candidates surviving the model prune
  /// Tuner-side parallelism: finalist probes run concurrently on this many
  /// threads. Not a knob — the output is byte-identical for any value.
  int workers = 1;
  /// A finalist whose probe RMSE exceeds the best finalist's by more than
  /// this relative slack is disqualified (approximation quality gate).
  double rmse_slack = 0.02;
  // --- grid overrides ---
  std::vector<int> tile_grid{4, 8, 10, 16, 20};
  std::vector<int> bin_grid{16, 32, 64};
  std::vector<std::uint32_t> fs_grid{2, 4, 6, 8};
  std::vector<int> worker_grid{1, 2, 4, 8};
  bool include_exact = true;        ///< LU / Cholesky candidates
  bool include_scalar_path = true;  ///< scalar KernelPath candidates
  int max_gpus = 1;  ///< >1 adds multi-GPU candidates over both links
  /// Out-of-core dimension: when the dataset is a shard store, its row
  /// tiles drive the stream-pipeline model and host budgets are enumerated
  /// up to `ooc_host_cap` (0 = the full store). Empty = in-core only.
  std::vector<TileRange> ooc_row_tiles;
  std::uint64_t ooc_host_cap = 0;
};

/// The persisted artifact: winner + provenance. `model_epoch_s` and
/// `default_epoch_s` are counter-refined modeled seconds under identical
/// assumptions, so their ratio is the claimed speedup.
struct TunedConfig {
  std::uint32_t version = kTuneVersion;
  TuneFingerprint fingerprint;
  TuneChoice choice;
  double model_epoch_s = 0;
  double default_epoch_s = 0;
  double mean_cg_iters = 0;
  double probe_rmse = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t candidates = 0;  ///< grid points enumerated
  std::uint64_t pruned = 0;      ///< rejected by the model without training
  std::uint64_t finalists = 0;   ///< probed with real epochs
  /// cuscope roofline verdicts of the winning configuration (the "why").
  std::vector<prof::Verdict> verdicts;
};

/// The dataset under tuning. `train`/`test` must be canonical (sorted,
/// deduped) — tune() trains probe engines directly on them. The
/// fingerprint describes the *pre-split* dataset the config will be keyed
/// by (cumf_train recomputes it from the raw ratings file / shard meta).
struct TuneInput {
  TuneFingerprint fingerprint;
  RatingsCoo train;
  RatingsCoo test;  ///< empty → the RMSE quality gate is skipped
};

/// Every grid point of the request's knob space, default choice first.
/// Deduplicates points that normalize to the same configuration (e.g.
/// tile values that pick_tile collapses for this f).
std::vector<TuneChoice> enumerate_grid(const TuneRequest& req);

/// Stage-2 cheap score: modeled epoch seconds of `choice` on the request's
/// device — kernel roofs from update_phase_times (compute derated on the
/// scalar path), the schedule's nnz-imbalance factor over the worker
/// lanes, the multi-GPU all-gather, and the out-of-core stream stall.
/// Infeasible choices (zero-occupancy kernels, budgets below the largest
/// tile) come back with feasible=false and an explanation instead of a
/// score. Deterministic; no training.
Candidate evaluate_model(const TuneRequest& req, const CsrMatrix& train_csr,
                         const TuneChoice& choice);

/// Stage-3 probe: runs `req.probe_epochs` real epochs of this candidate's
/// configuration and refines the model score with the measured counters
/// (mean CG iterations replace the configured fs; FP16/CG fallback rates
/// charge their retry traffic). Fills the probe fields of `c`.
void probe_candidate(const TuneRequest& req, const TuneInput& input,
                     const CsrMatrix& train_csr, Candidate& c);

/// The full pipeline: enumerate → model-prune → probe finalists → pick the
/// deterministic winner and attach its roofline verdicts. `trace`, when
/// given, receives every candidate (finalists carry probe data) in
/// enumeration order for the CLI's human-readable report.
TunedConfig tune(const TuneRequest& req, const TuneInput& input,
                 std::vector<Candidate>* trace = nullptr);

// --- persistence -----------------------------------------------------------

/// The JSON payload alone (no CRC frame): what --metrics headers embed and
/// docs/tuning.md documents. Byte-deterministic for equal configs.
std::string tuned_config_payload(const TunedConfig& config);

/// Renders the framed byte stream (magic, version, length, payload, CRC).
std::string serialize_tuned_config(const TunedConfig& config);

/// Parses and validates a framed byte stream; throws FrameError.
TunedConfig parse_tuned_config(std::string_view bytes);

/// "tune-<device>-<rows>x<cols>-<nnz>-f<f>.bin", device lower-cased with
/// non-alphanumerics collapsed to '-': the key a directory of tuned
/// configs is indexed by.
std::string tuned_config_filename(const TuneFingerprint& fp);

/// Atomic write via temp-file + rename (see data/atomic_file.hpp).
void write_tuned_config_file(const std::string& path,
                             const TunedConfig& config);

/// Reads and validates; throws FrameError (reason io if unreadable).
TunedConfig read_tuned_config_file(const std::string& path);

/// Resolves `path_or_dir` (a config file, or a directory indexed by
/// tuned_config_filename), reads it, and validates its fingerprint against
/// `expected`; throws FrameError with reason mismatch naming the first
/// differing field. This is the `cumf_train --auto-tune` entry point.
TunedConfig load_tuned_config(const std::string& path_or_dir,
                              const TuneFingerprint& expected);

}  // namespace cumf::tune
