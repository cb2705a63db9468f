#include "data/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "data/atomic_file.hpp"

namespace cumf {
namespace {

constexpr std::string_view kWhat = "checkpoint";

void put_matrix(ByteWriter& w, const Matrix& m) {
  w.put<std::uint64_t>(m.rows());
  w.put<std::uint64_t>(m.cols());
  w.put_array(m.data());
}

Matrix get_matrix(ByteReader& r) {
  const auto rows = r.get<std::uint64_t>();
  const auto cols = r.get<std::uint64_t>();
  // Guard the multiplication before allocating: a corrupted-but-CRC-valid
  // header must not become a multi-terabyte allocation.
  const std::uint64_t max_elems = r.remaining() / sizeof(real_t);
  if (rows > max_elems || (rows != 0 && cols > max_elems / rows)) {
    reject(FrameReject::malformed, kWhat, "matrix dims exceed payload size");
  }
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  r.get_array(m.data());
  return m;
}

std::string render_payload(const TrainCheckpoint& ckpt) {
  std::string payload;
  ByteWriter w(payload);
  w.put<std::uint32_t>(ckpt.epoch);
  for (const std::uint64_t word : ckpt.rng.s) {
    w.put(word);
  }
  w.put(ckpt.rng.cached_normal);
  w.put<std::uint8_t>(ckpt.rng.has_cached_normal ? 1 : 0);
  w.put(ckpt.train_seconds);

  w.put(ckpt.seed);
  w.put(ckpt.f);
  w.put(ckpt.solver_kind);
  w.put(ckpt.cg_fs);
  w.put(ckpt.lambda);
  w.put(ckpt.rows);
  w.put(ckpt.cols);
  w.put(ckpt.train_nnz);

  const SolveStats& s = ckpt.solve_stats;
  w.put(s.systems);
  w.put(s.cg_iterations);
  w.put(s.failures);
  w.put(s.fp16_converted);
  w.put(s.cg_fallbacks);
  w.put(s.fp16_fallbacks);
  for (const std::uint64_t bucket : s.cg_hist) {
    w.put(bucket);
  }

  w.put<std::uint32_t>(static_cast<std::uint32_t>(ckpt.curve.size()));
  for (const ConvergenceTracker::Point& p : ckpt.curve) {
    w.put(p.seconds);
    w.put(p.rmse);
    w.put<std::int32_t>(p.epoch);
  }

  put_matrix(w, ckpt.x);
  put_matrix(w, ckpt.theta);
  return payload;
}

TrainCheckpoint parse_payload(std::string_view payload) {
  TrainCheckpoint ckpt;
  ByteReader r(payload, kWhat);
  ckpt.epoch = r.get<std::uint32_t>();
  for (std::uint64_t& word : ckpt.rng.s) {
    word = r.get<std::uint64_t>();
  }
  ckpt.rng.cached_normal = r.get<double>();
  ckpt.rng.has_cached_normal = r.get<std::uint8_t>() != 0;
  ckpt.train_seconds = r.get<double>();

  ckpt.seed = r.get<std::uint64_t>();
  ckpt.f = r.get<std::uint64_t>();
  ckpt.solver_kind = r.get<std::uint32_t>();
  ckpt.cg_fs = r.get<std::uint32_t>();
  ckpt.lambda = r.get<float>();
  ckpt.rows = r.get<std::uint32_t>();
  ckpt.cols = r.get<std::uint32_t>();
  ckpt.train_nnz = r.get<std::uint64_t>();

  SolveStats& s = ckpt.solve_stats;
  s.systems = r.get<std::uint64_t>();
  s.cg_iterations = r.get<std::uint64_t>();
  s.failures = r.get<std::uint64_t>();
  s.fp16_converted = r.get<std::uint64_t>();
  s.cg_fallbacks = r.get<std::uint64_t>();
  s.fp16_fallbacks = r.get<std::uint64_t>();
  for (std::uint64_t& bucket : s.cg_hist) {
    bucket = r.get<std::uint64_t>();
  }

  const auto curve_len = r.get<std::uint32_t>();
  ckpt.curve.reserve(curve_len);
  for (std::uint32_t i = 0; i < curve_len; ++i) {
    ConvergenceTracker::Point p;
    p.seconds = r.get<double>();
    p.rmse = r.get<double>();
    p.epoch = r.get<std::int32_t>();
    ckpt.curve.push_back(p);
  }

  ckpt.x = get_matrix(r);
  ckpt.theta = get_matrix(r);
  r.expect_end();
  return ckpt;
}

}  // namespace

std::string serialize_checkpoint(const TrainCheckpoint& ckpt) {
  return frame(kCheckpointMagic, kCheckpointVersion, render_payload(ckpt));
}

TrainCheckpoint parse_checkpoint(std::string_view bytes) {
  return parse_payload(
      unframe(kCheckpointMagic, kCheckpointVersion, bytes, kWhat));
}

void write_checkpoint_file(const std::string& path,
                           const TrainCheckpoint& ckpt) {
  atomic_write_file(path, serialize_checkpoint(ckpt));
}

TrainCheckpoint read_checkpoint_file(const std::string& path) {
  return parse_checkpoint(read_file(path));
}

std::string checkpoint_path(const std::string& dir, int epoch) {
  CUMF_EXPECTS(epoch >= 0, "checkpoint epoch must be non-negative");
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06d.bin", epoch);
  return (std::filesystem::path(dir) / name).string();
}

std::optional<std::string> latest_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::optional<std::string> best;
  std::string best_name;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0 || name.size() < 10 ||
        name.substr(name.size() - 4) != ".bin") {
      continue;
    }
    // Zero-padded epoch → lexicographic order is numeric order.
    if (!best || name > best_name) {
      best = entry.path().string();
      best_name = name;
    }
  }
  return best;
}

void prune_checkpoints(const std::string& dir, int keep) {
  CUMF_EXPECTS(keep >= 1, "must keep at least one checkpoint");
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) {
      continue;
    }
    // An atomic write that crashed between create and rename leaves a
    // "ckpt-*.bin.tmp.<pid>" orphan behind; it is never a valid resume
    // target (latest_checkpoint skips it), so pruning collects it too.
    if (name.find(".bin.tmp.") != std::string::npos) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name.size() >= 10 && name.substr(name.size() - 4) == ".bin") {
      found.push_back(entry.path());
    }
  }
  if (found.size() <= static_cast<std::size_t>(keep)) {
    return;
  }
  std::sort(found.begin(), found.end());
  for (std::size_t i = 0; i + static_cast<std::size_t>(keep) < found.size();
       ++i) {
    fs::remove(found[i], ec);
  }
}

}  // namespace cumf
