#include "gpusim/trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cumf::gpusim {

namespace {

/// Streams the load-phase warp instructions of one thread-block staging the
/// feature columns `cols` under `config`'s scheme, one instruction per
/// next() call, into a buffer the generator owns. Under scheme (b) the lane
/// addresses of an element step are the batch's per-lane column offsets
/// plus one common stride, so each warp's lanes are sorted by address once
/// per BIN batch; every step then reads its distinct lines off that order
/// in ascending sequence without a per-instruction sort or allocation.
class LoadTraceGenerator {
 public:
  /// `cols` must outlive the generator.
  LoadTraceGenerator(const DeviceSpec& dev, const TraceConfig& config,
                     std::span<const index_t> cols);

  /// The next instruction's distinct cache-line addresses in ascending
  /// order (never empty), or an empty span once the stream is exhausted.
  /// The span is valid until the next call.
  std::span<const std::uint64_t> next();

 private:
  /// One lane of a scheme-(b) warp for the current batch: the address of
  /// its first element and that element's index within the column.
  struct Lane {
    std::uint64_t addr = 0;
    std::uint64_t elem = 0;
  };

  std::uint64_t col_base(index_t v) const noexcept {
    return theta_base_ + static_cast<std::uint64_t>(v) * col_bytes_;
  }
  std::uint64_t line_of(std::uint64_t addr) const noexcept {
    return addr & line_mask_;
  }
  /// Scheme (b): lays out the batch starting at `batch_` and sorts each
  /// warp's lanes by address.
  void start_batch();

  std::span<const index_t> cols_;
  std::uint64_t theta_base_;
  std::uint64_t f_;
  std::uint64_t col_bytes_;
  std::uint64_t line_mask_;  ///< clears the offset within a cache line
  std::size_t bin_;
  std::size_t warp_;
  std::size_t warps_per_block_;
  std::size_t threads_per_block_;
  bool coalesced_;
  std::vector<std::uint64_t> lines_;  ///< the returned instruction

  // Scheme (a) cursor: column cols_[col_], byte offset off_ within it.
  std::size_t col_ = 0;
  std::uint64_t off_ = 0;

  // Scheme (b) cursor: batch start, element step, warp of the step.
  std::size_t batch_ = 0;
  std::uint64_t seg_len_ = 0;
  std::uint64_t step_ = 0;
  std::size_t warp_idx_ = 0;
  std::vector<Lane> lanes_;  ///< [warp][lane], sorted by addr per warp
};

LoadTraceGenerator::LoadTraceGenerator(const DeviceSpec& dev,
                                       const TraceConfig& config,
                                       std::span<const index_t> cols)
    : cols_(cols),
      theta_base_(config.theta_base),
      f_(static_cast<std::uint64_t>(config.f)),
      col_bytes_(f_ * sizeof(real_t)),
      line_mask_(~(static_cast<std::uint64_t>(dev.cache_line_bytes) - 1)),
      bin_(static_cast<std::size_t>(config.bin)),
      warp_(static_cast<std::size_t>(dev.warp_size)),
      warps_per_block_(static_cast<std::size_t>(config.threads_per_block /
                                                dev.warp_size)),
      threads_per_block_(static_cast<std::size_t>(config.threads_per_block)),
      coalesced_(config.coalesced) {
  CUMF_EXPECTS(config.f > 0 && config.bin > 0, "f and BIN must be positive");
  CUMF_EXPECTS(config.threads_per_block % dev.warp_size == 0,
               "block must be whole warps");
  CUMF_EXPECTS(dev.cache_line_bytes > 0 &&
                   (dev.cache_line_bytes & (dev.cache_line_bytes - 1)) == 0,
               "cache line must be a power of 2");
  // Scheme (a) spans at most warp_size floats per instruction; scheme (b)
  // touches at most one line per lane.
  lines_.resize(std::max(warp_, warp_ * sizeof(real_t) /
                                        static_cast<std::size_t>(
                                            dev.cache_line_bytes) +
                                    2));
  if (!coalesced_) {
    lanes_.resize(threads_per_block_);
    if (!cols_.empty()) {
      start_batch();
    }
  }
}

void LoadTraceGenerator::start_batch() {
  // Scheme (b): each thread owns one column (threads beyond the batch width
  // share columns by splitting the element range). Element step e: thread t
  // reads element (t / bin) % segments * seg_len + e of column
  // batch_cols[t % bin].
  const std::size_t width = std::min(bin_, cols_.size() - batch_);
  const auto batch_cols = cols_.subspan(batch_, width);
  const std::size_t segments = std::max<std::size_t>(
      1, threads_per_block_ / width);
  seg_len_ = (f_ + segments - 1) / segments;
  step_ = 0;
  warp_idx_ = 0;
  for (std::size_t t = 0; t < threads_per_block_; ++t) {
    const std::uint64_t elem = t / width % segments * seg_len_;
    lanes_[t] = {col_base(batch_cols[t % width]) + elem * sizeof(real_t),
                 elem};
  }
  // Every lane advances by the same stride per step, and line_of is
  // monotone, so address order is line order at every step.
  for (std::size_t w = 0; w < warps_per_block_; ++w) {
    const auto first = lanes_.begin() + static_cast<std::ptrdiff_t>(w * warp_);
    std::sort(first, first + static_cast<std::ptrdiff_t>(warp_),
              [](const Lane& a, const Lane& b) { return a.addr < b.addr; });
  }
}

std::span<const std::uint64_t> LoadTraceGenerator::next() {
  if (coalesced_) {
    // Scheme (a): all threads cooperate on one column before the next.
    // Each warp instruction covers warp_size consecutive floats.
    if (col_ == cols_.size()) {
      return {};
    }
    const std::uint64_t base = col_base(cols_[col_]);
    const std::uint64_t width = warp_ * sizeof(real_t);
    const std::uint64_t end = std::min(col_bytes_, off_ + width);
    const std::uint64_t line_bytes = ~line_mask_ + 1;
    std::size_t n = 0;
    for (std::uint64_t line = line_of(base + off_);
         line <= line_of(base + end - 1); line += line_bytes) {
      lines_[n++] = line;
    }
    off_ += width;
    if (off_ >= col_bytes_) {
      off_ = 0;
      ++col_;
    }
    return {lines_.data(), n};
  }
  while (batch_ < cols_.size()) {
    for (; step_ < seg_len_; ++step_, warp_idx_ = 0) {
      const std::uint64_t shift = step_ * sizeof(real_t);
      while (warp_idx_ < warps_per_block_) {
        const Lane* lane = &lanes_[warp_idx_ * warp_];
        ++warp_idx_;
        std::size_t n = 0;
        for (const Lane* end = lane + warp_; lane != end; ++lane) {
          if (lane->elem + step_ >= f_) {
            continue;  // tail of the last segment
          }
          const std::uint64_t line = line_of(lane->addr + shift);
          if (n == 0 || lines_[n - 1] != line) {
            lines_[n++] = line;
          }
        }
        if (n > 0) {
          return {lines_.data(), n};
        }
      }
    }
    batch_ += bin_;
    if (batch_ < cols_.size()) {
      start_batch();
    }
  }
  return {};
}

}  // namespace

std::vector<WarpInstruction> hermitian_load_trace(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const index_t> cols) {
  LoadTraceGenerator gen(dev, config, cols);
  std::vector<WarpInstruction> stream;
  for (auto lines = gen.next(); !lines.empty(); lines = gen.next()) {
    stream.push_back({{lines.begin(), lines.end()}});
  }
  return stream;
}

TraceStats simulate_hermitian_load(
    const DeviceSpec& dev, const TraceConfig& config,
    std::span<const std::vector<index_t>> rows_per_block) {
  CUMF_EXPECTS(!rows_per_block.empty(), "need at least one resident block");

  std::vector<LoadTraceGenerator> blocks;
  blocks.reserve(rows_per_block.size());
  for (const auto& cols : rows_per_block) {
    blocks.emplace_back(dev, config, cols);
  }

  // L2 is shared device-wide; give this SM its proportional share so that a
  // single-SM simulation sees realistic L2 contention.
  // GPU L1s are highly associative (sectored, near-fully-associative per
  // set); 8 ways avoids artificial conflict misses the hardware doesn't see.
  CacheConfig l1{config.l1_enabled ? dev.l1_bytes : dev.cache_line_bytes * 8,
                 dev.cache_line_bytes, 8};
  CacheConfig l2{std::max<std::int64_t>(dev.l2_bytes / dev.sm_count,
                                        dev.cache_line_bytes * 64),
                 dev.cache_line_bytes, 16};
  CacheHierarchy hierarchy(l1, l2, config.l1_enabled);

  TraceStats stats;
  stats.rows_simulated = rows_per_block.size();

  // Round-robin interleave across resident blocks (SM warp scheduler): one
  // instruction from every block that still has one, until none do.
  std::vector<bool> done(blocks.size(), false);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (done[b]) {
        continue;
      }
      const std::span<const std::uint64_t> lines = blocks[b].next();
      if (lines.empty()) {
        done[b] = true;
        continue;
      }
      progressed = true;
      ++stats.warp_instructions;
      switch (hierarchy.access(lines)) {
        case MemLevel::L1:
          ++stats.inst_worst_l1;
          break;
        case MemLevel::L2:
          ++stats.inst_worst_l2;
          break;
        case MemLevel::Dram:
          ++stats.inst_worst_dram;
          break;
      }
    }
  }
  stats.line_accesses = hierarchy.accesses();
  stats.l1_hits = hierarchy.served_by(MemLevel::L1);
  stats.l2_hits = hierarchy.served_by(MemLevel::L2);
  stats.dram_accesses = hierarchy.served_by(MemLevel::Dram);
  return stats;
}

}  // namespace cumf::gpusim
