#include "analysis/cuverify/verify.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/check.hpp"

namespace cumf::analysis::cuverify {

namespace {

cusim::Dim3 thread_coords(std::uint32_t tid, const cusim::Dim3& block) {
  return cusim::Dim3{tid % block.x, (tid / block.x) % block.y,
                     tid / (block.x * block.y)};
}

void describe_thread(std::ostream& os, std::uint32_t tid,
                     const cusim::Dim3& block) {
  const cusim::Dim3 c = thread_coords(tid, block);
  os << "thread (" << c.x << ',' << c.y << ',' << c.z
     << ") of block (0,0,0)";
}

/// Iterates an access's (thread × loop) domain in the same order the kernel
/// executes it under cusim (thread-major, loops row-major), charging each
/// point against the shared enumeration budget. `fn(tid, iter)` returning
/// false stops early. Returns false iff the budget ran out.
template <typename Fn>
bool for_each_point(const AccessPlan& plan, const PlanAccess& access,
                    std::uint64_t& budget, Fn&& fn) {
  const std::uint32_t te = plan.access_thread_end(access);
  std::vector<std::uint32_t> iter(access.loops.size(), 0);
  for (std::uint32_t tid = access.thread_begin; tid < te; ++tid) {
    std::fill(iter.begin(), iter.end(), 0U);
    for (;;) {
      if (budget == 0) {
        return false;
      }
      --budget;
      bool live = true;
      if (access.guard.has_value()) {
        live = access.guard->eval(0, tid, iter) < access.guard_bound;
      }
      if (live && !fn(tid, iter)) {
        return true;
      }
      // Row-major advance (last loop fastest); empty loop set runs once.
      bool wrapped = false;
      std::size_t d = iter.size();
      for (;;) {
        if (d == 0) {
          wrapped = true;  // overflowed the outermost loop: domain done
          break;
        }
        --d;
        if (++iter[d] < std::max(1U, access.loops[d].extent)) {
          break;
        }
        iter[d] = 0;
      }
      if (wrapped) {
        break;
      }
    }
  }
  return true;
}

/// Resolves one enumerated point to a buffer element (post-gather).
std::int64_t resolve_element(const PlanAccess& access, unsigned block,
                             std::uint32_t tid,
                             std::span<const std::uint32_t> iter) {
  const std::int64_t v = access.index.eval(block, tid, iter);
  if (!access.gather.empty()) {
    CUMF_EXPECTS(access.index.block_coeff == 0,
                 "gathered plan accesses must be block-invariant");
    CUMF_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < access.gather.size(),
                 "plan gather table does not cover the guarded domain");
    return access.gather[v];
  }
  return v;
}

std::string oob_message(const AccessPlan& plan, const PlanAccess& access,
                        const PlanBuffer& buf, std::uint32_t tid,
                        std::int64_t index, std::uint32_t fault_block) {
  std::ostringstream os;
  os << "cuverify bounds: out-of-bounds "
     << (access.kind == cusim::AccessKind::Read ? "read" : "write") << " of "
     << buf.elem_bytes << " bytes on "
     << (buf.space == cusim::MemSpace::Shared ? "shared" : "global")
     << " buffer '" << buf.name << "' at index " << index << " (extent "
     << buf.extent << ") by ";
  const cusim::Dim3 c = thread_coords(tid, plan.block);
  os << "thread (" << c.x << ',' << c.y << ',' << c.z << ") of block ("
     << fault_block << ",0,0)";
  if (access.label[0] != '\0') {
    os << " [" << access.label << ']';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Bounds pass
// ---------------------------------------------------------------------------

void bounds_pass(const AccessPlan& plan, const VerifyOptions& options,
                 BoundsReport& out) {
  const auto nblocks =
      static_cast<std::int64_t>(std::max(1U, plan.grid.count()));
  std::uint64_t budget = options.max_enumeration;

  for (const PlanSegment& segment : plan.segments) {
    for (const PlanAccess& access : segment.accesses) {
      CUMF_EXPECTS(access.buffer < plan.buffers.size(),
                   "plan access names an unknown buffer");
      const PlanBuffer& buf = plan.buffers[access.buffer];
      const auto extent = static_cast<std::int64_t>(buf.extent);
      const AffineForm& ix = access.index;
      // Extra element range contributed by blockIdx beyond block 0; an
      // affine index is extremal at one of the grid's two ends.
      const std::int64_t bspan = ix.block_coeff * (nblocks - 1);
      const std::int64_t block_lo = std::min<std::int64_t>(0, bspan);
      const std::int64_t block_hi = std::max<std::int64_t>(0, bspan);
      const std::uint32_t fault_block =
          bspan != 0 ? static_cast<std::uint32_t>(nblocks - 1) : 0;

      const bool needs_enumeration = access.guard.has_value() ||
                                     !access.gather.empty() ||
                                     !ix.thread_table.empty();
      if (!needs_enumeration && access.gather_extent == 0) {
        // Pure affine form: closed-form interval over the whole domain.
        std::int64_t lo = ix.base + block_lo;
        std::int64_t hi = ix.base + block_hi;
        const auto tb = static_cast<std::int64_t>(access.thread_begin);
        const auto tmax =
            static_cast<std::int64_t>(plan.access_thread_end(access)) - 1;
        if (tmax >= tb) {
          lo += ix.thread_coeff * (ix.thread_coeff >= 0 ? tb : tmax);
          hi += ix.thread_coeff * (ix.thread_coeff >= 0 ? tmax : tb);
        }
        for (std::size_t d = 0; d < access.loops.size(); ++d) {
          const std::int64_t coeff =
              d < ix.loop_coeffs.size() ? ix.loop_coeffs[d] : 0;
          const auto last =
              static_cast<std::int64_t>(access.loops[d].extent) - 1;
          lo += std::min<std::int64_t>(0, coeff * last);
          hi += std::max<std::int64_t>(0, coeff * last);
        }
        if (lo >= 0 && hi < extent) {
          ++out.accesses_proved;
          continue;  // proved without touching a single point
        }
      }

      // Exact enumeration: either the closed form needs it (guard / gather /
      // thread table) or it found a potential violation and we want the
      // first-fault witness in dynamic execution order.
      bool violated = false;
      std::uint64_t points = 0;
      const bool complete = for_each_point(
          plan, access, budget,
          [&](std::uint32_t tid, std::span<const std::uint32_t> iter) {
            std::int64_t e_lo = 0;
            std::int64_t e_hi = 0;
            if (access.gather.empty() && access.gather_extent > 0) {
              // Conservative gather: anywhere in [0, gather_extent).
              e_lo = 0;
              e_hi = access.gather_extent - 1;
            } else {
              const std::int64_t elem = resolve_element(access, 0, tid, iter);
              e_lo = elem + block_lo;
              e_hi = elem + block_hi;
            }
            if (e_lo < 0 || e_hi >= extent) {
              ++points;
              if (!violated) {
                violated = true;
                const std::int64_t witness = e_lo < 0 ? e_lo : e_hi;
                out.violations.push_back(
                    {HazardKind::OutOfBounds,
                     oob_message(plan, access, buf, tid, witness,
                                 e_lo < 0 ? 0 : fault_block)});
              }
            }
            return true;
          });
      out.truncated = out.truncated || !complete;
      out.points_flagged += points;
      if (!violated && complete) {
        ++out.accesses_proved;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Static racecheck
// ---------------------------------------------------------------------------

std::string race_message(const AccessPlan& plan, HazardKind kind,
                         const PlanBuffer& buf, std::uint64_t byte,
                         std::uint32_t first_tid, cusim::AccessKind first_kind,
                         const char* first_tag, std::uint32_t second_tid,
                         cusim::AccessKind second_kind,
                         const char* second_tag) {
  std::ostringstream os;
  os << "cuverify racecheck: " << analysis::to_string(kind)
     << " on shared buffer '" << second_tag << "' at offset 0x" << std::hex
     << byte << std::dec << " (" << buf.elem_bytes
     << " bytes) in block (0,0,0): ";
  describe_thread(os, first_tid, plan.block);
  os << (first_kind == cusim::AccessKind::Write ? " wrote, " : " read, ");
  describe_thread(os, second_tid, plan.block);
  os << (second_kind == cusim::AccessKind::Write ? " also wrote"
                                                 : " also read");
  os << " with no __syncthreads() between the accesses";
  (void)first_tag;
  return os.str();
}

void race_pass(const AccessPlan& plan, const VerifyOptions& options,
               RaceReport& out) {
  // Same per-byte epoch state machine as the dynamic Checker, driven by the
  // plan instead of an execution. Shared offsets are block-invariant, so one
  // symbolic block covers every block of the grid.
  struct ByteState {
    std::int64_t writer = -1;
    std::int64_t reader = -1;
    cusim::AccessKind writer_kind = cusim::AccessKind::Write;
    cusim::AccessKind reader_kind = cusim::AccessKind::Read;
    const char* writer_tag = "";
    const char* reader_tag = "";
  };
  std::vector<ByteState> bytes(plan.shared_bytes);
  std::vector<std::uint32_t> touched;
  // One hazard per (kind, tag pair) — the dynamic checker's dedup policy.
  std::set<std::tuple<int, std::string, std::string>> reported;
  std::uint64_t budget = options.max_enumeration;

  for (const PlanSegment& segment : plan.segments) {
    ++out.segments;
    for (const std::uint32_t b : touched) {
      bytes[b] = ByteState{};
    }
    touched.clear();

    for (const PlanAccess& access : segment.accesses) {
      const PlanBuffer& buf = plan.buffers[access.buffer];
      if (buf.space != cusim::MemSpace::Shared) {
        continue;  // racecheck models shared memory only (as dynamically)
      }
      const bool write = access.kind == cusim::AccessKind::Write;
      for_each_point(
          plan, access, budget,
          [&](std::uint32_t tid, std::span<const std::uint32_t> iter) {
            const std::int64_t elem = resolve_element(access, 0, tid, iter);
            if (elem < 0 ||
                static_cast<std::uint64_t>(elem) >= buf.extent) {
              return true;  // out of bounds: the bounds pass owns this
            }
            const std::uint64_t addr =
                buf.base_bytes +
                static_cast<std::uint64_t>(elem) * buf.elem_bytes;
            for (std::uint64_t byte = addr; byte < addr + buf.elem_bytes;
                 ++byte) {
              if (byte >= bytes.size()) {
                break;
              }
              ByteState& state = bytes[byte];
              if (state.writer < 0 && state.reader < 0) {
                touched.push_back(static_cast<std::uint32_t>(byte));
              }
              const auto stid = static_cast<std::int64_t>(tid);
              if (write) {
                if (state.writer >= 0 && state.writer != stid &&
                    reported
                        .insert({0, state.writer_tag, access.label})
                        .second) {
                  out.hazards.push_back(
                      {HazardKind::WriteWrite,
                       race_message(plan, HazardKind::WriteWrite, buf, byte,
                                    static_cast<std::uint32_t>(state.writer),
                                    cusim::AccessKind::Write,
                                    state.writer_tag, tid,
                                    cusim::AccessKind::Write, access.label)});
                }
                if (state.reader >= 0 && state.reader != stid &&
                    reported
                        .insert({1, state.reader_tag, access.label})
                        .second) {
                  out.hazards.push_back(
                      {HazardKind::ReadWrite,
                       race_message(plan, HazardKind::ReadWrite, buf, byte,
                                    static_cast<std::uint32_t>(state.reader),
                                    cusim::AccessKind::Read, state.reader_tag,
                                    tid, cusim::AccessKind::Write,
                                    access.label)});
                }
                state.writer = stid;
                state.writer_tag = access.label;
              } else {
                if (state.writer >= 0 && state.writer != stid &&
                    reported
                        .insert({1, state.writer_tag, access.label})
                        .second) {
                  out.hazards.push_back(
                      {HazardKind::ReadWrite,
                       race_message(plan, HazardKind::ReadWrite, buf, byte,
                                    static_cast<std::uint32_t>(state.writer),
                                    cusim::AccessKind::Write,
                                    state.writer_tag, tid,
                                    cusim::AccessKind::Read, access.label)});
                }
                state.reader = stid;
                state.reader_tag = access.label;
              }
            }
            return true;
          });
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier pass
// ---------------------------------------------------------------------------

void barrier_pass(const AccessPlan& plan, std::vector<StaticHazard>& out) {
  const std::uint32_t threads = plan.threads();
  for (std::size_t s = 0; s + 1 < plan.segments.size(); ++s) {
    const PlanSegment& segment = plan.segments[s];
    const std::uint32_t bb = segment.barrier_thread_begin;
    const std::uint32_t be =
        segment.barrier_thread_end == 0 ? threads : segment.barrier_thread_end;
    if (bb == 0 && be == threads) {
      continue;
    }
    const std::uint32_t reached = be > bb ? be - bb : 0;
    std::ostringstream os;
    os << "cuverify barrier: barrier divergence in block (0,0,0): " << reached
       << " of " << threads << " threads reached __syncthreads(), "
       << (threads - reached) << " still pending (segment " << s << ')';
    out.push_back({HazardKind::BarrierDivergence, os.str()});
  }
}

// ---------------------------------------------------------------------------
// Warp-instruction expansion (coalescing + bank conflicts)
// ---------------------------------------------------------------------------

/// Expands one access for one block into per-warp lane address lists,
/// iterating (loop assignment row-major, warp ascending) — the order the
/// gpusim trace generator emits instructions in.
template <typename Sink>
void expand_access(const AccessPlan& plan, const PlanAccess& access,
                   unsigned block, Sink&& sink) {
  const PlanBuffer& buf = plan.buffers[access.buffer];
  const std::uint32_t tb = access.thread_begin;
  const std::uint32_t te = plan.access_thread_end(access);
  if (te <= tb) {
    return;
  }
  std::uint64_t domain = 1;
  for (const LoopDim& loop : access.loops) {
    domain *= std::max(1U, loop.extent);
  }
  std::vector<std::uint32_t> iter(access.loops.size(), 0);
  for (std::uint64_t point = 0; point < domain; ++point) {
    // Decode row-major loop assignment.
    std::uint64_t rest = point;
    for (std::size_t d = access.loops.size(); d > 0; --d) {
      const std::uint32_t extent = std::max(1U, access.loops[d - 1].extent);
      iter[d - 1] = static_cast<std::uint32_t>(rest % extent);
      rest /= extent;
    }
    for (std::uint32_t warp = tb / 32; warp * 32 < te; ++warp) {
      std::vector<std::uint64_t> addrs;
      const std::uint32_t lane_begin = std::max(tb, warp * 32);
      const std::uint32_t lane_end = std::min(te, warp * 32 + 32);
      for (std::uint32_t tid = lane_begin; tid < lane_end; ++tid) {
        if (access.guard.has_value() &&
            access.guard->eval(block, tid, iter) >= access.guard_bound) {
          continue;
        }
        if (access.gather.empty() && access.gather_extent > 0) {
          // Conservative gather: charge the worst case, one distinct
          // location per lane.
          addrs.push_back(buf.base_bytes +
                          static_cast<std::uint64_t>(tid) * 128);
          continue;
        }
        const std::int64_t elem = resolve_element(access, block, tid, iter);
        if (elem < 0 || static_cast<std::uint64_t>(elem) >= buf.extent) {
          continue;  // bounds pass reports it; don't poison the prediction
        }
        addrs.push_back(buf.base_bytes +
                        static_cast<std::uint64_t>(elem) * buf.elem_bytes);
      }
      if (!addrs.empty()) {
        sink(addrs);
      }
    }
  }
}

}  // namespace

std::vector<gpusim::WarpInstruction> plan_warp_instructions(
    const AccessPlan& plan, unsigned block, const gpusim::DeviceSpec& dev) {
  std::vector<gpusim::WarpInstruction> stream;
  const auto line = static_cast<std::uint64_t>(dev.cache_line_bytes);
  for (const PlanSegment& segment : plan.segments) {
    for (const PlanAccess& access : segment.accesses) {
      if (plan.buffers[access.buffer].space != cusim::MemSpace::Global) {
        continue;
      }
      expand_access(plan, access, block,
                    [&](const std::vector<std::uint64_t>& addrs) {
                      gpusim::WarpInstruction inst;
                      inst.lines.reserve(addrs.size());
                      for (const std::uint64_t a : addrs) {
                        inst.lines.push_back(a / line * line);
                      }
                      std::sort(inst.lines.begin(), inst.lines.end());
                      inst.lines.erase(
                          std::unique(inst.lines.begin(), inst.lines.end()),
                          inst.lines.end());
                      stream.push_back(std::move(inst));
                    });
    }
  }
  return stream;
}

namespace {

void coalesce_pass(const AccessPlan& plan, const VerifyOptions& options,
                   CoalescePrediction& out) {
  const std::vector<gpusim::WarpInstruction> stream =
      plan_warp_instructions(plan, 0, options.device);
  for (const gpusim::WarpInstruction& inst : stream) {
    out.line_accesses += inst.lines.size();
  }
  const std::vector<std::vector<gpusim::WarpInstruction>> blocks = {stream};
  const CoalesceReport lint = lint_load_trace(blocks, options.coalesce);
  out.instructions = lint.instructions;
  out.worst_lines = lint.worst_lines;
  out.mean_lines = lint.mean_lines;
  out.flagged = lint.flagged;
}

void bank_pass(const AccessPlan& plan, const VerifyOptions& options,
               BankPrediction& out) {
  for (const PlanSegment& segment : plan.segments) {
    for (const PlanAccess& access : segment.accesses) {
      const PlanBuffer& buf = plan.buffers[access.buffer];
      if (buf.space != cusim::MemSpace::Shared) {
        continue;
      }
      expand_access(
          plan, access, 0, [&](const std::vector<std::uint64_t>& addrs) {
            ++out.instructions;
            // bank(word) = (byte/4) mod 32; lanes hitting the same *word*
            // broadcast for free, so conflicts count distinct words per
            // bank.
            std::map<std::uint32_t, std::set<std::uint64_t>> banks;
            for (const std::uint64_t a : addrs) {
              for (std::uint64_t w = a / 4;
                   w <= (a + buf.elem_bytes - 1) / 4; ++w) {
                banks[static_cast<std::uint32_t>(w % 32)].insert(w);
              }
            }
            unsigned way = 0;
            for (const auto& [bank, words] : banks) {
              way = std::max(way, static_cast<unsigned>(words.size()));
            }
            out.worst_way = std::max(out.worst_way, way);
            if (way > options.max_bank_way) {
              ++out.conflicted;
            }
          });
    }
  }
}

}  // namespace

VerifyReport verify(const AccessPlan& plan, const VerifyOptions& options) {
  CUMF_EXPECTS(!plan.segments.empty(), "a plan needs at least one segment");
  CUMF_EXPECTS(plan.block.count() > 0 && plan.grid.count() > 0,
               "empty launch geometry");
  VerifyReport report;
  report.kernel = plan.kernel;

  bounds_pass(plan, options, report.bounds);
  race_pass(plan, options, report.races);
  barrier_pass(plan, report.barrier_hazards);
  coalesce_pass(plan, options, report.coalesce);
  bank_pass(plan, options, report.banks);

  // Hardware schedules whole warps: a partial last warp still occupies a
  // full warp's worth of scheduler slots, so the occupancy model sees the
  // thread count rounded up to a warp multiple.
  const unsigned warp = static_cast<unsigned>(options.device.warp_size);
  const unsigned sched_threads = (plan.threads() + warp - 1) / warp * warp;
  const gpusim::KernelResources resources{
      plan.regs_per_thread, static_cast<int>(sched_threads),
      static_cast<int>(plan.shared_bytes)};
  report.occupancy = gpusim::compute_occupancy(options.device, resources);
  report.launchable =
      report.occupancy.blocks_per_sm > 0 &&
      static_cast<int>(plan.shared_bytes) <= options.device.smem_per_sm_bytes;

  // Flatten into the shared finding format.
  for (const StaticHazard& h : report.bounds.violations) {
    report.findings.push_back(
        {Severity::Error, "bounds", report.kernel, h.message});
  }
  for (const StaticHazard& h : report.races.hazards) {
    report.findings.push_back(
        {Severity::Error, "racecheck", report.kernel, h.message});
  }
  for (const StaticHazard& h : report.barrier_hazards) {
    report.findings.push_back(
        {Severity::Error, "barrier", report.kernel, h.message});
  }
  if (report.bounds.truncated) {
    report.findings.push_back(
        {Severity::Warning, "bounds", report.kernel,
         "enumeration budget exhausted; bounds proof is incomplete"});
  }
  if (report.coalesce.flagged > 0) {
    std::ostringstream os;
    os << report.coalesce.flagged << " of " << report.coalesce.instructions
       << " warp instructions touch more than "
       << options.coalesce.max_lines_per_instruction
       << " cache lines (worst " << report.coalesce.worst_lines
       << "); non-coalesced traffic relies on cache hits";
    report.findings.push_back(
        {Severity::Warning, "coalesce", report.kernel, os.str()});
  }
  if (report.banks.conflicted > 0) {
    std::ostringstream os;
    os << report.banks.conflicted << " of " << report.banks.instructions
       << " shared-memory warp instructions exceed " << options.max_bank_way
       << "-way bank conflicts (worst " << report.banks.worst_way << "-way)";
    report.findings.push_back(
        {Severity::Warning, "bankconflict", report.kernel, os.str()});
  }
  if (!report.launchable) {
    std::ostringstream os;
    os << "launch impossible on " << options.device.name << ": block of "
       << plan.threads() << " threads with " << plan.shared_bytes
       << " bytes shared and " << plan.regs_per_thread
       << " regs/thread fits zero blocks per SM";
    report.findings.push_back(
        {Severity::Error, "occupancy", report.kernel, os.str()});
  } else {
    std::ostringstream os;
    os << "occupancy " << static_cast<int>(report.occupancy.fraction * 100)
       << "% (" << report.occupancy.blocks_per_sm
       << " blocks/SM, limited by "
       << gpusim::to_string(report.occupancy.limited_by) << ") on "
       << options.device.name;
    report.findings.push_back(
        {Severity::Info, "occupancy", report.kernel, os.str()});
  }
  return report;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  const std::size_t errors = count(findings, Severity::Error);
  const std::size_t warnings = count(findings, Severity::Warning);
  os << "cuverify " << kernel << ": " << (clean() ? "PASS" : "FAIL") << " ("
     << errors << " errors, " << warnings << " warnings)\n";
  os << "  bounds: " << bounds.accesses_proved << " accesses proved, "
     << bounds.violations.size() << " violating"
     << (bounds.truncated ? " (truncated)" : "") << '\n';
  os << "  racecheck: " << races.segments << " segments, "
     << races.hazards.size() << " hazards\n";
  os << "  coalesce: " << coalesce.instructions << " instructions, worst "
     << coalesce.worst_lines << " lines, " << coalesce.flagged
     << " over budget\n";
  os << "  bank: " << banks.instructions << " instructions, worst "
     << banks.worst_way << "-way, " << banks.conflicted << " conflicted\n";
  for (const Finding& f : findings) {
    os << "  " << analysis::to_string(f.severity) << " [" << f.pass << "] "
       << f.message << '\n';
  }
  return os.str();
}

}  // namespace cumf::analysis::cuverify
