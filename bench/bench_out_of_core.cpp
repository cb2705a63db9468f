// bench_out_of_core — the streamed-ALS benchmark (out-of-core block
// scheduling with transfer/compute overlap).
//
// Two sections:
//   1. Native check: shard a scaled synthetic dataset and train OocAlsEngine
//      under a host budget of two tiles — factors and SolveStats must be
//      bit-identical to the in-core AlsEngine on the same split, with
//      prefetch both on and off. Also times the modeled timeline of that
//      layout (epoch_timeline, as cumf_train computes it before epoch 1)
//      against the measured streamed epoch: "native_epoch_over_model" is
//      epoch / timeline host seconds, which the CI perf-smoke gate holds
//      above a floor so the model never again costs more than the epoch it
//      models.
//   2. Full-scale model: Hugewiki (3.1B nnz — the matrix that motivates
//      streaming: its tiles alone outweigh a 16 GB device) and Netflix at
//      Table II sizes, cut into even tile layouts and pushed through
//      ooc_epoch_timeline over PCIe 3.0 vs NVLink at f ∈ {40, 100}. The
//      reported gain is serial / pipelined wall per epoch — what the
//      single-slot prefetch buys over load-then-compute. The CI perf-smoke
//      gate asserts on "ooc_overlap_best" (the model is analytic, so the
//      numbers are deterministic across machines).
//
// Writes BENCH_out_of_core.json for tools/bench_compare.py.
//
// Usage: bench_out_of_core [--quick] [--out PATH]
//   --quick  shrink the native dataset and epochs (CI smoke)
//   --out    output JSON path (default: BENCH_out_of_core.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/als.hpp"
#include "core/ooc_als.hpp"
#include "data/generator.hpp"
#include "data/presets.hpp"
#include "data/shards.hpp"
#include "gpusim/interconnect.hpp"
#include "sparse/split.hpp"

namespace {

using namespace cumf;

bool same_bits(const Matrix& a, const Matrix& b) {
  const auto da = a.data();
  const auto db = b.data();
  return da.size() == db.size() &&
         std::equal(da.begin(), da.end(), db.begin());
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Framed on-disk size of a tile holding `rows` rows and `nnz` entries —
/// mirrors the shard writer's layout (header + payload + CRC).
std::uint64_t tile_disk_bytes(std::uint64_t rows, std::uint64_t nnz) {
  const std::uint64_t payload = 25 + (rows + 1) * 8 + nnz * 8;
  return payload + 24;
}

/// Even tile layout of a full-scale dataset: the shape the nnz-balanced
/// cuts converge to when no single row dominates.
ShardMeta model_meta(const DatasetPreset& preset, std::size_t tiles) {
  ShardMeta meta;
  meta.rows = static_cast<index_t>(preset.full_m);
  meta.cols = static_cast<index_t>(preset.full_n);
  meta.train_nnz = preset.full_nnz;
  const struct {
    std::uint64_t rows;
    std::vector<TileRange>* out;
  } views[] = {{preset.full_m, &meta.row_tiles},
               {preset.full_n, &meta.col_tiles}};
  for (const auto& view : views) {
    for (std::size_t i = 0; i < tiles; ++i) {
      TileRange t;
      t.row_begin = static_cast<index_t>(view.rows * i / tiles);
      t.row_end = static_cast<index_t>(view.rows * (i + 1) / tiles);
      t.nnz = preset.full_nnz * (i + 1) / tiles -
              preset.full_nnz * i / tiles;
      t.bytes = tile_disk_bytes(t.row_end - t.row_begin, t.nnz);
      view.out->push_back(t);
    }
  }
  return meta;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_out_of_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("bench_out_of_core",
                      "streamed ALS: bounded-memory tiles + overlap model");

  // --- 1. native streamed run vs in-core: bit-identity under a tight
  //        budget, overlap on and off -----------------------------------
  SyntheticConfig cfg;
  cfg.m = quick ? 2'000 : 6'000;
  cfg.n = quick ? 120 : 250;
  cfg.nnz = quick ? 60'000 : 300'000;
  cfg.row_zipf = 0.8;
  cfg.seed = 4242;
  const auto data = generate_synthetic(cfg);
  const int epochs = quick ? 2 : 3;

  AlsOptions opt;
  opt.f = 16;
  opt.lambda = static_cast<real_t>(0.05);
  opt.seed = 99;
  opt.workers = 2;

  ShardBuildOptions build;
  build.tiles = 8;
  build.test_fraction = 0.1;
  build.seed = opt.seed;
  const std::string shard_dir = "bench_ooc_shards";
  std::filesystem::remove_all(shard_dir);
  const ShardMeta meta = write_shards(shard_dir, data.ratings, build);

  std::uint64_t largest = 0;
  std::uint64_t resident_total = 0;
  for (const auto* table : {&meta.row_tiles, &meta.col_tiles}) {
    for (const TileRange& t : *table) {
      largest = std::max(largest, tile_resident_bytes(t));
      resident_total += tile_resident_bytes(t);
    }
  }
  std::printf("  shard store: %zu+%zu tiles, %.1f MB resident total, "
              "budget %.1f MB (2 tiles)\n",
              meta.row_tiles.size(), meta.col_tiles.size(),
              static_cast<double>(resident_total) / 1e6,
              static_cast<double>(2 * largest) / 1e6);

  Rng rng(build.seed);
  const TrainTestSplit split =
      split_holdout(data.ratings, build.test_fraction, rng);
  AlsEngine reference(split.train, opt);
  Stopwatch ref_sw;
  for (int e = 0; e < epochs; ++e) {
    reference.run_epoch();
  }
  const double ref_epoch_s = ref_sw.seconds() / epochs;
  std::printf("  in-core epoch: %.4f s\n", ref_epoch_s);

  std::map<std::string, double> native_json;
  std::map<std::string, double> speedups;
  native_json["epoch_s_incore"] = ref_epoch_s;
  const auto dev = gpusim::DeviceSpec::pascal_p100();
  AlsKernelConfig native_kc;
  native_kc.f = static_cast<int>(opt.f);
  native_kc.tile = pick_tile(opt.f, opt.hermitian.tile);
  native_kc.bin = opt.hermitian.bin;
  native_kc.solver = opt.solver.kind;
  native_kc.cg_fs = opt.solver.cg_fs;
  bool identical = true;
  for (const bool overlap : {true, false}) {
    OocOptions ooc;
    ooc.host_mem_bytes = 2 * largest;
    ooc.overlap = overlap;
    OocAlsEngine engine(shard_dir, opt, ooc);
    if (overlap) {
      Stopwatch model_sw;
      const OocTimeline tl = engine.epoch_timeline(
          dev, native_kc, gpusim::LinkSpec::nvlink(), engine.overlap_active());
      const double model_s = model_sw.seconds();
      std::printf("  modeled timeline of this layout: %.4f s of host time "
                  "(models a %.6f s epoch)\n",
                  model_s, tl.pipelined_s);
      native_json["timeline_host_s"] = model_s;
    }
    Stopwatch sw;
    for (int e = 0; e < epochs; ++e) {
      engine.run_epoch();
    }
    const double secs = sw.seconds() / epochs;
    const OocEpochStats& stats = engine.ooc_stats_last_epoch();
    std::printf("  streamed epoch (%s): %.4f s "
                "(stall %.4f s, compute %.4f s, %llu tile fetches)\n",
                overlap ? "overlap" : "no overlap", secs, stats.stall_s,
                stats.compute_s,
                static_cast<unsigned long long>(stats.tiles));
    native_json[overlap ? "epoch_s_streamed" : "epoch_s_no_overlap"] = secs;
    identical = identical &&
                same_bits(engine.user_factors(), reference.user_factors()) &&
                same_bits(engine.item_factors(), reference.item_factors()) &&
                engine.solve_stats() == reference.solve_stats();
  }
  native_json["bit_identical"] = identical ? 1.0 : 0.0;
  speedups["native_epoch_over_model"] =
      native_json["epoch_s_streamed"] / native_json["timeline_host_s"];
  std::printf("  streamed epoch / timeline host seconds: %.2f\n",
              speedups["native_epoch_over_model"]);
  std::printf("  streamed factors + SolveStats vs in-core: %s\n",
              identical ? "bit-identical" : "MISMATCH");
  std::filesystem::remove_all(shard_dir);
  if (!identical) {
    std::fprintf(stderr, "bench_out_of_core: bit-identity violated\n");
    return 1;
  }

  // --- 2. full-scale model: Table II sizes streamed over real links ------
  constexpr std::size_t kModelTiles = 16;
  std::map<std::string, double> full_json;
  double best_gain = 0.0;
  for (const auto& preset :
       {DatasetPreset::netflix(), DatasetPreset::hugewiki()}) {
    const ShardMeta fm = model_meta(preset, kModelTiles);
    std::uint64_t stream_bytes = 0;
    for (const auto* table : {&fm.row_tiles, &fm.col_tiles}) {
      for (const TileRange& t : *table) {
        stream_bytes += t.bytes;
      }
    }
    std::printf("\n  %s at full scale (m=%llu, n=%llu, nnz=%llu): "
                "%.1f GB streamed per epoch over %zu+%zu tiles\n",
                preset.name.c_str(),
                static_cast<unsigned long long>(preset.full_m),
                static_cast<unsigned long long>(preset.full_n),
                static_cast<unsigned long long>(preset.full_nnz),
                static_cast<double>(stream_bytes) / 1e9, kModelTiles,
                kModelTiles);
    // f=16 is the rank the native section trains (and the regime where the
    // stream is transfer/compute balanced); 40 and 100 are the paper's
    // ranks, where high-rank ALS turns compute-bound and overlap can only
    // shave the transfer share off the epoch.
    for (const int f : {16, 40, 100}) {
      AlsKernelConfig kc;
      kc.f = f;
      kc.tile = pick_tile(static_cast<std::size_t>(f), kc.tile);
      kc.solver = SolverKind::CgFp16;
      for (const auto& link : {gpusim::LinkSpec::pcie3_x8(),
                               gpusim::LinkSpec::pcie3(),
                               gpusim::LinkSpec::nvlink()}) {
        const OocTimeline tl = ooc_epoch_timeline(dev, kc, link, fm, true);
        const std::string link_key = link.name == "NVLink"   ? "nvlink"
                                     : link.name == "PCIe 3.0 x8"
                                         ? "pcie3x8"
                                         : "pcie3";
        const std::string tag =
            preset.name + "_" + link_key + "_f" + std::to_string(f);
        full_json["epoch_s_" + tag] = tl.pipelined_s;
        full_json["serial_s_" + tag] = tl.serial_s;
        full_json["transfer_s_" + tag] = tl.transfer_s;
        full_json["overlap_gain_" + tag] = tl.overlap_gain;
        std::printf("    %-7s f=%-3d  transfer %8.2f s  compute %8.2f s  "
                    "serial %8.2f s  pipelined %8.2f s  gain %.2fx\n",
                    link.name.c_str(), f, tl.transfer_s, tl.compute_s,
                    tl.serial_s, tl.pipelined_s, tl.overlap_gain);
        if (preset.name == "Hugewiki") {
          speedups["ooc_overlap_" + link_key + "_f" + std::to_string(f)] =
              tl.overlap_gain;
        }
        best_gain = std::max(best_gain, tl.overlap_gain);
      }
    }
  }
  // The gate key: the best transfer/compute-balanced configuration. A
  // transfer-bound corner (f=100 on PCIe3 is compute:transfer ≈ 7:1) can
  // only approach 1x by Amdahl — the gate asserts the overlap machinery
  // delivers where the pipeline is balanced, not that every corner is.
  speedups["ooc_overlap_best"] = best_gain;

  // --- JSON ---------------------------------------------------------------
  const auto dump = [](std::ofstream& out, const char* key,
                       const std::map<std::string, double>& section,
                       bool last) {
    out << "  \"" << key << "\": {\n";
    for (auto it = section.begin(); it != section.end(); ++it) {
      out << "    \"" << it->first << "\": " << json_num(it->second)
          << (std::next(it) != section.end() ? "," : "") << "\n";
    }
    out << "  }" << (last ? "" : ",") << "\n";
  };
  std::ofstream out(out_path);
  out << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"sim_device\": \"" << dev.name << "\",\n";
  dump(out, "native", native_json, false);
  dump(out, "full_scale", full_json, false);
  dump(out, "speedups", speedups, true);
  out << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
