// bench_ingest — what every cumf_train, cumf_shard build and serving
// process pays before its first epoch or request, one JSON answer
// (BENCH_ingest.json).
//
// At the shapes of the three trainserve_bench workloads (netflix-incore
// 6000 x 250, yahoo-mgpu 5000 x 3000, hugewiki-ooc 10000 x 120), on the
// program generator's data (generate_synthetic, entries shuffled into
// sampling order, ratings printed as the benchmark's files print them):
//
//  - parse: load_ratings_file (plus the duplicate pass) in MB/s,
//    timed against the strtoll/strtod loader of tests/ingest_oracle.hpp;
//  - canonical: CsrPair::from_coo (the one O(nnz + m + n) canonicalizer, then
//    the transpose) in ns per rating, timed against the oracle's copy,
//    global sort and per-row vectors;
//  - model read and write: read_model_file / write_model_file of the
//    workload's f = 100 model in MB/s, against the oracle's iostream reader
//    and its iostream render plus the same atomic file write;
//  - crc32: slicing-by-8 CRC-32 over a 4 MiB buffer in MB/s, against the
//    bytewise table loop.
//
// Each ratio comes from bench::time_ratio (alternating block pairs), so a
// slow window on a shared host drops out of it. The CI perf-smoke job gates
// speedups.parse_over_oracle and speedups.canonical_over_oracle (the
// smallest ratio over the three shapes). Usage:
// bench_ingest [--quick] [--out PATH]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "data/atomic_file.hpp"
#include "data/generator.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "sparse/csr.hpp"
#include "tests/ingest_oracle.hpp"

namespace {

using namespace cumf;
using bench::g_sink;
using bench::time_ratio;

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct Shape {
  const char* name;
  index_t m;
  index_t n;
  nnz_t nnz;
  double mean;
  double signal;
  double noise;
  double lo;
  double hi;
  int decimals;
  double row_zipf;
  double col_zipf;
};

// trainserve_bench/run.py's WORKLOADS "gen" shapes.
constexpr Shape kShapes[] = {
    {"netflix", 6000, 250, 300000, 3.6, 0.55, 0.85, 1, 5, 0, 0.8, 0.9},
    {"yahoo", 5000, 3000, 260000, 50, 14, 20, 1, 100, 0, 0.85, 1.0},
    {"hugewiki", 10000, 120, 320000, 1.8, 0.35, 0.45, 0, 10, 1, 0.7, 1.1},
};

/// The shape's ratings in sampling order (the generator's canonical output
/// shuffled), values rounded as the benchmark's generator prints them.
RatingsCoo generate_shape(const Shape& s) {
  SyntheticConfig cfg;
  cfg.m = s.m;
  cfg.n = s.n;
  cfg.nnz = s.nnz;
  cfg.mean = s.mean;
  cfg.signal_std = s.signal;
  cfg.noise_std = s.noise;
  cfg.rating_lo = s.lo;
  cfg.rating_hi = s.hi;
  cfg.row_zipf = s.row_zipf;
  cfg.col_zipf = s.col_zipf;
  cfg.seed = 7;
  RatingsCoo coo = generate_synthetic(cfg).ratings;
  std::vector<Rating>& e = coo.entries();
  Rng rng(11);
  for (std::size_t i = e.size(); i > 1; --i) {
    std::swap(e[i - 1], e[rng.uniform_index(i)]);
  }
  return coo;
}

std::string write_text(const RatingsCoo& coo, int decimals,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_ingest: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  for (const Rating& e : coo.entries()) {
    std::fprintf(f, "%u %u %.*f\n", e.u, e.v, decimals,
                 static_cast<double>(e.r));
  }
  std::fclose(f);
  return path;
}

FactorModel random_model(std::size_t m, std::size_t n, std::size_t f) {
  FactorModel model{Matrix(m, f), Matrix(n, f)};
  Rng rng(3);
  for (Matrix* mat : {&model.x, &model.theta}) {
    for (real_t& v : mat->data()) {
      v = static_cast<real_t>(rng.normal(0.0, 0.3));
    }
  }
  return model;
}

struct Row {
  std::string name;
  double oracle_ns = 0;
  double ns = 0;
  double ratio = 0;
  std::string extra;  // ", \"mb_s\": ..." etc.
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_ingest.json";
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
  bench::print_header("bench_ingest",
                      "parse, canonical CSR pair, model text I/O, CRC-32");
  const double seconds = quick ? 1.0 : 4.0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bench_ingest-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  std::vector<Row> rows;
  double parse_min = std::numeric_limits<double>::infinity();
  double canonical_min = std::numeric_limits<double>::infinity();
  for (const Shape& s : kShapes) {
    const RatingsCoo coo = generate_shape(s);
    const std::string text =
        write_text(coo, s.decimals, dir + "/" + s.name + ".txt");
    const double mb =
        static_cast<double>(std::filesystem::file_size(text)) / 1e6;

    const auto parse = time_ratio(
        [&] { g_sink = oracle::load_triplets_strtod(text).nnz(); },
        [&] { g_sink = load_ratings_file(text, LoaderOptions{}).nnz(); },
        seconds, 1);
    parse_min = std::min(parse_min, parse.ratio);
    rows.push_back({std::string("parse_") + s.name, parse.num_ns, parse.den_ns,
                    parse.ratio,
                    ", \"mb\": " + json_num(mb) + ", \"mb_s\": " +
                        json_num(mb * 1e9 / parse.den_ns) +
                        ", \"oracle_mb_s\": " +
                        json_num(mb * 1e9 / parse.num_ns)});

    const auto canonical = time_ratio(
        [&] { g_sink = oracle::csr_pair(coo).rt.nnz(); },
        [&] { g_sink = CsrPair::from_coo(coo).rt.nnz(); }, seconds, 1);
    canonical_min = std::min(canonical_min, canonical.ratio);
    const double per = static_cast<double>(coo.nnz());
    rows.push_back({std::string("canonical_") + s.name, canonical.num_ns,
                    canonical.den_ns, canonical.ratio,
                    ", \"ns_per_rating\": " +
                        json_num(canonical.den_ns / per) +
                        ", \"oracle_ns_per_rating\": " +
                        json_num(canonical.num_ns / per)});

    const FactorModel model = random_model(s.m, s.n, 100);
    const std::string model_path = dir + "/" + s.name + ".model";
    write_model_file(model_path, model);
    const double model_mb =
        static_cast<double>(std::filesystem::file_size(model_path)) / 1e6;
    const auto read = time_ratio(
        [&] {
          std::ifstream is(model_path);
          g_sink = oracle::read_model(is).x.rows();
        },
        [&] { g_sink = read_model_file(model_path).x.rows(); }, seconds, 1);
    rows.push_back({std::string("model_read_") + s.name, read.num_ns,
                    read.den_ns, read.ratio,
                    ", \"mb\": " + json_num(model_mb) + ", \"mb_s\": " +
                        json_num(model_mb * 1e9 / read.den_ns)});
    const auto write = time_ratio(
        [&] {  // the iostream export: render, copy out, write
          std::ostringstream os;
          oracle::write_model(os, model);
          atomic_write_file(model_path, os.str());
        },
        [&] { write_model_file(model_path, model); }, seconds, 1);
    rows.push_back({std::string("model_write_") + s.name, write.num_ns,
                    write.den_ns, write.ratio,
                    ", \"mb\": " + json_num(model_mb) + ", \"mb_s\": " +
                        json_num(model_mb * 1e9 / write.den_ns)});
    std::printf(
        "%-9s parse %6.1f MB/s (oracle %6.1f, %.2fx)  canonical %5.2f "
        "ns/rating (oracle %6.2f, %.2fx)  model read %6.1f MB/s (%.2fx)  "
        "write %6.1f MB/s\n",
        s.name, mb * 1e9 / parse.den_ns, mb * 1e9 / parse.num_ns,
        parse.ratio, canonical.den_ns / per, canonical.num_ns / per,
        canonical.ratio, model_mb * 1e9 / read.den_ns, read.ratio,
        model_mb * 1e9 / write.den_ns);
  }

  std::string buf(std::size_t{4} << 20, '\0');
  Rng rng(17);
  for (char& c : buf) {
    c = static_cast<char>(rng.uniform_index(256));
  }
  const auto crc = time_ratio([&] { g_sink = oracle::crc32_bytewise(buf); },
                              [&] { g_sink = crc32(buf); }, seconds, 1);
  const double crc_mb = static_cast<double>(buf.size()) / 1e6;
  rows.push_back({"crc32_4mib", crc.num_ns, crc.den_ns, crc.ratio,
                  ", \"mb_s\": " + json_num(crc_mb * 1e9 / crc.den_ns) +
                      ", \"oracle_mb_s\": " +
                      json_num(crc_mb * 1e9 / crc.num_ns)});
  std::printf("crc32     %.0f MB/s (bytewise %.0f MB/s, %.2fx)\n",
              crc_mb * 1e9 / crc.den_ns, crc_mb * 1e9 / crc.num_ns,
              crc.ratio);
  std::filesystem::remove_all(dir);

  std::ofstream out(out_path);
  out << "{\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"kernels\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    \"" << r.name << "\": {\"oracle_ns\": " << json_num(r.oracle_ns)
        << ", \"simd_ns\": " << json_num(r.ns)
        << ", \"speedup\": " << json_num(r.ratio) << r.extra << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"speedups\": {\n"
      << "    \"parse_over_oracle\": " << json_num(parse_min) << ",\n"
      << "    \"canonical_over_oracle\": " << json_num(canonical_min) << ",\n"
      << "    \"crc32_over_bytewise\": " << json_num(crc.ratio) << "\n"
      << "  }\n}\n";
  std::printf("speedups: parse_over_oracle %.2f, canonical_over_oracle %.2f "
              "(smallest over the shapes)\nwrote %s\n",
              parse_min, canonical_min, out_path.c_str());
  return 0;
}
