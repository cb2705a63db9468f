// Benchmark-owned ratings generator. The program under test only ever sees
// the file written here, so a change to the program's own synthetic
// generator cannot change the benchmark's inputs. The shape statistics
// (planted low-rank signal, noise, Zipf-skewed row and column degrees, the
// rating scale) follow the Table II presets the workloads are named after.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "client.hpp"
#include "util.hpp"

namespace tsb {
namespace {

/// splitmix64: tiny, seedable, identical on every platform.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(uniform() * n);
  }
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

/// Inverse-CDF sampler over ranks 0..n-1 with weight 1/(rank+1)^s.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i) + 1.0, s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) {
      c /= acc;
    }
  }
  std::uint32_t operator()(Rand& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::vector<std::uint32_t> shuffled(std::uint32_t n, Rand& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = i;
  }
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.below(i)]);
  }
  return p;
}

}  // namespace

int cmd_gen(const Args& args) {
  const auto m = static_cast<std::uint32_t>(args.num("rows"));
  const auto n = static_cast<std::uint32_t>(args.num("cols"));
  const auto nnz = static_cast<std::uint64_t>(args.num("nnz"));
  const std::size_t rank = 8;  // planted rank of every Table II preset
  const double mean = args.num("mean");
  const double signal = args.num("signal");
  const double noise = args.num("noise");
  const double lo = args.num("lo");
  const double hi = args.num("hi");
  const double row_zipf = args.num("row-zipf");
  const double col_zipf = args.num("col-zipf");
  const int decimals = static_cast<int>(args.num("decimals", 0));
  const std::string out_path = args.str("out");
  if (m == 0 || n == 0 || nnz < std::uint64_t{m} + n ||
      nnz > std::uint64_t{m} * n / 2) {
    throw std::runtime_error("gen: shape cannot hold the requested nnz");
  }
  Rand rng(static_cast<std::uint64_t>(args.num("seed")) * 0x2545F4914F6CDD1Dull +
           1);

  // Planted factors scaled so x_u·θ_v has standard deviation `signal`.
  const double scale = std::sqrt(signal / std::sqrt(static_cast<double>(rank)));
  std::vector<double> uf(std::size_t{m} * rank);
  std::vector<double> vf(std::size_t{n} * rank);
  for (double& x : uf) {
    x = rng.normal() * scale;
  }
  for (double& x : vf) {
    x = rng.normal() * scale;
  }
  const double quantum = std::pow(10.0, decimals);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("gen: cannot write " + out_path);
  }
  std::unordered_set<std::uint64_t> taken;
  taken.reserve(static_cast<std::size_t>(nnz) * 2);
  std::uint64_t written = 0;
  const auto emit = [&](std::uint32_t u, std::uint32_t v) {
    if (!taken.insert(std::uint64_t{u} * n + v).second) {
      return;
    }
    double dotp = 0;
    for (std::size_t k = 0; k < rank; ++k) {
      dotp += uf[u * rank + k] * vf[v * rank + k];
    }
    double r = mean + dotp + rng.normal() * noise;
    r = std::round(std::clamp(r, lo, hi) * quantum) / quantum;
    std::fprintf(out, "%u %u %.*f\n", u, v, decimals, r);
    ++written;
  };
  // Every row and column gets one entry, so no factor is unobserved.
  for (std::uint32_t u = 0; u < m; ++u) {
    emit(u, rng.below(n));
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    emit(rng.below(m), v);
  }
  const Zipf rows(m, row_zipf);
  const Zipf cols(n, col_zipf);
  const auto row_perm = shuffled(m, rng);
  const auto col_perm = shuffled(n, rng);
  while (written < nnz) {
    emit(row_perm[rows(rng)], col_perm[cols(rng)]);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("gen: write failed for " + out_path);
  }
  std::printf("%s\n", Json()
                          .set("rows", m)
                          .set("cols", n)
                          .set("nnz", static_cast<double>(written))
                          .str()
                          .c_str());
  return 0;
}

}  // namespace tsb
