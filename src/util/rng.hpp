#pragma once
// Deterministic, fast pseudo-random number generation for the whole library.
//
// All stochastic components of the simulation (data synthesis, Dirichlet
// partitioning, client sampling, weight init, attack noise) draw from Rng
// instances that are derived from a single experiment seed, so every run is
// reproducible bit-for-bit on the same platform.

#include <cstdint>
#include <span>
#include <vector>

namespace fedguard::util {

/// splitmix64 single step; used for seed derivation / hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~static_cast<result_type>(0);
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform float in [lo, hi).
  [[nodiscard]] float uniform_float(float lo, float hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Standard normal via Box-Muller (cached second value).
  [[nodiscard]] double normal() noexcept;
  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  [[nodiscard]] double gamma(double shape) noexcept;
  /// Dirichlet(alpha...) sample; result sums to 1. Requires all alpha > 0.
  [[nodiscard]] std::vector<double> dirichlet(std::span<const double> alpha) noexcept;
  /// Categorical draw from (unnormalized, non-negative) weights.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights) noexcept;
  /// Bernoulli with probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Sample `k` distinct indices from [0, n) uniformly (k <= n).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k) noexcept;
  /// In-place form with the identical draw sequence; reuses `out`'s capacity
  /// so steady-state callers (the server round loop) allocate nothing.
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<std::size_t>& out) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fedguard::util
