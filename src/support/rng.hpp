// Deterministic, platform-independent pseudo-random number generation.
//
// The simulation results in bench/ must be bit-reproducible across compilers
// and standard libraries, so we implement xoshiro256** (Blackman & Vigna)
// seeded via splitmix64 instead of relying on std:: distributions, whose
// output is implementation-defined.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "support/binio.hpp"
#include "support/check.hpp"

namespace pcf {

/// splitmix64 step; used for seeding and for deriving independent streams.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent generator (distinct stream) for entity `index`.
  /// Used to give every simulated node its own schedule stream so that
  /// injecting a fault never perturbs unrelated nodes' randomness.
  [[nodiscard]] Rng fork(std::uint64_t index) const noexcept {
    std::uint64_t sm = state_[0] ^ (0x9e3779b97f4a7c15ULL * (index + 1));
    std::uint64_t mix = state_[3] + splitmix64(sm);
    return Rng(mix ^ (index << 1));
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection
  /// method, which is unbiased and avoids expensive 64-bit modulo.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    PCF_ASSERT(n > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> candidates) noexcept {
    PCF_ASSERT(!candidates.empty());
    return candidates[static_cast<std::size_t>(below(candidates.size()))];
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (deterministic given state).
  [[nodiscard]] double normal() noexcept;

  /// Exponential with rate lambda (mean 1/lambda); used by the async engine's
  /// Poisson node clocks.
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Checkpointing: the four xoshiro256** state words, so a checkpoint can
  /// freeze and resume a stream mid-sequence (support/binio.hpp field list;
  /// R is const when writing). An all-zero state is the one fixed point
  /// xoshiro256** can never leave, so reading one throws BinioError.
  template <class IO, class R>
  static void transfer(IO& io, R& rng) {
    for (auto& word : rng.state_) io.u64(word);
    if (rng.state_ == std::array<std::uint64_t, 4>{}) {
      throw BinioError("rng checkpoint: all-zero state");
    }
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace pcf
