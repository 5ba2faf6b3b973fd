// Seeded deterministic RNG (splitmix64). Self-contained so simulation runs
// reproduce bit-for-bit across standard libraries and platforms, which
// std::uniform_*_distribution does not guarantee.
#pragma once

#include <cstdint>

namespace dynreg::sim {

/// splitmix64's increment, the golden-ratio constant 2^64 / phi.
inline constexpr std::uint64_t kGolden64 = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 finalizer: every input bit diffuses into the whole output.
/// The repo's one mixing step; the Rng and every hash go through it.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A stateless hash of `v`: one splitmix64 step from state v.
constexpr std::uint64_t mix64(std::uint64_t v) { return splitmix64(v + kGolden64); }

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + kGolden64) {}

  std::uint64_t next() { return splitmix64(state_ += kGolden64); }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

  bool bernoulli(double p) { return uniform01() < p; }

 private:
  std::uint64_t state_;
};

}  // namespace dynreg::sim
