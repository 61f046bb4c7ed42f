#include "common/rng.h"

namespace ultrawiki {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  UW_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int Rng::UniformInt(int lo, int hi) {
  UW_CHECK_LE(lo, hi);
  return lo + static_cast<int>(UniformUint64(
                  static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(UniformDouble()) * (hi - lo);
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  UW_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    UW_CHECK_GE(w, 0.0);
    total += w;
  }
  UW_CHECK_GT(total, 0.0);
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace ultrawiki
