#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

namespace fedguard::nn {
namespace {

// Minimize f(x) = 0.5 * ||x - target||^2 by hand-feeding gradients.
struct Quadratic {
  Parameter param;
  std::vector<float> target;

  explicit Quadratic(std::vector<float> target_values)
      : param{{target_values.size()}, "x"}, target{std::move(target_values)} {}

  void fill_gradient() {
    for (std::size_t i = 0; i < target.size(); ++i) {
      param.grad[i] = param.value[i] - target[i];
    }
  }

  [[nodiscard]] double distance() const {
    double total = 0.0;
    for (std::size_t i = 0; i < target.size(); ++i) {
      const double d = param.value[i] - target[i];
      total += d * d;
    }
    return std::sqrt(total);
  }
};

TEST(Sgd, ConvergesOnQuadratic) {
  Quadratic problem{{1.0f, -2.0f, 3.0f}};
  Sgd sgd{{&problem.param}, 0.1f};
  for (int step = 0; step < 200; ++step) {
    sgd.zero_grad();
    problem.fill_gradient();
    sgd.step();
  }
  EXPECT_LT(problem.distance(), 1e-4);
}

TEST(Sgd, SingleStepExactValue) {
  Quadratic problem{{2.0f}};
  problem.param.value[0] = 0.0f;
  Sgd sgd{{&problem.param}, 0.5f};
  problem.fill_gradient();  // grad = -2
  sgd.step();
  EXPECT_FLOAT_EQ(problem.param.value[0], 1.0f);
}

TEST(Sgd, MomentumAcceleratesAlongConsistentGradient) {
  // With constant gradient g, velocity accumulates: after 2 steps the total
  // displacement with momentum 0.9 is lr*g*(1 + 1.9) vs 2*lr*g without.
  Parameter with_momentum{{1}, "a"};
  Parameter without_momentum{{1}, "b"};
  Sgd fast{{&with_momentum}, 0.1f, 0.9f};
  Sgd slow{{&without_momentum}, 0.1f};
  for (int step = 0; step < 3; ++step) {
    with_momentum.grad[0] = 1.0f;
    without_momentum.grad[0] = 1.0f;
    fast.step();
    slow.step();
  }
  EXPECT_LT(with_momentum.value[0], without_momentum.value[0]);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Parameter param{{1}, "x"};
  param.value[0] = 1.0f;
  Sgd sgd{{&param}, 0.1f, 0.0f, /*weight_decay=*/0.5f};
  param.grad[0] = 0.0f;
  sgd.step();
  EXPECT_FLOAT_EQ(param.value[0], 1.0f - 0.1f * 0.5f);
}

TEST(Sgd, LearningRateAdjustable) {
  Sgd sgd{{}, 0.1f};
  sgd.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.01f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic problem{{0.5f, -1.5f, 2.5f, 0.0f}};
  Adam adam{{&problem.param}, 0.05f};
  for (int step = 0; step < 500; ++step) {
    adam.zero_grad();
    problem.fill_gradient();
    adam.step();
  }
  EXPECT_LT(problem.distance(), 1e-2);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter param{{1}, "x"};
  param.value[0] = 0.0f;
  Adam adam{{&param}, 0.1f};
  param.grad[0] = 3.7f;
  adam.step();
  EXPECT_NEAR(param.value[0], -0.1f, 1e-3f);
}

TEST(Adam, HandlesSparseZeroGradients) {
  Parameter param{{2}, "x"};
  param.value[0] = 1.0f;
  param.value[1] = 1.0f;
  Adam adam{{&param}, 0.1f};
  for (int step = 0; step < 10; ++step) {
    param.grad[0] = 1.0f;
    param.grad[1] = 0.0f;  // never updated coordinate must stay put
    adam.step();
  }
  EXPECT_LT(param.value[0], 1.0f);
  EXPECT_FLOAT_EQ(param.value[1], 1.0f);
}

TEST(Optimizer, ZeroGradClears) {
  Parameter param{{3}, "x"};
  Sgd sgd{{&param}, 0.1f};
  param.grad.fill(5.0f);
  sgd.zero_grad();
  for (const float g : param.grad.data()) EXPECT_FLOAT_EQ(g, 0.0f);
}

// ---- Bit identity against the scalar loops ---------------------------------
// Sgd::step and Adam::step compile to packed SSE arithmetic. The references
// below are the scalar loops those steps replaced, expression for expression;
// every packed op rounds like its scalar form, so the two must agree bit for
// bit on every element, in the vector body and in the scalar tail.

const std::vector<std::size_t> kBitIdentitySizes{1, 3, 4, 5, 17, 1027};
constexpr int kBitIdentitySteps = 50;

struct ReferenceState {
  std::vector<float> value, grad, m, v, velocity;
};

void reference_sgd_step(ReferenceState& s, float learning_rate, float momentum,
                        float weight_decay) {
  if (momentum != 0.0f) {
    for (std::size_t i = 0; i < s.value.size(); ++i) {
      const float g = s.grad[i] + weight_decay * s.value[i];
      s.velocity[i] = momentum * s.velocity[i] + g;
      s.value[i] -= learning_rate * s.velocity[i];
    }
  } else {
    for (std::size_t i = 0; i < s.value.size(); ++i) {
      const float g = s.grad[i] + weight_decay * s.value[i];
      s.value[i] -= learning_rate * g;
    }
  }
}

void reference_adam_step(ReferenceState& s, std::size_t step_count, float learning_rate,
                         float beta1, float beta2, float epsilon, float weight_decay) {
  const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(step_count));
  const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(step_count));
  const float alpha = learning_rate * std::sqrt(bias2) / bias1;
  for (std::size_t i = 0; i < s.value.size(); ++i) {
    const float g = s.grad[i] + weight_decay * s.value[i];
    s.m[i] = beta1 * s.m[i] + (1.0f - beta1) * g;
    s.v[i] = beta2 * s.v[i] + (1.0f - beta2) * g * g;
    s.value[i] -= alpha * s.m[i] / (std::sqrt(s.v[i]) + epsilon);
  }
}

/// Deterministic gradient for element i of parameter k at `step`, cycling
/// through the hazard classes: +0, -0, large (|g| ~ 1e18, v near FLT_MAX),
/// tiny (|g| ~ 1e-21, v subnormal) and ordinary values in [-1, 1].
float hazard_gradient(std::size_t k, std::size_t i, int step) {
  std::uint32_t h = static_cast<std::uint32_t>(i * 2654435761u + k * 40503u +
                                               static_cast<std::uint32_t>(step) * 97u);
  h ^= h >> 15;
  h *= 2246822519u;
  h ^= h >> 13;
  const float unit = static_cast<float>(h & 0xffffu) / 65535.0f * 2.0f - 1.0f;
  switch ((i + k) % 5) {
    case 0: return (step % 2 == 0) ? 0.0f : -0.0f;
    case 1: return unit * 1e18f;
    case 2: return unit * 1e-21f;
    default: return unit;
  }
}

struct BitIdentityRig {
  std::vector<std::unique_ptr<Parameter>> params;
  std::vector<ReferenceState> reference;

  BitIdentityRig() {
    for (std::size_t k = 0; k < kBitIdentitySizes.size(); ++k) {
      const std::size_t n = kBitIdentitySizes[k];
      params.push_back(std::make_unique<Parameter>(std::vector<std::size_t>{n}, "p"));
      ReferenceState state;
      state.value.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        state.value[i] = static_cast<float>(static_cast<int>((i * 37 + k) % 19) - 9) * 0.125f;
        params.back()->value[i] = state.value[i];
      }
      state.grad.assign(n, 0.0f);
      state.m.assign(n, 0.0f);
      state.v.assign(n, 0.0f);
      state.velocity.assign(n, 0.0f);
      reference.push_back(std::move(state));
    }
  }

  [[nodiscard]] std::vector<Parameter*> list() const {
    std::vector<Parameter*> out;
    for (const auto& p : params) out.push_back(p.get());
    return out;
  }

  void load_gradients(int step) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      for (std::size_t i = 0; i < reference[k].grad.size(); ++i) {
        reference[k].grad[i] = hazard_gradient(k, i, step);
        params[k]->grad[i] = reference[k].grad[i];
      }
    }
  }
};

bool same_bits(std::span<const float> actual, const std::vector<float>& expected) {
  return actual.size() == expected.size() &&
         std::memcmp(actual.data(), expected.data(), expected.size() * sizeof(float)) == 0;
}

struct SgdCase {
  float learning_rate, momentum, weight_decay;
};

void PrintTo(const SgdCase& c, std::ostream* os) {
  *os << "lr=" << c.learning_rate << " momentum=" << c.momentum
      << " weight_decay=" << c.weight_decay;
}

class SgdBitIdentity : public ::testing::TestWithParam<SgdCase> {};

TEST_P(SgdBitIdentity, MatchesScalarLoopBitForBit) {
  const SgdCase c = GetParam();
  BitIdentityRig rig;
  Sgd sgd{rig.list(), c.learning_rate, c.momentum, c.weight_decay};
  for (int step = 0; step < kBitIdentitySteps; ++step) {
    rig.load_gradients(step);
    sgd.step();
    for (std::size_t k = 0; k < rig.params.size(); ++k) {
      ReferenceState& ref = rig.reference[k];
      reference_sgd_step(ref, c.learning_rate, c.momentum, c.weight_decay);
      ASSERT_TRUE(same_bits(rig.params[k]->value.data(), ref.value))
          << "value, size " << ref.value.size() << ", step " << step;
      if (c.momentum != 0.0f) {
        ASSERT_TRUE(same_bits(sgd.velocity()[k].data(), ref.velocity))
            << "velocity, size " << ref.value.size() << ", step " << step;
      }
    }
  }
  if (c.momentum == 0.0f) {
    EXPECT_TRUE(sgd.velocity().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SgdBitIdentity,
                         ::testing::Values(SgdCase{0.05f, 0.9f, 0.0f},
                                           SgdCase{0.05f, 0.0f, 0.0f},
                                           SgdCase{0.05f, 0.9f, 5e-4f},
                                           SgdCase{0.05f, 0.0f, 5e-4f}));

class AdamBitIdentity : public ::testing::TestWithParam<float> {};

TEST_P(AdamBitIdentity, MatchesScalarLoopBitForBit) {
  const float weight_decay = GetParam();
  constexpr float kLr = 1e-3f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEpsilon = 1e-8f;
  BitIdentityRig rig;
  Adam adam{rig.list(), kLr, kBeta1, kBeta2, kEpsilon, weight_decay};
  bool saw_subnormal_v = false;
  for (int step = 0; step < kBitIdentitySteps; ++step) {
    rig.load_gradients(step);
    adam.step();
    for (std::size_t k = 0; k < rig.params.size(); ++k) {
      ReferenceState& ref = rig.reference[k];
      reference_adam_step(ref, static_cast<std::size_t>(step) + 1, kLr, kBeta1, kBeta2,
                          kEpsilon, weight_decay);
      ASSERT_TRUE(same_bits(rig.params[k]->value.data(), ref.value))
          << "value, size " << ref.value.size() << ", step " << step;
      ASSERT_TRUE(same_bits(adam.first_moments()[k].data(), ref.m))
          << "m, size " << ref.value.size() << ", step " << step;
      ASSERT_TRUE(same_bits(adam.second_moments()[k].data(), ref.v))
          << "v, size " << ref.value.size() << ", step " << step;
      for (const float v : ref.v) saw_subnormal_v |= std::fpclassify(v) == FP_SUBNORMAL;
    }
  }
  EXPECT_TRUE(saw_subnormal_v) << "the tiny-gradient class must drive v subnormal";
}

INSTANTIATE_TEST_SUITE_P(WeightDecay, AdamBitIdentity, ::testing::Values(0.0f, 1e-2f));

class SgdLearningRateSweep : public ::testing::TestWithParam<float> {};

TEST_P(SgdLearningRateSweep, StableForReasonableRates) {
  Quadratic problem{{1.0f, 1.0f}};
  Sgd sgd{{&problem.param}, GetParam()};
  for (int step = 0; step < 400; ++step) {
    sgd.zero_grad();
    problem.fill_gradient();
    sgd.step();
  }
  EXPECT_LT(problem.distance(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, SgdLearningRateSweep,
                         ::testing::Values(0.01f, 0.05f, 0.1f, 0.5f, 1.0f));

}  // namespace
}  // namespace fedguard::nn
