#include "nn/optimizer.hpp"

#include <cmath>

namespace fedguard::nn {

void Optimizer::zero_grad() {
  for (Parameter* p : parameters_) p->grad.zero();
}

Sgd::Sgd(std::vector<Parameter*> parameters, float learning_rate, float momentum,
         float weight_decay)
    : Optimizer{std::move(parameters)},
      learning_rate_{learning_rate},
      momentum_{momentum},
      weight_decay_{weight_decay} {
  if (momentum_ != 0.0f) {
    velocity_.reserve(parameters_.size());
    for (const Parameter* p : parameters_) {
      velocity_.emplace_back(p->value.shape());
    }
  }
}

void Sgd::step() {
  // Hyperparameters live in locals: a float store through `value` or `vel`
  // may alias a member, so reading members in the loop reloads them every
  // element and keeps the loop scalar.
  const float learning_rate = learning_rate_;
  const float momentum = momentum_;
  const float weight_decay = weight_decay_;
  for (std::size_t k = 0; k < parameters_.size(); ++k) {
    Parameter& p = *parameters_[k];
    auto value = p.value.data();
    auto grad = p.grad.data();
    if (momentum != 0.0f) {
      auto vel = velocity_[k].data();
      for (std::size_t i = 0; i < value.size(); ++i) {
        const float g = grad[i] + weight_decay * value[i];
        vel[i] = momentum * vel[i] + g;
        value[i] -= learning_rate * vel[i];
      }
    } else {
      for (std::size_t i = 0; i < value.size(); ++i) {
        const float g = grad[i] + weight_decay * value[i];
        value[i] -= learning_rate * g;
      }
    }
  }
}

Adam::Adam(std::vector<Parameter*> parameters, float learning_rate, float beta1, float beta2,
           float epsilon, float weight_decay)
    : Optimizer{std::move(parameters)},
      learning_rate_{learning_rate},
      beta1_{beta1},
      beta2_{beta2},
      epsilon_{epsilon},
      weight_decay_{weight_decay} {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Parameter* p : parameters_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  const float alpha = learning_rate_ * std::sqrt(bias2) / bias1;
  // Same hoisting as Sgd::step. The packed sqrt/div this loop compiles to
  // also needs -fno-math-errno (src/nn/CMakeLists.txt); both round exactly
  // like their scalar forms, so the result is bit-identical.
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float epsilon = epsilon_;
  const float weight_decay = weight_decay_;
  for (std::size_t k = 0; k < parameters_.size(); ++k) {
    Parameter& p = *parameters_[k];
    auto value = p.value.data();
    auto grad = p.grad.data();
    auto m = m_[k].data();
    auto v = v_[k].data();
    for (std::size_t i = 0; i < value.size(); ++i) {
      const float g = grad[i] + weight_decay * value[i];
      m[i] = beta1 * m[i] + (1.0f - beta1) * g;
      v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
      value[i] -= alpha * m[i] / (std::sqrt(v[i]) + epsilon);
    }
  }
}

}  // namespace fedguard::nn
