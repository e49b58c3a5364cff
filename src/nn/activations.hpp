#pragma once
// Elementwise activation layers (shape-agnostic).

#include "nn/module.hpp"

namespace fedguard::nn {

class ReLU final : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor mask_;  // 1 where input > 0
};

class Sigmoid final : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  tensor::Tensor output_;  // sigmoid(x), reused in the gradient
};

}  // namespace fedguard::nn
