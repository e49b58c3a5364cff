#pragma once
// Ordered container of modules; forward chains layer outputs, backward chains
// gradients in reverse. Owns its children.

#include <memory>
#include <string>

#include "nn/module.hpp"

namespace fedguard::nn {

class Sequential final : public Module {
 public:
  /// `model_name` is set by the owner ("clf", "cvae.dec") and names the
  /// layer spans: layer 1 of "clf" traces as `clf.1-Linear`. An unnamed
  /// container traces as `1-Linear`.
  explicit Sequential(std::string model_name = {}) : model_name_{std::move(model_name)} {}

  /// Append a layer; returns a reference for inline chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  /// Construct-and-append helper.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Module& layer(std::size_t i) noexcept { return *layers_[i]; }

 private:
  [[nodiscard]] std::string layer_span_name(std::size_t i) const;

  std::string model_name_;
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace fedguard::nn
