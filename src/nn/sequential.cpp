#include "nn/sequential.hpp"

#include <string>

#include "obs/trace.hpp"

namespace fedguard::nn {

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& input) {
  tensor::Tensor current = input;
#if defined(FEDGUARD_TRACE_ENABLED)
  // Depth instrumentation (span taxonomy `layer.forward`): the traced loop is
  // taken only while a session records, so the untraced hot path never pays
  // for the per-layer name strings.
  if (obs::TraceSession::active()) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      FEDGUARD_TRACE_SPAN("layer.forward",
                          std::to_string(i) + ":" + layers_[i]->name());
      current = layers_[i]->forward(current);
    }
    return current;
  }
#endif
  for (auto& layer : layers_) current = layer->forward(current);
  return current;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor current = grad_output;
#if defined(FEDGUARD_TRACE_ENABLED)
  if (obs::TraceSession::active()) {
    for (std::size_t i = layers_.size(); i-- > 0;) {
      FEDGUARD_TRACE_SPAN("layer.backward",
                          std::to_string(i) + ":" + layers_[i]->name());
      current = layers_[i]->backward(current);
    }
    return current;
  }
#endif
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    current = (*it)->backward(current);
  }
  return current;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> all;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) all.push_back(p);
  }
  return all;
}

}  // namespace fedguard::nn
