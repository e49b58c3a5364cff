#include "models/classifier.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/optimizer.hpp"
#include "nn/parameter_vector.hpp"
#include "util/rng.hpp"

namespace fedguard::models {

const char* to_string(ClassifierArch arch) noexcept {
  switch (arch) {
    case ClassifierArch::PaperCnn: return "paper_cnn";
    case ClassifierArch::TinyCnn: return "tiny_cnn";
    case ClassifierArch::Mlp: return "mlp";
  }
  return "unknown";
}

ClassifierArch classifier_arch_from_string(const std::string& text) {
  if (text == "paper_cnn") return ClassifierArch::PaperCnn;
  if (text == "tiny_cnn") return ClassifierArch::TinyCnn;
  if (text == "mlp") return ClassifierArch::Mlp;
  throw std::invalid_argument{"unknown classifier arch: " + text};
}

std::unique_ptr<nn::Sequential> build_classifier_network(ClassifierArch arch,
                                                         const ImageGeometry& g,
                                                         std::uint64_t seed) {
  util::Rng rng{seed};
  auto net = std::make_unique<nn::Sequential>();
  switch (arch) {
    case ClassifierArch::PaperCnn: {
      // Table II. Padding-2 "same" convolutions; pooling halves 28->14->7.
      net->emplace<nn::Conv2d>(g.channels, 32, 5, g.height, g.width, rng, 2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      const std::size_t h2 = g.height / 2, w2 = g.width / 2;
      net->emplace<nn::Conv2d>(32, 64, 5, h2, w2, rng, 2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      net->emplace<nn::Flatten>();
      const std::size_t flat = 64 * (h2 / 2) * (w2 / 2);
      net->emplace<nn::Linear>(flat, 512, rng);
      net->emplace<nn::ReLU>();
      net->emplace<nn::Linear>(512, g.num_classes, rng);
      break;
    }
    case ClassifierArch::TinyCnn: {
      net->emplace<nn::Conv2d>(g.channels, 8, 5, g.height, g.width, rng, 2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      const std::size_t h2 = g.height / 2, w2 = g.width / 2;
      net->emplace<nn::Conv2d>(8, 16, 5, h2, w2, rng, 2);
      net->emplace<nn::ReLU>();
      net->emplace<nn::MaxPool2d>(2);
      net->emplace<nn::Flatten>();
      const std::size_t flat = 16 * (h2 / 2) * (w2 / 2);
      net->emplace<nn::Linear>(flat, 64, rng);
      net->emplace<nn::ReLU>();
      net->emplace<nn::Linear>(64, g.num_classes, rng);
      break;
    }
    case ClassifierArch::Mlp: {
      net->emplace<nn::Flatten>();
      net->emplace<nn::Linear>(g.pixels(), 128, rng);
      net->emplace<nn::ReLU>();
      net->emplace<nn::Linear>(128, g.num_classes, rng);
      break;
    }
  }
  return net;
}

Classifier::Classifier(ClassifierArch arch, ImageGeometry geometry, std::uint64_t seed)
    : arch_{arch},
      geometry_{geometry},
      network_{build_classifier_network(arch, geometry, seed)} {}

float Classifier::train_batch(const tensor::Tensor& images, std::span<const int> labels,
                              float learning_rate, float momentum, float proximal_mu,
                              std::span<const float> anchor) {
  if (!optimizer_ || optimizer_lr_ != learning_rate || optimizer_momentum_ != momentum) {
    optimizer_ = std::make_unique<nn::Sgd>(network_->parameters(), learning_rate, momentum);
    optimizer_lr_ = learning_rate;
    optimizer_momentum_ = momentum;
  }
  optimizer_->zero_grad();
  const tensor::Tensor logits = network_->forward(images);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  network_->backward(loss.grad);
  if (proximal_mu > 0.0f) {
    // FedProx: d/dpsi [mu/2 ||psi - anchor||^2] = mu (psi - anchor).
    std::size_t offset = 0;
    for (nn::Parameter* p : network_->parameters()) {
      if (offset + p->size() > anchor.size()) {
        throw std::invalid_argument{"train_batch: proximal anchor too short"};
      }
      auto grad = p->grad.data();
      const auto value = p->value.data();
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] += proximal_mu * (value[i] - anchor[offset + i]);
      }
      offset += p->size();
    }
  }
  optimizer_->step();
  return loss.value;
}

double Classifier::evaluate_accuracy(const tensor::Tensor& images,
                                     std::span<const int> labels) {
  if (labels.empty()) return 0.0;
  const tensor::Tensor logits = network_->forward(images);
  return static_cast<double>(nn::count_correct(logits, labels)) /
         static_cast<double>(labels.size());
}

std::vector<double> Classifier::evaluate_per_class(const tensor::Tensor& images,
                                                   std::span<const int> labels) {
  std::vector<std::size_t> correct(geometry_.num_classes, 0);
  std::vector<std::size_t> total(geometry_.num_classes, 0);
  const tensor::Tensor logits = network_->forward(images);
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const auto label = static_cast<std::size_t>(labels[n]);
    ++total[label];
    if (tensor::argmax(logits.row(n)) == label) ++correct[label];
  }
  std::vector<double> recall(geometry_.num_classes, 0.0);
  for (std::size_t c = 0; c < recall.size(); ++c) {
    if (total[c] > 0) {
      recall[c] = static_cast<double>(correct[c]) / static_cast<double>(total[c]);
    }
  }
  return recall;
}

std::vector<float> Classifier::parameters_flat() { return nn::flatten_parameters(*network_); }

void Classifier::copy_parameters_to(std::span<float> out) {
  nn::copy_parameters_to(*network_, out);
}

void Classifier::load_parameters_flat(std::span<const float> flat) {
  nn::unflatten_parameters(*network_, flat);
}

std::size_t Classifier::parameter_count() { return network_->parameter_count(); }

}  // namespace fedguard::models
