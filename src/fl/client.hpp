#pragma once
// Federated client (Alg. 1 lines 22-27). A client owns a private copy of its
// data partition, trains the classifier for the configured number of local
// epochs each round, and (for FedGuard) trains a CVAE on its private data
// once — the paper's partitioning is static, so the CVAE is trained on first
// participation and its decoder parameters are cached (footnote 5).
//
// Malicious behaviour (TM-4..TM-6):
//  - model attacks transform the uploaded ψ after local training;
//  - the label-flip data attack permanently flips the local labels at
//    corruption time, poisoning both classifier and CVAE training.

#include <cstdint>
#include <memory>
#include <optional>

#include "attacks/attack.hpp"
#include "data/dataset.hpp"
#include "defenses/update_matrix.hpp"
#include "models/classifier.hpp"
#include "models/cvae.hpp"

namespace fedguard::fl {

struct ClientConfig {
  std::size_t local_epochs = 5;        // paper: 5
  std::size_t batch_size = 32;
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  /// FedProx proximal coefficient mu; 0 = plain FedAvg local objective.
  float proximal_mu = 0.0f;
  std::size_t cvae_epochs = 30;        // paper: 30
  std::size_t cvae_batch_size = 64;
  float cvae_learning_rate = 1e-3f;
  bool train_cvae = true;              // disabled when the strategy never uses decoders
  /// 0 = train the CVAE once (paper footnote 5, static partitions). k > 0 =
  /// retrain every k participations — the paper's "dynamic datasets" future
  /// work (§VI-C), for clients whose local data changes over time.
  std::size_t cvae_retrain_interval = 0;
};

class Client {
 public:
  /// Copies the samples indexed by `indices` out of `source` into the
  /// client's private local dataset.
  Client(int id, const data::Dataset& source, std::span<const std::size_t> indices,
         ClientConfig config, models::ClassifierArch arch, models::ImageGeometry geometry,
         models::CvaeSpec cvae_spec, std::uint64_t seed);

  /// Corrupt this client with a model-poisoning attack. `attack` must outlive
  /// the client.
  void corrupt_with_model_attack(const attacks::ModelAttack* attack);
  /// Corrupt this client with the label-flipping data attack (applies the
  /// flips to the local dataset immediately).
  void corrupt_with_label_flip(const std::vector<std::pair<int, int>>& pairs);

  /// Replace the client's local dataset (streaming / dynamic-data setting,
  /// paper §VI-C). If this client was corrupted with label flipping, the
  /// flips are re-applied to the new data. The cached CVAE decoder is kept
  /// until the retrain interval (if any) elapses, mirroring a device that
  /// refreshes its generative model lazily.
  void refresh_data(const data::Dataset& source, std::span<const std::size_t> indices);

  /// Execute one federated round: local classifier training from the given
  /// global parameters, CVAE training on first call (if enabled), and attack
  /// application. The trained ψ is written directly into `row.psi` (which
  /// must span the global parameter dimension), θ into `row.theta` when it
  /// fits, and the metadata into `row.meta` — `theta_count` always records
  /// the decoder's true length, so a row without room for θ reports the
  /// mismatch instead of being written past its end. Thread-safe with respect
  /// to OTHER clients (no shared mutable state).
  void run_round_into(std::span<const float> global_parameters, std::size_t round,
                      defenses::UpdateRow row);

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] bool malicious() const noexcept {
    return model_attack_ != nullptr || label_flipped_;
  }
  [[nodiscard]] std::size_t num_samples() const noexcept { return local_data_.size(); }
  [[nodiscard]] const data::Dataset& local_data() const noexcept { return local_data_; }
  [[nodiscard]] bool cvae_trained() const noexcept { return !cached_theta_.empty(); }
  /// The cached decoder θ (empty until the CVAE has trained).
  [[nodiscard]] std::span<const float> decoder_parameters() const noexcept {
    return cached_theta_;
  }

 private:
  void ensure_cvae_trained();

  int id_;
  ClientConfig config_;
  models::ClassifierArch arch_;
  models::ImageGeometry geometry_;
  models::CvaeSpec cvae_spec_;
  std::uint64_t seed_;
  data::Dataset local_data_;
  std::vector<float> cached_theta_;
  const attacks::ModelAttack* model_attack_ = nullptr;
  bool label_flipped_ = false;
  std::vector<std::pair<int, int>> flip_pairs_;
  std::size_t participations_ = 0;
  std::size_t participations_at_last_cvae_ = 0;
  util::Rng rng_;
};

}  // namespace fedguard::fl
