#include "fl/client.hpp"

#include <numeric>

#include "attacks/label_flip.hpp"
#include "data/dataloader.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace fedguard::fl {

Client::Client(int id, const data::Dataset& source, std::span<const std::size_t> indices,
               ClientConfig config, models::ClassifierArch arch,
               models::ImageGeometry geometry, models::CvaeSpec cvae_spec,
               std::uint64_t seed)
    : id_{id},
      config_{config},
      arch_{arch},
      geometry_{geometry},
      cvae_spec_{cvae_spec},
      seed_{seed},
      local_data_{source.subset(indices)},
      rng_{seed} {}

void Client::corrupt_with_model_attack(const attacks::ModelAttack* attack) {
  model_attack_ = attack;
}

void Client::corrupt_with_label_flip(const std::vector<std::pair<int, int>>& pairs) {
  label_flipped_ = true;
  flip_pairs_ = pairs;
  const std::size_t changed = attacks::apply_label_flip(local_data_, pairs);
  util::log_debug("client %d: label flip corrupted %zu samples", id_, changed);
}

void Client::refresh_data(const data::Dataset& source,
                          std::span<const std::size_t> indices) {
  local_data_ = source.subset(indices);
  if (label_flipped_) attacks::apply_label_flip(local_data_, flip_pairs_);
}

void Client::ensure_cvae_trained() {
  if (!config_.train_cvae) return;
  const bool stale =
      config_.cvae_retrain_interval > 0 &&
      participations_ - participations_at_last_cvae_ >= config_.cvae_retrain_interval;
  if (!cached_theta_.empty() && !stale) return;
  FEDGUARD_TRACE_SPAN("client.cvae", "cvae_train:" + std::to_string(id_));
  // Static partitions: the CVAE is trained exactly once (paper footnote 5);
  // with a retrain interval it follows the local data stream (§VI-C).
  // Note a label-flipped client trains its CVAE on the flipped labels, so its
  // decoder is poisoned too (paper §VI-B).
  models::Cvae cvae{cvae_spec_, seed_ ^ 0xc7aeULL ^ participations_};
  std::vector<std::size_t> all(local_data_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const tensor::Tensor flat_images = local_data_.gather_flat(all);
  cvae.train(flat_images, local_data_.labels(), config_.cvae_epochs,
             config_.cvae_batch_size, config_.cvae_learning_rate);
  cached_theta_ = cvae.decoder().parameters_flat();
  participations_at_last_cvae_ = participations_;
}

void Client::run_round_into(std::span<const float> global_parameters, std::size_t round,
                            defenses::UpdateRow row) {
  ensure_cvae_trained();
  ++participations_;

  // Fresh model + fresh local optimizer state each round (standard FL).
  models::Classifier classifier{arch_, geometry_, seed_ ^ (round + 1)};
  classifier.load_parameters_flat(global_parameters);

  std::vector<std::size_t> all(local_data_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  data::DataLoader loader{local_data_, all, config_.batch_size, rng_()};
  {
    FEDGUARD_TRACE_SPAN("client.train", "train:" + std::to_string(id_));
    for (std::size_t epoch = 0; epoch < config_.local_epochs; ++epoch) {
      loader.start_epoch();
      data::Dataset::Batch batch;
      while (loader.next(batch)) {
        classifier.train_batch(batch.images, batch.labels, config_.learning_rate,
                               config_.momentum, config_.proximal_mu, global_parameters);
      }
    }
  }

  classifier.copy_parameters_to(row.psi);
  row.meta->client_id = id_;
  row.meta->num_samples = local_data_.size();
  row.meta->truly_malicious = malicious();
  // theta_count always records the cached decoder's true length; the copy
  // happens only when the arena row has capacity for it, so a dimension
  // mismatch surfaces as metadata for the strategy to reject, never as an
  // out-of-bounds write.
  row.meta->theta_count = cached_theta_.size();
  if (cached_theta_.size() <= row.theta.size()) {
    std::copy(cached_theta_.begin(), cached_theta_.end(), row.theta.begin());
  }

  if (model_attack_ != nullptr) {
    model_attack_->apply(row.psi, global_parameters, round);
  }
}

}  // namespace fedguard::fl
