#pragma once
// One federated round (Alg. 1 lines 14-20), written once for every
// federation: sample m clients from a caller-given universe, split the sample
// into per-shard cohorts by client ownership, hand the cohorts to a
// RoundCollector, merge the shard partials it returns, apply the server
// learning rate ψ0 <- ψ0 + η (ψ_agg - ψ0) that Fig. 5 ablates, evaluate, and
// finalize the RoundRecord.
//
// The collector seam has two implementations: fl::Server runs its clients
// in process on the worker pool and partial-aggregates each cohort locally;
// net::HierarchicalServer dispatches the cohorts to reactor shards that
// partial-aggregate the replies as they land. The engine owns everything
// the two have in common: the eval classifier, ψ0, the server rng and the
// round scratch. Single-tier aggregation is the one-shard case (one cohort,
// one partial, merged at the root); docs/SHARDING.md states why that is
// bit-identical to a direct aggregate.
//
// Client ownership is contiguous by id: client c of N belongs to shard
// floor(c*S/N). owner_shard is the only place that formula lives.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/metrics.hpp"
#include "models/classifier.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace fedguard::fl {

/// The shard that owns client `client` when `population` clients are split
/// contiguously over `shards`: floor(client*shards/population).
[[nodiscard]] std::size_t owner_shard(std::size_t client, std::size_t shards,
                                      std::size_t population) noexcept;

/// First client id owned by `shard` under owner_shard's split; shard s owns
/// [first_owned_client(s), first_owned_client(s + 1)).
[[nodiscard]] std::size_t first_owned_client(std::size_t shard, std::size_t shards,
                                             std::size_t population) noexcept;

/// Add the ground-truth split of `partial`'s rejected clients among the
/// `cohort` rows it was built from to `malicious` / `benign` (the defense's
/// true / false positives). The root merge unions the rejected sets, so the
/// per-cohort tallies sum to the round's.
void tally_rejections(const defenses::UpdateView& cohort,
                      const defenses::ShardPartial& partial, std::size_t& malicious,
                      std::size_t& benign);

/// What a collector gets for one round.
struct RoundPlan {
  std::size_t round = 0;
  std::uint64_t trace_id = 0;
  /// ψ0 before the round (what the sampled clients train from).
  std::span<const float> global_parameters;
  /// Sampled client ids, in sample order.
  std::span<const int> sampled;
  /// Per shard, the positions in `sampled` of the clients it owns, ascending
  /// (cohort slot order == sample order, the fold-order contract).
  std::span<const std::vector<std::size_t>> cohorts;
  /// The engine's rng: draws made here follow the sample draw, in order.
  util::Rng* rng = nullptr;
};

/// Gathers one round's client uploads and partial-aggregates them per shard.
class RoundCollector {
 public:
  /// Fill `partials` (one per shard, arriving cleared; client_count 0 means
  /// nothing to merge) and the record's traffic, fault, ejection and
  /// rejection fields. Returns true when the round is degraded (a shard was
  /// dead or missed its deadline).
  virtual bool collect(const RoundPlan& plan, std::vector<defenses::ShardPartial>& partials,
                       RoundRecord& record) = 0;

 protected:
  ~RoundCollector() = default;  // never owned or deleted through this base
};

struct RoundEngineConfig {
  std::size_t clients_per_round = 1;  // m (fewer when the universe is smaller)
  std::size_t population = 1;         // N: the ids owner_shard partitions
  std::size_t shards = 1;             // S
  float server_learning_rate = 1.0f;  // η
  std::size_t eval_batch_size = 256;
  std::uint64_t seed = 1;  // eval classifier init (ψ0), server rng, trace ids
  bool track_per_class_accuracy = false;
};

/// The federation's registry instruments. Each advances by exactly the
/// matching RoundRecord field once per round; a server registers the names
/// of its own metric vocabulary and leaves the rest inert.
struct RoundInstruments {
  obs::Counter rounds;
  obs::Counter degraded_rounds;
  obs::Counter sampled_clients;
  obs::Counter sampled_malicious;
  obs::Counter stragglers;
  obs::Counter upload_bytes;
  obs::Counter download_bytes;
  obs::Counter dropouts;
  obs::Counter timeouts;
  obs::Counter corrupt_frames;
  obs::Counter ejected_clients;
  obs::Counter rejected_malicious;
  obs::Counter rejected_benign;
  obs::Histogram round_seconds;
};

class RoundEngine {
 public:
  /// `test_set` and `merge_strategy` must outlive the engine.
  RoundEngine(RoundEngineConfig config, defenses::AggregationStrategy& merge_strategy,
              const data::Dataset& test_set, models::ClassifierArch arch,
              models::ImageGeometry geometry, RoundInstruments instruments);

  /// Run one round over `universe` (the sampleable client ids; an empty one
  /// draws nothing) through `collector`.
  [[nodiscard]] RoundRecord run_round(std::size_t round, std::span<const int> universe,
                                      RoundCollector& collector);

  [[nodiscard]] std::span<const float> global_parameters() const noexcept {
    return global_parameters_;
  }

  /// Accuracy of ψ0 on the test set.
  [[nodiscard]] double evaluate_global();
  /// Per-class recall of ψ0 on the test set.
  [[nodiscard]] std::vector<double> evaluate_per_class();

 private:
  RoundEngineConfig config_;
  defenses::AggregationStrategy& merge_strategy_;
  const data::Dataset& test_set_;
  models::ImageGeometry geometry_;
  std::unique_ptr<models::Classifier> eval_classifier_;
  std::vector<float> global_parameters_;
  util::Rng rng_;
  RoundInstruments instruments_;
  // Round-persistent scratch: buffers keep their capacity across rounds.
  std::vector<std::size_t> sample_positions_;
  std::vector<int> sampled_;
  std::vector<std::vector<std::size_t>> cohorts_;
  std::vector<defenses::ShardPartial> partials_;
  defenses::AggregationResult result_;
  std::vector<std::size_t> eval_indices_;
};

}  // namespace fedguard::fl
