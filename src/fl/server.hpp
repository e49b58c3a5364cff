#pragma once
// Federated server (Alg. 1 lines 14-20), in-process: the clients live in this
// process and run their local training on the worker pool. The round itself
// (sampling, cohort split, merge, the server-learning-rate update
// ψ0 <- ψ0 + η (ψ_agg - ψ0) that Fig. 5 ablates, evaluation, bookkeeping) is
// fl::RoundEngine's; this class is its in-process collector: it simulates
// stragglers, fills the round arena from the pool, and partial-aggregates
// each shard cohort locally.
//
// Traffic accounting (Table V): every round the server uploads ψ0 to each
// responding sampled client and downloads their ψ (plus θ when the strategy
// requests decoders). Transfers are charged at serialized wire size.

#include <cstdint>
#include <functional>
#include <memory>

#include "data/dataset.hpp"
#include "defenses/aggregation.hpp"
#include "fl/client.hpp"
#include "fl/metrics.hpp"
#include "fl/round_engine.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/serialize.hpp"

namespace fedguard::fl {

struct ServerConfig {
  std::size_t clients_per_round = 50;  // m (paper: 50 of N=100)
  std::size_t rounds = 50;             // R
  float server_learning_rate = 1.0f;   // η (Fig. 5: 0.3 for stability)
  std::size_t eval_batch_size = 256;   // test-set evaluation batching
  std::uint64_t seed = 1;
  /// Record per-class test recall each round (targeted-attack analysis).
  bool track_per_class_accuracy = false;
  /// Probability that a sampled client fails to respond in a round
  /// (straggler / dropout simulation). Its traffic is not charged.
  double straggler_probability = 0.0;
  /// Deterministic straggler test hook: when set, (client_index, round) ->
  /// "fails this round" replaces the probabilistic draw — and consumes no
  /// server rng — so a remote fault plan can be replayed in-process with
  /// identical sampling sequences and responder sets.
  std::function<bool(std::size_t, std::size_t)> straggler_predicate;
  /// ψ-upload wire codec simulated in-process: each collected ψ row is
  /// quantize-roundtripped with exactly the arithmetic of the socket
  /// deployment's encoder/decoder, so local and remote runs see bit-identical
  /// (lossy) updates, and the traffic meter charges the quantized wire size.
  util::WireCodec psi_codec = util::WireCodec::Fp32;
  /// Elements per q8 quantization chunk (ignored by other codecs).
  std::size_t psi_chunk = util::kDefaultQ8ChunkSize;
  /// Two-tier topology simulated in-process: the sampled updates are
  /// partitioned into per-shard cohorts by client ownership (fl::owner_shard,
  /// exactly net::HierarchicalServer's partition), each cohort runs
  /// AggregationStrategy::partial_aggregate_into, and the partials merge at
  /// the root. 1 = single-tier aggregation (one cohort, bit-identical to a
  /// direct aggregate). FedAvg merges exactly; selectors (Krum/FedCPA/
  /// FedGuard) select per shard — docs/SHARDING.md quantifies the cost.
  std::size_t shards = 1;
};

class Server : private RoundCollector {
 public:
  /// `clients`, `strategy` and `test_set` must outlive the server.
  Server(ServerConfig config, std::vector<std::unique_ptr<Client>>& clients,
         defenses::AggregationStrategy& strategy, const data::Dataset& test_set,
         models::ClassifierArch arch, models::ImageGeometry geometry);

  /// Run all configured rounds and return the full history.
  [[nodiscard]] RunHistory run();

  /// Execute a single federated round (exposed for tests / step-wise use).
  [[nodiscard]] RoundRecord run_round(std::size_t round);

  [[nodiscard]] std::span<const float> global_parameters() const noexcept {
    return engine_.global_parameters();
  }
  /// Accuracy of the current global model on the held-out test set.
  [[nodiscard]] double evaluate_global();
  /// Per-class recall of the current global model on the test set.
  [[nodiscard]] std::vector<double> evaluate_per_class();

  /// Persist the current global parameter vector (resume long runs / deploy
  /// the trained model). Throws std::runtime_error on I/O failure.
  void save_global(const std::string& path) const;
  /// Restore a global parameter vector saved by save_global; dimension must
  /// match the configured architecture.
  void load_global(const std::string& path);

 private:
  /// In-process collector: stragglers, pool-filled arena rows, per-cohort
  /// partial aggregation.
  bool collect(const RoundPlan& plan, std::vector<defenses::ShardPartial>& partials,
               RoundRecord& record) override;

  ServerConfig config_;
  std::vector<std::unique_ptr<Client>>& clients_;
  defenses::AggregationStrategy& strategy_;
  std::vector<int> universe_;  // every client id, 0..N-1
  RoundEngine engine_;
  // Round-persistent collector scratch: the arena and index buffers keep
  // their capacity across rounds, so a steady-state round performs no heap
  // allocation in this loop (strategies own their own scratch likewise).
  defenses::UpdateMatrix arena_;
  std::vector<int> responders_;           // client id per arena row
  std::vector<std::size_t> sample_rows_;  // arena row per sample position
  std::vector<std::size_t> cohort_rows_;
  obs::Gauge arena_capacity_bytes_;
};

}  // namespace fedguard::fl
