#pragma once
// Aggregation strategy interface shared by the FL server and all defenses.
//
// Per federated round the server fills a round-scoped UpdateMatrix arena with
// the uploaded client updates and hands the strategy a view over it; the
// strategy writes the new global parameter vector plus the accept/reject
// split it decided on (for diagnostics and the detection metrics reported by
// the benches) into an AggregationResult the server reuses across rounds.
//
// Strategies implement the private do_aggregate() hook; the public entry
// points validate the view (dimension + NaN/Inf choke point) exactly once
// before dispatching. An UpdateView is the only input a strategy accepts.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "defenses/update_matrix.hpp"

namespace fedguard::defenses {

struct AggregationContext {
  std::size_t round = 0;
  /// Current global parameters (pre-round); same length as every psi.
  std::span<const float> global_parameters;
};

struct AggregationResult {
  std::vector<float> parameters;
  std::vector<int> accepted_clients;
  std::vector<int> rejected_clients;

  /// Empties all three vectors, keeping their capacity for reuse.
  void clear() noexcept {
    parameters.clear();
    accepted_clients.clear();
    rejected_clients.clear();
  }
};

/// One shard's contribution to a two-tier round: either an exact mergeable
/// accumulator (FedAvg — running weighted/plain ψ sums in double, fold order
/// = arena slot order) or routed selection metadata (every selector — the
/// shard-local aggregate plus its accept/reject split and strategy-specific
/// scores). The root merges partials with AggregationStrategy::
/// merge_partials_into; docs/SHARDING.md states the exact-merge vs
/// metadata-routing contract.
struct ShardPartial {
  std::size_t shard_id = 0;
  /// Rows folded into this partial (0 = the shard collected nothing and the
  /// root must skip it).
  std::size_t client_count = 0;
  /// Ground-truth malicious rows among them (round bookkeeping at the root).
  std::size_t malicious_count = 0;

  // ---- Exact path (supports_exact_merge() strategies) -----------------------
  bool exact = false;
  double weight_sum = 0.0;               // Σ num_samples (exact in double)
  std::vector<double> psi_weighted_sum;  // Σ w·ψ, folded in slot order
  /// Σ ψ, maintained alongside so the root can apply weighted_mean_into's
  /// all-weights-zero fallback globally (a shard cannot know the global
  /// total weight).
  std::vector<double> psi_plain_sum;

  // ---- Metadata-routing path (everything else) ------------------------------
  std::vector<float> parameters;  // shard-local aggregate
  /// Strategy-specific selection scores in cohort slot order (Krum distances
  /// sums, FedGuard synthetic-set accuracies); diagnostics for the root.
  std::vector<double> selection_scores;
  double selection_threshold = 0.0;

  // ---- Both paths -----------------------------------------------------------
  std::vector<int> accepted_clients;
  std::vector<int> rejected_clients;

  /// Empties every buffer, keeping capacity for round reuse.
  void clear() noexcept {
    shard_id = 0;
    client_count = 0;
    malicious_count = 0;
    exact = false;
    weight_sum = 0.0;
    psi_weighted_sum.clear();
    psi_plain_sum.clear();
    parameters.clear();
    selection_scores.clear();
    selection_threshold = 0.0;
    accepted_clients.clear();
    rejected_clients.clear();
  }
};

/// Fold one accepted update into an exact partial. Accumulation order and
/// arithmetic are byte-for-byte those of weighted_mean_into (products w·ψ are
/// exact in double), so folding a shard's rows in slot order and merging is
/// bit-identical to a single-tier weighted mean over the same rows whenever
/// there is one shard, and differs only by summation bracketing otherwise.
/// This is the dynamic-batching primitive: shards call it per reply, with no
/// per-round barrier.
void fold_exact_update(ShardPartial& partial, std::span<const float> psi,
                       const UpdateMeta& meta);

class AggregationStrategy {
 public:
  virtual ~AggregationStrategy() = default;

  /// Zero-copy entry point: aggregate the viewed arena rows into `out`
  /// (cleared first; its buffers are reused across rounds by the server).
  /// Validates the view — uniform non-zero dimension, finite rows — before
  /// dispatching to the strategy body.
  void aggregate_into(const AggregationContext& context, const UpdateView& updates,
                      AggregationResult& out);

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if clients must also upload their CVAE decoder parameters
  /// (FedGuard only); drives the Table V traffic accounting.
  [[nodiscard]] virtual bool wants_decoders() const { return false; }

  /// Flat decoder length each upload must carry when wants_decoders(); sizes
  /// the round arena's theta planes. 0 for strategies that ignore decoders.
  [[nodiscard]] virtual std::size_t decoder_parameter_count() const { return 0; }

  // ---- Mergeable-accumulator seam (two-tier topology) -------------------------

  /// True when shard partials merge into exactly the single-tier result
  /// (FedAvg: a weighted mean is associative up to summation bracketing).
  /// Exact strategies may be folded incrementally per reply via
  /// fold_exact_update; selectors need the whole cohort and run locally.
  [[nodiscard]] virtual bool supports_exact_merge() const { return false; }

  /// Shard-tier entry point: aggregate one cohort's view into a ShardPartial
  /// (cleared first). Validates like aggregate_into. The default routes
  /// metadata: it runs the full strategy on the cohort and ships the local
  /// aggregate + accept/reject split upward; exact strategies override with
  /// accumulator folding instead.
  void partial_aggregate_into(const AggregationContext& context, const UpdateView& updates,
                              std::size_t shard_id, ShardPartial& out);

  /// Root-tier entry point: combine shard partials into the round result
  /// (cleared first). Partials with client_count == 0 (dead or empty shards)
  /// are skipped; throws std::invalid_argument when nothing is mergeable.
  void merge_partials_into(const AggregationContext& context,
                           std::span<const ShardPartial> partials, AggregationResult& out);

 protected:
  /// Default shard body (metadata routing): run do_aggregate on the cohort,
  /// swap the result into the partial (allocation-free in steady state).
  /// Exposed so selector overrides can delegate and then attach their
  /// selection scores.
  virtual void do_partial_aggregate(const AggregationContext& context,
                                    const UpdateView& updates, ShardPartial& out);

  /// Default root body: exact partials are summed and divided once (global
  /// zero-weight fallback preserved); metadata partials are combined as the
  /// accepted-count-weighted mean of the shard-local aggregates, with
  /// accept/reject sets unioned in shard order.
  virtual void do_merge_partials(const AggregationContext& context,
                                 std::span<const ShardPartial> partials,
                                 AggregationResult& out);

 private:
  /// Strategy body. `updates` is non-empty with a validated uniform psi
  /// dimension; `out` arrives cleared.
  virtual void do_aggregate(const AggregationContext& context, const UpdateView& updates,
                            AggregationResult& out) = 0;

  // Round-persistent scratch for the default partial/merge bodies.
  AggregationResult partial_scratch_;
  std::vector<double> merge_accumulator_;
};

// ---- Shared helpers used by several strategies -------------------------------

/// Sample-count weighted arithmetic mean of the viewed psi rows, written into
/// `out` using `accumulator` as caller-owned scratch (both resized in place).
/// Falls back to the unweighted mean when all counts are zero.
void weighted_mean_into(const UpdateView& updates, std::vector<double>& accumulator,
                        std::vector<float>& out);
[[nodiscard]] std::vector<float> weighted_mean(const UpdateView& updates);

/// Unweighted mean of selected view slots (by index into `updates`), in the
/// caller-given slot order.
void mean_of_into(const UpdateView& updates, std::span<const std::size_t> selected,
                  std::vector<double>& accumulator, std::vector<float>& out);

/// Throws std::invalid_argument unless the view is non-empty with a non-zero
/// dimension, and (in FEDGUARD_ASSERTS builds) util::CheckError unless every
/// row is finite; returns the dimension. This is the single boundary at which
/// a NaN/Inf-poisoned upload is rejected before it can reach an accumulator.
std::size_t validate_view(const UpdateView& updates);

}  // namespace fedguard::defenses
