#pragma once
// Round arenas for tests. A test writes a cohort down as
// {id, ψ, samples, malicious} rows (plus θ for FedGuard); matrix_of copies
// them into an UpdateMatrix in slot order, and aggregate runs the strategy
// through aggregate_into, the same entry point both federations use. Clients
// train into a row through run_round_into (train_row). Nothing here is part of the library:
// the library's only in-process form of an upload is the arena row.

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "defenses/aggregation.hpp"
#include "defenses/update_matrix.hpp"
#include "fl/client.hpp"

namespace fedguard::test {

/// One upload as a test writes it down.
struct Row {
  int id = -1;
  std::vector<float> psi;
  std::size_t samples = 1;
  bool malicious = false;
  std::vector<float> theta;
};

inline Row row(int id, std::vector<float> psi, std::size_t samples = 1,
               bool malicious = false) {
  return Row{id, std::move(psi), samples, malicious, {}};
}

/// Copy `rows` into an arena, row k in slot k. The θ plane is as wide as the
/// longest θ; each row's own length lands in UpdateMeta::theta_count. An
/// arena cannot hold ragged ψ rows, so a cohort with them is a test bug.
inline defenses::UpdateMatrix matrix_of(std::span<const Row> rows) {
  const std::size_t psi_dim = rows.empty() ? 0 : rows.front().psi.size();
  std::size_t theta_dim = 0;
  for (const Row& r : rows) {
    if (r.psi.size() != psi_dim) throw std::logic_error{"matrix_of: ragged psi rows"};
    theta_dim = std::max(theta_dim, r.theta.size());
  }
  defenses::UpdateMatrix matrix;
  matrix.reset(rows.size(), psi_dim, theta_dim);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const defenses::UpdateRow out = matrix.row(k);
    std::copy(rows[k].psi.begin(), rows[k].psi.end(), out.psi.begin());
    std::copy(rows[k].theta.begin(), rows[k].theta.end(), out.theta.begin());
    out.meta->client_id = rows[k].id;
    out.meta->num_samples = rows[k].samples;
    out.meta->truly_malicious = rows[k].malicious;
    out.meta->theta_count = rows[k].theta.size();
  }
  return matrix;
}

/// Aggregate `rows` through the strategy's one entry point.
inline defenses::AggregationResult aggregate(defenses::AggregationStrategy& strategy,
                                             const defenses::AggregationContext& context,
                                             std::span<const Row> rows) {
  const defenses::UpdateMatrix matrix = matrix_of(rows);
  defenses::AggregationResult result;
  strategy.aggregate_into(context, defenses::UpdateView{matrix}, result);
  return result;
}

inline defenses::DetectionStats detection_stats(std::span<const Row> rows,
                                                const defenses::AggregationResult& result) {
  const defenses::UpdateMatrix matrix = matrix_of(rows);
  return defenses::compute_detection_stats(defenses::UpdateView{matrix}, result);
}

/// One client round into a fresh row with room for `theta_capacity` decoder
/// floats. θ is trimmed to the length the client reported, so a client that
/// trains no CVAE comes back with an empty θ.
inline Row train_row(fl::Client& client, std::span<const float> global, std::size_t round,
                     std::size_t theta_capacity = 0) {
  Row out;
  out.psi.resize(global.size());
  out.theta.resize(theta_capacity);
  defenses::UpdateMeta meta;
  client.run_round_into(global, round, defenses::UpdateRow{out.psi, out.theta, &meta});
  if (meta.theta_count > theta_capacity) {
    throw std::logic_error{"train_row: theta_capacity below the client's decoder length"};
  }
  out.theta.resize(meta.theta_count);
  out.id = meta.client_id;
  out.samples = meta.num_samples;
  out.malicious = meta.truly_malicious;
  return out;
}

}  // namespace fedguard::test
