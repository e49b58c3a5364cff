#pragma once
// Shared pieces of perfbench_e2e: the steady clock, order statistics,
// the in-memory span recorder (written once, as a Perfetto-loadable JSON,
// when the process ends), the forwarding AggregationStrategy that times the
// real strategy's calls from outside, and a minimal JSON writer.
//
// Everything here observes the product through its public API; nothing in
// the library is instrumented or modified.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "defenses/aggregation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Run `body` `reps` times after one untimed warm-up call and return the
/// median wall time of one call in seconds.
template <typename Body>
[[nodiscard]] double median_call_seconds(std::size_t reps, Body&& body) {
  body();
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

/// In-memory span recorder. Spans are kept in one vector behind a mutex
/// (callers are the round thread plus, for selectors, shard reactor
/// threads) and written out once by write_perfetto.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string category;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t tid = 0;
    std::int64_t round = -1;
  };

  SpanRecorder() : origin_{Clock::now()} {}

  /// Record [start, now) and return its length in seconds.
  double close(std::string name, std::string category, Clock::time_point start,
               std::int64_t round = -1) {
    const auto end = Clock::now();
    const std::uint32_t tid = thread_index();
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(Span{std::move(name), std::move(category), start, end, tid, round});
    return std::chrono::duration<double>(end - start).count();
  }

  /// Time `body` as one span; returns its length in seconds.
  template <typename Body>
  double time(std::string name, std::string category, std::int64_t round, Body&& body) {
    const auto start = Clock::now();
    body();
    return close(std::move(name), std::move(category), start, round);
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return spans_.size();
  }

  /// Chrome trace-event JSON (complete "X" events), loadable in Perfetto.
  /// Returns false when the file cannot be written.
  bool write_perfetto(const std::string& path) const;

 private:
  std::uint32_t thread_index() {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto id = std::this_thread::get_id();
    const auto found = thread_ids_.find(id);
    if (found != thread_ids_.end()) return found->second;
    const auto index = static_cast<std::uint32_t>(thread_ids_.size() + 1);
    thread_ids_.emplace(id, index);
    return index;
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

/// Forwarding strategy: every public entry point reaches the wrapped
/// strategy unchanged (same arguments, same result buffers), and the
/// wrapper records one span per aggregate / shard partial / root merge call.
/// It either borrows the strategy (in-process: the Federation owns it) or
/// owns it (socket: one instance per HierarchicalServer factory call).
class TimedStrategy final : public fedguard::defenses::AggregationStrategy {
 public:
  TimedStrategy(fedguard::defenses::AggregationStrategy& inner, SpanRecorder& recorder)
      : inner_{inner}, recorder_{recorder} {}
  TimedStrategy(std::unique_ptr<fedguard::defenses::AggregationStrategy> owned,
                SpanRecorder& recorder)
      : owned_{std::move(owned)}, inner_{*owned_}, recorder_{recorder} {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool wants_decoders() const override { return inner_.wants_decoders(); }
  [[nodiscard]] std::size_t decoder_parameter_count() const override {
    return inner_.decoder_parameter_count();
  }
  [[nodiscard]] bool supports_exact_merge() const override {
    return inner_.supports_exact_merge();
  }

  /// Seconds spent in aggregate / merge calls since the last take (the
  /// round thread reads these after each run_round).
  double take_aggregate_seconds() { return std::exchange(aggregate_seconds_, 0.0); }
  double take_merge_seconds() { return std::exchange(merge_seconds_, 0.0); }
  [[nodiscard]] std::size_t aggregate_calls() const noexcept { return aggregate_calls_; }
  [[nodiscard]] std::size_t merge_calls() const noexcept { return merge_calls_; }

 protected:
  void do_partial_aggregate(const fedguard::defenses::AggregationContext& context,
                            const fedguard::defenses::UpdateView& updates,
                            fedguard::defenses::ShardPartial& out) override {
    const std::size_t shard = out.shard_id;
    const auto start = Clock::now();
    inner_.partial_aggregate_into(context, updates, shard, out);
    recorder_.close("partial_aggregate", "fl", start, static_cast<std::int64_t>(context.round));
  }

  void do_merge_partials(const fedguard::defenses::AggregationContext& context,
                         std::span<const fedguard::defenses::ShardPartial> partials,
                         fedguard::defenses::AggregationResult& out) override {
    const auto start = Clock::now();
    inner_.merge_partials_into(context, partials, out);
    merge_seconds_ +=
        recorder_.close("merge", "net", start, static_cast<std::int64_t>(context.round));
    ++merge_calls_;
  }

 private:
  void do_aggregate(const fedguard::defenses::AggregationContext& context,
                    const fedguard::defenses::UpdateView& updates,
                    fedguard::defenses::AggregationResult& out) override {
    const auto start = Clock::now();
    inner_.aggregate_into(context, updates, out);
    aggregate_seconds_ +=
        recorder_.close("aggregate", "fl", start, static_cast<std::int64_t>(context.round));
    ++aggregate_calls_;
  }

  std::unique_ptr<fedguard::defenses::AggregationStrategy> owned_;
  fedguard::defenses::AggregationStrategy& inner_;
  SpanRecorder& recorder_;
  double aggregate_seconds_ = 0.0;
  double merge_seconds_ = 0.0;
  std::size_t aggregate_calls_ = 0;
  std::size_t merge_calls_ = 0;
};

/// One reported metric: value, unit, which direction is better, and how
/// many samples the value summarizes (1 for a single measurement).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;  // "lower" / "higher" / "" (informational)
  std::size_t samples = 1;
  std::string note;
};

using MetricMap = std::map<std::string, Metric>;

inline void put(MetricMap& out, const std::string& name, double value, std::string unit,
                std::string better, std::size_t samples, std::string note = {}) {
  out[name] = Metric{value, std::move(unit), std::move(better), samples, std::move(note)};
}

/// Minimal JSON text helpers (the report is flat enough not to need more).
[[nodiscard]] std::string json_string(const std::string& text);
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
