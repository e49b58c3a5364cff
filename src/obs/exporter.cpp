#include "obs/exporter.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "util/logging.hpp"

namespace fedguard::obs {

namespace {

std::atomic<RoundExporter*> g_exporter{nullptr};

}  // namespace

std::vector<double> parse_histogram_buckets(const std::string& spec) {
  std::vector<double> bounds;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      throw std::invalid_argument{"obs_histogram_buckets: bad bound '" + token +
                                  "'"};
    }
    if (!bounds.empty() && value <= bounds.back()) {
      throw std::invalid_argument{
          "obs_histogram_buckets: bounds must be strictly ascending"};
    }
    bounds.push_back(value);
    pos = comma + 1;
  }
  if (bounds.empty()) {
    throw std::invalid_argument{"obs_histogram_buckets: empty bucket list"};
  }
  return bounds;
}

RoundExporter::RoundExporter(ObsOptions options) : options_{std::move(options)} {
  if (!options_.histogram_buckets.empty()) {
    Registry::global().set_default_buckets(options_.histogram_buckets);
  }
  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<TraceSession>(options_.trace_path);
    dropped_spans_total_ = Registry::global().counter("obs_trace_dropped_spans_total");
  }
  if (!options_.metrics_path.empty()) {
    // Truncate the per-round snapshot log so a rerun starts clean.
    std::ofstream{options_.metrics_path + ".jsonl", std::ios::trunc};
  }
  RoundExporter* expected = nullptr;
  installed_ = g_exporter.compare_exchange_strong(expected, this,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed);
  if (!installed_) {
    util::log_warn("obs: a RoundExporter is already installed; this one is inert");
  }
}

RoundExporter::~RoundExporter() {
  if (installed_) g_exporter.store(nullptr, std::memory_order_release);
  try {
    flush();
  } catch (const std::exception& e) {
    util::log_warn("obs: final exporter flush failed: %s", e.what());
  }
}

void RoundExporter::on_round_end(std::size_t round_index) {
  const util::MutexLock lock{io_mutex_};
  process_stats_.sample();
  if (!options_.metrics_path.empty()) {
    std::ofstream log{options_.metrics_path + ".jsonl", std::ios::app};
    if (log) {
      log << "{\"round\":" << round_index
          << ",\"metrics\":" << Registry::global().json_snapshot() << "}\n";
    }
  }
  if (options_.flush_every_rounds != 0 &&
      (round_index + 1) % options_.flush_every_rounds == 0) {
    flush_locked();
  }
}

void RoundExporter::flush() {
  const util::MutexLock lock{io_mutex_};
  flush_locked();
}

void RoundExporter::flush_locked() {
  if (trace_) {
    // Spans dropped to buffer overflow are exported, never silent.
    const std::uint64_t dropped = trace_->dropped_spans();
    dropped_spans_total_.add(dropped - dropped_exported_);
    dropped_exported_ = dropped;
  }
  if (!options_.metrics_path.empty()) {
    Registry::global().write_prometheus(options_.metrics_path);
  }
  if (trace_) trace_->flush();
}

void round_tick(std::size_t round_index) {
  RoundExporter* exporter = g_exporter.load(std::memory_order_acquire);
  if (exporter != nullptr) exporter->on_round_end(round_index);
}

}  // namespace fedguard::obs
