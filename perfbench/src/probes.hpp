#pragma once
// Layer probes: timed calls into the public functions of each layer (data,
// models, nn, tensor, net codec) at the workload's shapes. Each probe is a
// median over repeated calls after one warm-up call, and each is recorded
// as a span.

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run every probe for `spec` and add its metrics to `out`.
void run_probes(const WorkloadSpec& spec, SpanRecorder& recorder, MetricMap& out);

}  // namespace perfbench
