// The benchmark's workloads and the traced run's layer replay.
#pragma once

#include "common.hpp"

namespace perfbench {

/// On-device adaptation: compress, Edge-LLM tuning, voting, vanilla tuning.
WorkloadResult run_adapt(const RunOptions& o);

/// Offline backlog through ServeEngine: decode-bound, short unshared prompts.
WorkloadResult run_serve_batch(const RunOptions& o);

/// Online HTTP endpoint: open-loop arrivals, shared prefixes, packed weights.
WorkloadResult run_serve_http(const RunOptions& o);

/// Times each layer's public entry points at the workloads' own shapes
/// (training plans, decode batch sizes and cache positions, packed
/// kernels). Returns per-layer metrics; kernel op counts and bytes moved
/// go to `report`.
std::vector<Metric> replay_layers(uint64_t seed, std::vector<std::string>& report);

}  // namespace perfbench
