// Shared pieces of the repo benchmark: the model and domains every workload
// uses, timing and percentile helpers, metric records, and the span helper
// the traced run records layer boundaries with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/corpus.hpp"
#include "nn/model.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace edgellm;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// Percentile with linear interpolation between closest ranks (q in [0,1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// "  name = value unit", the form every report line takes.
inline std::string report_line(const std::string& name, double value, const std::string& unit) {
  std::ostringstream s;
  s.precision(6);
  s << "  " << name << " = " << value << " " << unit;
  return s.str();
}

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Attempted/failed counts of one operation kind, printed in the run report.
struct OpCount {
  std::string kind;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// What one run of a workload hands back to main().
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> check_failures;  ///< why `correct` is false
  std::vector<OpCount> ops;                 ///< report rows; JSON sums them
  std::vector<Metric> e2e;                  ///< the BENCHMARK.json end_to_end set
  std::vector<Metric> layer;                ///< per-layer numbers (traced runs)
  std::vector<std::string> report;          ///< human-readable lines

  void fail(const std::string& why) {
    correct = false;
    check_failures.push_back(why);
  }
  const Metric* e2e_metric(const std::string& name) const {
    for (const Metric& m : e2e) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Options every workload receives.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;    ///< measured part of the run
  int setup_repeats = 3;    ///< set-ups per run; setup_s is their median
  bool traced = false;      ///< record spans and per-layer numbers
};

// --- the model and data every workload shares ------------------------------

/// Bench model shape: 6 layers, d 32, 4 heads, exits {2, 4, 6}.
inline nn::ModelConfig model_config(int64_t max_seq) {
  nn::ModelConfig cfg;
  cfg.vocab = 32;
  cfg.d_model = 32;
  cfg.n_layers = 6;
  cfg.n_heads = 4;
  cfg.d_ff = 128;
  cfg.max_seq = max_seq;
  cfg.exit_layers = {2, 4, 6};
  return cfg;
}

/// Base domain the model is pretrained on (order-1 Markov chain).
inline data::MarkovChain base_domain() {
  data::MarkovChain::Config cfg;
  cfg.vocab = 32;
  cfg.order = 1;
  cfg.branch = 4;
  cfg.mass = 0.85f;
  cfg.seed = 1001;
  return data::MarkovChain(cfg);
}

/// Shifted target domain adaptation runs on (60% of context rows redrawn).
inline data::MarkovChain target_domain() { return base_domain().shifted(0.6f, 2002); }

inline constexpr int64_t kBatch = 8;
inline constexpr int64_t kSeq = 16;
/// Pretraining length of the base model built during set-up. The model is
/// fixed (seed 7), not drawn from --seed: it stands for the device's
/// checkpoint, while --seed draws the workload's inputs.
inline constexpr int64_t kPretrainIters = 150;

/// Pretrains the base model on the base domain (deterministic).
std::unique_ptr<nn::CausalLm> pretrain_base(int64_t max_seq);

/// A model with the same config and parameter values; compression settings
/// are not copied.
std::unique_ptr<nn::CausalLm> clone_weights(nn::CausalLm& src);

// --- span helper ------------------------------------------------------------

/// Interns span names: obs::ScopedSpan keeps the char* it is given, so
/// names built at run time need storage that outlives the trace export.
const char* span_name(const std::string& name);

/// Times `fn` once, recording a span around it when tracing is enabled.
inline double timed_ms(const char* name, const std::function<void()>& fn) {
  const obs::ScopedSpan span(name);
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

}  // namespace perfbench
