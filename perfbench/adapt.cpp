// Workload `adapt`: the paper's adaptation flow on the device.
//
// Each round starts from the pretrained base model and (1) prepares it —
// sensitivity probe, LUC search at 3 effective bits, apply_policy, and the
// hw schedule search for the compressed model — then (2) runs Edge-LLM
// tuning on the shifted target domain (uniform exit sampling, backprop
// window 2), (3) calibrates the voter and evaluates held-out loss, and (4)
// runs vanilla full-depth fine-tuning from the same base on the same
// batches. It is the only workload on the training path and never touches
// serve/, net/ or the decode path.
#include "workloads.hpp"

#include <sstream>

#include "checks.hpp"
#include "core/luc.hpp"
#include "core/sensitivity.hpp"
#include "core/tuner.hpp"
#include "core/voting.hpp"
#include "data/eval.hpp"
#include "hw/search.hpp"
#include "runtime/simulator.hpp"
#include "tensor/parallel.hpp"

namespace perfbench {

namespace {

constexpr double kBudgetBits = 3.0;
constexpr int64_t kWindow = 2;
constexpr int64_t kComputeThreads = 2;
/// Tuning iterations per round, Edge-LLM and vanilla each.
constexpr int64_t kRoundIters = 128;
/// Every kFrozenEvery-th Edge-LLM step is checked for untouched blocks.
constexpr int64_t kFrozenEvery = 8;

std::vector<data::LmBatch> sample_batches(const data::MarkovChain& dom, int64_t n, Rng& rng) {
  std::vector<data::LmBatch> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(data::sample_lm_batch(dom, kBatch, kSeq, rng));
  return out;
}

core::TunerConfig edge_config() {
  core::TunerConfig t;
  t.sampling = core::DepthSampling::kUniform;
  t.backprop_window = kWindow;
  t.optim.lr = 3e-3f;
  return t;
}

core::TunerConfig vanilla_config() {
  core::TunerConfig t = core::TunerConfig::vanilla();
  t.optim.lr = 3e-3f;
  return t;
}

/// Modelled per-iteration vanilla / Edge-LLM ratio for this configuration.
double modelled_ratio(const nn::ModelConfig& cfg, const core::LucPolicy& policy) {
  runtime::SimulatorConfig sim;
  sim.batch = kBatch;
  sim.seq = kSeq;
  runtime::MethodSpec m;
  m.name = "Edge-LLM";
  m.policy = policy;
  m.exits = cfg.exit_layers;
  m.exit_probs.assign(cfg.exit_layers.size(), 1.0 / static_cast<double>(cfg.exit_layers.size()));
  m.backprop_window = kWindow;
  const double vanilla =
      runtime::simulate_method(cfg, runtime::vanilla_method(cfg), sim).expected_cycles;
  return vanilla / runtime::simulate_method(cfg, m, sim).expected_cycles;
}

}  // namespace

WorkloadResult run_adapt(const RunOptions& o) {
  WorkloadResult res;
  parallel::set_num_threads(kComputeThreads);
  const nn::ModelConfig cfg = model_config(32);

  // Set-up: pretrain the base model (repeated; the median is setup_s).
  std::vector<double> setup_ms;
  std::unique_ptr<nn::CausalLm> base;
  for (int i = 0; i < o.setup_repeats; ++i) {
    const auto t0 = Clock::now();
    base = pretrain_base(cfg.max_seq);
    setup_ms.push_back(ms_since(t0));
  }

  // Inputs drawn from --seed.
  Rng data_rng(o.seed * 0x9E3779B97F4A7C15ULL + 11);
  const std::vector<data::LmBatch> sens_calib = sample_batches(base_domain(), 2, data_rng);
  const std::vector<data::LmBatch> voter_calib = sample_batches(target_domain(), 4, data_rng);
  const std::vector<data::LmBatch> eval_set = sample_batches(target_domain(), 8, data_rng);

  core::SensitivityConfig scfg;
  core::LucConfig lcfg;
  lcfg.target_effective_bits = kBudgetBits;

  // Timings are kept per call and reported as medians, so stretches of the
  // run disturbed by other load on the host do not move them.
  std::vector<double> edge_ms, vanilla_ms, compress_ms, tuning_ms_rounds, eval_ms;
  std::vector<double> sens_ms, luc_ms, apply_ms, sched_ms;
  std::map<int64_t, std::vector<double>> step_by_exit;
  int64_t edge_steps = 0, vanilla_steps = 0, edge_skipped = 0, vanilla_skipped = 0;
  int64_t frozen_checks = 0, peak_bytes = 0, rounds = 0;
  double model_bytes = 0.0, loss_before_sum = 0.0, loss_after_sum = 0.0, voted_sum = 0.0;
  core::LucPolicy last_policy;

  const auto run_t0 = Clock::now();
  while (rounds == 0 || ms_since(run_t0) < o.seconds * 1e3) {
    const uint64_t round_seed = o.seed * 1000003ULL + static_cast<uint64_t>(rounds);
    Rng rng(round_seed);
    const std::vector<data::LmBatch> batches = sample_batches(target_domain(), kRoundIters, rng);

    // (1) Prepare: sensitivity -> LUC -> apply -> schedule search.
    std::unique_ptr<nn::CausalLm> model = clone_weights(*base);
    const auto session_t0 = Clock::now();
    core::SensitivityProfile profile;
    core::LucPolicy policy;
    hw::IterationPlan plan;
    sens_ms.push_back(timed_ms("core/analyze_sensitivity", [&] {
      profile = core::analyze_sensitivity(*model, sens_calib, scfg);
    }));
    luc_ms.push_back(timed_ms("core/search_luc_policy", [&] {
      policy = core::search_luc_policy(profile, scfg, lcfg);
    }));
    apply_ms.push_back(timed_ms("core/apply_policy", [&] {
      core::apply_policy(*model, policy, scfg.prune_pattern, scfg.quant_granularity);
    }));
    sched_ms.push_back(timed_ms("hw/schedule_iteration", [&] {
      const hw::IterationSpec it{kBatch, kSeq, cfg.n_layers, kWindow, false, false};
      const auto wl = hw::training_iteration_workloads(
          cfg, core::policy_to_compression(policy, scfg.prune_pattern), it);
      plan = hw::schedule_iteration(hw::default_edge_device(), wl, hw::SearchConfig{}, nullptr);
    }));
    compress_ms.push_back(ms_since(session_t0));
    if (!(plan.total_cycles > 0.0)) res.fail("adapt: schedule search returned no plan");

    if (!check_policy_budget(policy, kBudgetBits)) {
      res.fail("adapt: policy averages " + std::to_string(policy.avg_effective_bits()) +
               " effective bits > budget");
    }
    std::string why;
    if (!check_compressed_rows(*model, policy, &why)) res.fail("adapt: compressed rows: " + why);
    const float loss_before = data::lm_loss(*model, eval_set, cfg.n_layers);

    // (2) Edge-LLM tuning. Only tuner.step is timed; the frozen-block
    // snapshots on sampled steps sit outside the timed calls.
    double tuning_ms = 0.0;
    std::vector<double> steps;
    {
      core::AdaptiveLayerTuner tuner(*model, edge_config(), Rng(round_seed ^ 0xA5A5));
      for (int64_t i = 0; i < kRoundIters; ++i) {
        const bool sample = i % kFrozenEvery == 0;
        std::vector<std::vector<Tensor>> before;
        if (sample) before = snapshot_blocks(*model);
        core::StepStats st;
        const double ms = timed_ms("core/tuner_step", [&] { st = tuner.step(batches[i]); });
        tuning_ms += ms;
        steps.push_back(ms);
        step_by_exit[st.exit_layer].push_back(ms);
        ++edge_steps;
        if (st.skipped) ++edge_skipped;
        peak_bytes = std::max(peak_bytes,
                              st.activation_bytes + st.grad_bytes + st.optimizer_state_bytes);
        if (sample) {
          ++frozen_checks;
          if (!check_frozen_blocks(before, snapshot_blocks(*model), st.exit_layer,
                                   st.backprop_depth)) {
            res.fail("adapt: a block outside the backprop window changed at step " +
                     std::to_string(i));
          }
        }
      }
    }

    // (3) Voter calibration and held-out evaluation.
    const auto eval_t0 = Clock::now();
    float loss_after = 0.0f, voted = 0.0f;
    std::vector<float> exit_nll;
    std::vector<float> weights;
    {
      const obs::ScopedSpan span("adapt/vote_eval");
      core::ExitVoter voter(*model, core::VoterConfig{});
      voter.calibrate(voter_calib);
      loss_after = data::lm_loss(*model, eval_set, cfg.n_layers);
      voted = voter.voted_loss(eval_set);
      for (int64_t e : cfg.exit_layers) exit_nll.push_back(data::lm_loss(*model, eval_set, e));
      weights = voter.weights();
    }
    eval_ms.push_back(ms_since(eval_t0));
    tuning_ms_rounds.push_back(tuning_ms);
    edge_ms.insert(edge_ms.end(), steps.begin(), steps.end());
    if (!check_loss_improved(loss_before, loss_after)) {
      res.fail("adapt: held-out loss did not improve (" + std::to_string(loss_before) + " -> " +
               std::to_string(loss_after) + ")");
    }
    if (!check_vote_convexity(voted, exit_nll, weights)) {
      res.fail("adapt: voted NLL " + std::to_string(voted) + " above the weighted exit mean");
    }
    if (!check_compressed_rows(*model, policy, &why)) {
      res.fail("adapt: compressed rows after tuning: " + why);
    }
    model_bytes = model->weight_storage_bytes();
    loss_before_sum += loss_before;
    loss_after_sum += loss_after;
    voted_sum += voted;

    // (4) Vanilla full-depth fine-tuning from the same base, same batches.
    {
      std::unique_ptr<nn::CausalLm> vmodel = clone_weights(*base);
      core::AdaptiveLayerTuner tuner(*vmodel, vanilla_config(), Rng(round_seed ^ 0xA5A5));
      std::vector<double> vsteps;
      for (int64_t i = 0; i < kRoundIters; ++i) {
        core::StepStats st;
        vsteps.push_back(
            timed_ms("core/tuner_step_vanilla", [&] { st = tuner.step(batches[i]); }));
        ++vanilla_steps;
        if (st.skipped) ++vanilla_skipped;
      }
      vanilla_ms.insert(vanilla_ms.end(), vsteps.begin(), vsteps.end());
    }

    if (rounds == 0) {
      // Self-tests: every adaptation check must reject a wrong input.
      for (const std::string& name : self_test_adapt_checks(*model, policy)) {
        res.fail("adapt: self-test: check " + name + " accepted its wrong input");
      }
    }
    last_policy = policy;
    ++rounds;
  }

  // Edge-LLM step time under uniform exit sampling: the mean over exits of
  // each exit's median step, so neither the run's exit mix nor a disturbed
  // stretch can move it. Vanilla steps have one shape; their median.
  double adapt_step_ms = 0.0;
  for (int64_t e : cfg.exit_layers) adapt_step_ms += median(step_by_exit[e]);
  adapt_step_ms /= static_cast<double>(cfg.exit_layers.size());
  const double vanilla_step_ms = median(vanilla_ms);
  const double n_rounds = static_cast<double>(rounds);
  // One adaptation session (prepare + tune + vote/eval), each phase at its
  // median over rounds.
  const double session_ms = median(compress_ms) + median(tuning_ms_rounds) + median(eval_ms);

  res.e2e = {
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"latency_ms", adapt_step_ms, "ms"},
      {"throughput_per_s",
       static_cast<double>(kRoundIters * kBatch * kSeq) / (session_ms / 1e3), "1/s"},
      {"peak_bytes", static_cast<double>(peak_bytes), "bytes"},
  };
  res.ops = {{"tuner_step.edge_llm", edge_steps, edge_skipped},
             {"tuner_step.vanilla", vanilla_steps, vanilla_skipped}};

  const double ratio = vanilla_step_ms / adapt_step_ms;
  std::ostringstream r;
  r.precision(6);
  r << "adapt: " << rounds << " rounds x " << kRoundIters << " iterations (batch " << kBatch
    << " x seq " << kSeq << ", window " << kWindow << ", " << kComputeThreads
    << " compute threads), " << frozen_checks << " frozen-block checks";
  res.report.push_back(r.str());
  auto line = [&](const std::string& name, double v, const std::string& unit) {
    res.report.push_back(report_line(name, v, unit));
  };
  line("compress_s (median round)", median(compress_ms) / 1e3, "s");
  line("adapt_step_ms (mean over exits of the per-exit median)", adapt_step_ms, "ms");
  line("adapt_step_ms (tuning-loop wall / iterations)", mean(edge_ms), "ms");
  line("vanilla_step_ms (median)", vanilla_step_ms, "ms");
  line("vanilla_step_ms (tuning-loop wall / iterations)", mean(vanilla_ms), "ms");
  line("adapt_step_ms p90 (all steps)", percentile(edge_ms, 0.9), "ms");
  line("adapt_step_ms p99 (all steps, n=" + std::to_string(edge_ms.size()) + ")",
       percentile(edge_ms, 0.99), "ms");
  line("vanilla_step_ms p99 (all steps)", percentile(vanilla_ms, 0.99), "ms");
  for (const auto& [exit, v] : step_by_exit) {
    line("adapt_step_ms exit " + std::to_string(exit) + " (median, n=" + std::to_string(v.size()) +
             ")",
         median(v), "ms");
  }
  line("train_peak_bytes", static_cast<double>(peak_bytes), "bytes");
  line("model_bytes (after LUC)", model_bytes, "bytes");
  line("held-out loss before -> after tuning (mean)", loss_before_sum / n_rounds, "nats");
  line("  after", loss_after_sum / n_rounds, "nats");
  line("voted NLL (mean)", voted_sum / n_rounds, "nats");
  line("measured per-iteration speedup vanilla/Edge-LLM", ratio, "x");
  line("modelled per-iteration speedup (runtime::simulate_method)",
       modelled_ratio(cfg, last_policy), "x");

  if (o.traced) {
    res.layer = {
        {"core.sensitivity_ms", median(sens_ms), "ms"},
        {"core.luc_search_ms", median(luc_ms), "ms"},
        {"core.apply_policy_ms", median(apply_ms), "ms"},
        {"hw.schedule_search_ms", median(sched_ms), "ms"},
    };
    for (int64_t e : cfg.exit_layers) {
      res.layer.push_back({"core.tuner_step_ms.exit" + std::to_string(e),
                           median(step_by_exit[e]), "ms"});
    }
  }
  return res;
}

}  // namespace perfbench
