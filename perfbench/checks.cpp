#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <set>

#include "nn/block.hpp"

namespace perfbench {

namespace {

/// Row `r` of the reference scores [rows, vocab] for this rule: the exit's
/// logits, or log of the weighted mixture of per-exit softmaxes.
std::vector<double> reference_row(const std::vector<Tensor>& exits, const StreamRule& rule,
                                  int64_t r, int64_t vocab) {
  std::vector<double> row(static_cast<size_t>(vocab), 0.0);
  if (rule.vote_weights.empty()) {
    const Tensor& z = exits[static_cast<size_t>(rule.exit_index)];
    for (int64_t v = 0; v < vocab; ++v) row[static_cast<size_t>(v)] = z[r * vocab + v];
    return row;
  }
  for (size_t e = 0; e < exits.size(); ++e) {
    const Tensor& z = exits[e];
    double mx = -1e300;
    for (int64_t v = 0; v < vocab; ++v) mx = std::max(mx, static_cast<double>(z[r * vocab + v]));
    double denom = 0.0;
    for (int64_t v = 0; v < vocab; ++v) denom += std::exp(z[r * vocab + v] - mx);
    for (int64_t v = 0; v < vocab; ++v) {
      row[static_cast<size_t>(v)] +=
          rule.vote_weights[e] * std::exp(z[r * vocab + v] - mx) / denom;
    }
  }
  for (double& x : row) x = std::log(x + 1e-12);
  return row;
}

}  // namespace

int64_t check_greedy_stream(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                            const std::vector<int64_t>& output, const StreamRule& rule,
                            float tie_gap) {
  if (output.empty()) return -1;
  std::vector<int64_t> seq = prompt;
  seq.insert(seq.end(), output.begin(), output.end() - 1);
  const int64_t n = static_cast<int64_t>(seq.size());
  const std::vector<Tensor> exits = model.forward_all_exits(seq, 1, n);
  const int64_t vocab = model.config().vocab;
  const int64_t p0 = static_cast<int64_t>(prompt.size()) - 1;
  for (size_t i = 0; i < output.size(); ++i) {
    const std::vector<double> row = reference_row(exits, rule, p0 + static_cast<int64_t>(i), vocab);
    size_t best = 0;
    for (size_t v = 1; v < row.size(); ++v) {
      if (row[v] > row[best]) best = v;
    }
    const int64_t tok = output[i];
    if (tok < 0 || tok >= vocab) return static_cast<int64_t>(i);
    if (static_cast<size_t>(tok) == best) continue;
    // Not the argmax: accept only a near-tie with the best score.
    if (row[best] - row[static_cast<size_t>(tok)] >= tie_gap) return static_cast<int64_t>(i);
  }
  return -1;
}

bool check_policy_budget(const core::LucPolicy& policy, double budget_bits) {
  return !policy.layers.empty() && policy.avg_effective_bits() <= budget_bits + 1e-9;
}

bool check_compressed_matrix(const Tensor& w, const core::LayerPolicy& lp, std::string* why) {
  const int64_t rows = w.dim(0), cols = w.dim(1);
  if (lp.bits < 16) {
    // Symmetric per-row grid: every value is k * s with |k| <= qmax, where
    // the row's largest magnitude sits on qmax.
    const double qmax = static_cast<double>((int64_t{1} << (lp.bits - 1)) - 1);
    const size_t max_levels = size_t{1} << lp.bits;
    for (int64_t r = 0; r < rows; ++r) {
      std::set<float> distinct;
      double maxabs = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        distinct.insert(w[r * cols + c]);
        maxabs = std::max(maxabs, std::fabs(static_cast<double>(w[r * cols + c])));
      }
      if (distinct.size() > max_levels) {
        if (why) {
          *why = "row " + std::to_string(r) + " has " + std::to_string(distinct.size()) +
                 " distinct values > 2^" + std::to_string(lp.bits);
        }
        return false;
      }
      const double s = maxabs / qmax;
      for (int64_t c = 0; c < cols && s > 0.0; ++c) {
        const double k = w[r * cols + c] / s;
        if (std::fabs(k - std::round(k)) > 1e-3) {
          if (why) *why = "row " + std::to_string(r) + " has a value off its quantization grid";
          return false;
        }
      }
    }
  }
  if (lp.sparsity > 0.0f) {
    int64_t zeros = 0;
    for (int64_t i = 0; i < w.numel(); ++i) zeros += w[i] == 0.0f ? 1 : 0;
    const auto want = static_cast<int64_t>(
        std::floor(static_cast<double>(lp.sparsity) * static_cast<double>(w.numel())));
    if (zeros < want) {
      if (why) *why = std::to_string(zeros) + " zeros < " + std::to_string(want);
      return false;
    }
  }
  return true;
}

bool check_compressed_rows(nn::CausalLm& model, const core::LucPolicy& policy, std::string* why) {
  const auto blocks = model.blocks();
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (nn::Linear* lin : blocks[b]->linears()) {
      if (!check_compressed_matrix(lin->effective_weight(), policy.layers.at(b), why)) {
        if (why) *why = "block " + std::to_string(b) + ": " + *why;
        return false;
      }
    }
  }
  return true;
}

std::vector<std::vector<Tensor>> snapshot_blocks(nn::CausalLm& model) {
  std::vector<std::vector<Tensor>> out;
  for (nn::TransformerBlock* b : model.blocks()) {
    std::vector<nn::Param*> ps;
    b->collect_params(ps);
    std::vector<Tensor> vals;
    vals.reserve(ps.size());
    for (nn::Param* p : ps) vals.push_back(p->value);
    out.push_back(std::move(vals));
  }
  return out;
}

bool check_frozen_blocks(const std::vector<std::vector<Tensor>>& before,
                         const std::vector<std::vector<Tensor>>& after, int64_t exit_layer,
                         int64_t window) {
  if (before.size() != after.size()) return false;
  for (size_t b = 0; b < before.size(); ++b) {
    const auto bi = static_cast<int64_t>(b);
    if (bi >= exit_layer - window && bi < exit_layer) continue;  // trained this step
    if (before[b].size() != after[b].size()) return false;
    for (size_t p = 0; p < before[b].size(); ++p) {
      const Tensor& x = before[b][p];
      const Tensor& y = after[b][p];
      // Bitwise: compare representations, so -0/+0 and NaN payloads count.
      if (x.numel() != y.numel() ||
          std::memcmp(x.raw(), y.raw(), static_cast<size_t>(x.numel()) * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool check_vote_convexity(float voted_nll, const std::vector<float>& exit_nll,
                          const std::vector<float>& weights) {
  if (exit_nll.size() != weights.size() || exit_nll.empty()) return false;
  double bound = 0.0;
  for (size_t e = 0; e < exit_nll.size(); ++e) bound += weights[e] * exit_nll[e];
  // float accumulation slack only; the inequality itself is exact.
  return static_cast<double>(voted_nll) <= bound + 1e-4;
}

bool self_test_stream_check(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                            const std::vector<int64_t>& output, const StreamRule& rule,
                            float tie_gap) {
  // One flipped token, at the first position whose reference gap exceeds
  // the tie tolerance (a flip inside a tie would be a legal output).
  // Positions after the flip are judged against the flipped context, so
  // the check must stop exactly at the flipped position.
  const int64_t vocab = model.config().vocab;
  for (size_t i = 0; i < output.size(); ++i) {
    std::vector<int64_t> bad = output;
    bad[i] = (bad[i] + 1) % vocab;
    const int64_t at = check_greedy_stream(model, prompt, bad, rule, tie_gap);
    if (at == static_cast<int64_t>(i)) return true;
    if (at != -1) return false;  // rejected, but at the wrong position
  }
  return false;
}

std::vector<std::string> self_test_adapt_checks(nn::CausalLm& model,
                                                const core::LucPolicy& policy) {
  std::vector<std::string> accepted_wrong;

  // Over-budget policy: one layer back to fp16.
  core::LucPolicy over = policy;
  over.layers.front() = core::LayerPolicy{16, 0.0f};
  if (check_policy_budget(over, policy.avg_effective_bits())) {
    accepted_wrong.push_back("policy_budget");
  }

  // One perturbed compressed weight: the smallest-magnitude entry of the
  // first compressed Linear moved half a quantization step off its grid
  // (a pruned zero so moved also breaks the zero count).
  for (size_t b = 0; b < policy.layers.size(); ++b) {
    const core::LayerPolicy& lp = policy.layers[b];
    if (lp.bits >= 16) continue;
    Tensor w = model.blocks()[b]->linears().front()->effective_weight();
    const int64_t cols = w.dim(1);
    float maxabs = 0.0f;
    int64_t smallest = 0;
    for (int64_t c = 0; c < cols; ++c) {
      maxabs = std::max(maxabs, std::fabs(w[c]));
      if (std::fabs(w[c]) < std::fabs(w[smallest])) smallest = c;
    }
    const float qmax = static_cast<float>((int64_t{1} << (lp.bits - 1)) - 1);
    w[smallest] += 0.5f * maxabs / qmax;
    if (check_compressed_matrix(w, lp, nullptr)) accepted_wrong.push_back("compressed_rows");
    break;
  }

  // One perturbed frozen weight between the two snapshots.
  {
    const auto before = snapshot_blocks(model);
    auto after = before;
    after.front().front()[0] = std::nextafter(after.front().front()[0], 1e30f);
    if (check_frozen_blocks(before, after, model.config().n_layers, 2)) {
      accepted_wrong.push_back("frozen_blocks");
    }
  }

  if (check_loss_improved(2.0f, 2.5f)) accepted_wrong.push_back("loss_improved");

  {
    const std::vector<float> nll = {2.0f, 2.2f, 2.4f};
    const std::vector<float> w = {0.2f, 0.3f, 0.5f};
    if (check_vote_convexity(2.4f, nll, w)) accepted_wrong.push_back("vote_convexity");
  }
  return accepted_wrong;
}

}  // namespace perfbench
