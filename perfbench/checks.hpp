// Output checks computed apart from the code under test, and self-tests
// that feed each check one deliberately wrong input it must reject.
//
// Serving checks replay every greedy stream through
// CausalLm::forward_all_exits over prompt + output: one full-sequence pass
// with no KV cache, no batching and no speculation. Adaptation checks test
// properties the method must have (budget, compressed-row structure, frozen
// blocks, loss going down, voting convexity).
#pragma once

#include <string>
#include <vector>

#include "core/luc.hpp"
#include "nn/model.hpp"

namespace perfbench {

using namespace edgellm;

/// How a stream's reference token is chosen at each position.
struct StreamRule {
  int64_t exit_index = 0;          ///< index into exit_layers() (argmax there)
  std::vector<float> vote_weights; ///< non-empty: argmax of the weighted softmax mixture
};

/// Positions whose reference top-2 gap is below this accept either token.
/// fp32 decode and the full-sequence pass differ only in summation order.
inline constexpr float kTieGapFp32 = 1e-3f;
/// Packed int4/int8 decode against fake-quant fp32 weights (scale applied
/// once per output instead of per weight).
inline constexpr float kTieGapPacked = 2e-2f;

/// Checks one greedy stream against the reference. Returns -1 when every
/// output token matches (up to ties), else the first offending output index.
int64_t check_greedy_stream(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                            const std::vector<int64_t>& output, const StreamRule& rule,
                            float tie_gap);

/// Average effective bits of the policy are within the budget.
bool check_policy_budget(const core::LucPolicy& policy, double budget_bits);

/// One compressed matrix: each row has at most 2^bits distinct values, all
/// on the row's symmetric quantization grid, and the matrix has at least
/// floor(sparsity * numel) zeros. `why` receives the first violation.
bool check_compressed_matrix(const Tensor& w, const core::LayerPolicy& lp, std::string* why);

/// check_compressed_matrix over every block's Linears, on their effective
/// (compressed) weights.
bool check_compressed_rows(nn::CausalLm& model, const core::LucPolicy& policy, std::string* why);

/// Copies of every block's parameters (index: block, then param order).
std::vector<std::vector<Tensor>> snapshot_blocks(nn::CausalLm& model);

/// Blocks outside [exit_layer - window, exit_layer) are bitwise unchanged.
bool check_frozen_blocks(const std::vector<std::vector<Tensor>>& before,
                         const std::vector<std::vector<Tensor>>& after, int64_t exit_layer,
                         int64_t window);

/// Held-out loss after adaptation is strictly below the loss before it.
inline bool check_loss_improved(float before, float after) { return after < before; }

/// Voted NLL <= voter-weighted mean of the per-exit NLLs (convex mixture).
bool check_vote_convexity(float voted_nll, const std::vector<float>& exit_nll,
                          const std::vector<float>& weights);

/// Feeds check_greedy_stream a correct stream with one token flipped (at
/// the first position where the flip is not a near-tie). True when the
/// check rejects it at exactly that position.
bool self_test_stream_check(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                            const std::vector<int64_t>& output, const StreamRule& rule,
                            float tie_gap);

/// Runs each adaptation check once on a deliberately wrong input (an
/// over-budget policy, one compressed weight moved off its grid, one
/// perturbed frozen weight, swapped losses, a voted NLL above the bound).
/// Returns the names of checks that accepted their wrong input (empty = all
/// rejected). `model` must be compressed with `policy`; it is not modified.
std::vector<std::string> self_test_adapt_checks(nn::CausalLm& model,
                                                const core::LucPolicy& policy);

}  // namespace perfbench
