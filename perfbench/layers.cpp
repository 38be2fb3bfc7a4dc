// The traced run's layer replay: calls each layer's public entry points
// with the workloads' own shapes — the training plans of `adapt`, the decode
// batch sizes and cache positions of `serve_batch`, the packed prompt-only
// prefill of `serve_http` — and reports the median time per call. Each call
// is wrapped in a span, so the Chrome trace shows the same boundaries.
#include <deque>
#include <sstream>

#include "core/luc.hpp"
#include "core/sensitivity.hpp"
#include "core/voting.hpp"
#include "nn/decoder.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "quant/packed.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Median over `reps` calls of `fn`, in ms, each call inside a span.
double median_ms(const std::string& span, int reps, const std::function<void()>& fn) {
  const char* name = span_name(span);
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(timed_ms(name, fn));
  return median(v);
}

Tensor random_tensor(std::vector<int64_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

/// Training-path replay: forward / backward / optimizer per plan, on the
/// LUC-compressed model (Edge-LLM plans) and the uncompressed base (full).
void replay_training(Rng& rng, std::vector<Metric>& out) {
  parallel::set_num_threads(2);  // the adapt workload's compute threads
  std::unique_ptr<nn::CausalLm> base = pretrain_base(32);
  std::unique_ptr<nn::CausalLm> comp = clone_weights(*base);
  std::vector<data::LmBatch> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(data::sample_lm_batch(base_domain(), kBatch, kSeq, rng));
  const core::SensitivityConfig scfg;
  core::LucConfig lcfg;
  lcfg.target_effective_bits = 3.0;
  const core::LucPolicy policy =
      core::search_luc_policy(core::analyze_sensitivity(*comp, calib, scfg), scfg, lcfg);
  core::apply_policy(*comp, policy);

  const data::MarkovChain target = target_domain();
  constexpr int kReps = 15;
  struct Case {
    const char* tag;
    nn::CausalLm* model;
    nn::ForwardPlan plan;
  };
  const std::vector<Case> cases = {
      {"exit2", comp.get(), {2, 2, false, false}},
      {"exit4", comp.get(), {4, 2, false, false}},
      {"exit6", comp.get(), {6, 2, false, false}},
      {"full", base.get(), nn::ForwardPlan::full(6)},
  };
  for (const Case& c : cases) {
    nn::AdamW opt(c.model->params_for_plan(c.plan), nn::AdamW::Config{});
    std::vector<double> f, b, o;
    for (int i = 0; i < kReps; ++i) {
      const data::LmBatch batch = data::sample_lm_batch(target, kBatch, kSeq, rng);
      Tensor logits;
      f.push_back(timed_ms(span_name(std::string("nn/forward.") + c.tag), [&] {
        logits = c.model->forward(batch.inputs, batch.batch, batch.seq, c.plan);
      }));
      const nn::CrossEntropyResult ce = nn::cross_entropy(logits, batch.targets);
      b.push_back(timed_ms(span_name(std::string("nn/backward.") + c.tag),
                           [&] { c.model->backward(ce.grad_logits); }));
      const std::vector<nn::Param*> ps = c.model->params_for_plan(c.plan);
      o.push_back(timed_ms(span_name(std::string("nn/optim.") + c.tag), [&] {
        nn::clip_grad_norm(ps, 1.0f);
        opt.set_params(ps);
        opt.step();
      }));
      for (nn::Param* p : ps) p->zero_grad();
      c.model->clear_cache();
    }
    out.push_back({std::string("nn.forward_ms.") + c.tag, median(f), "ms"});
    out.push_back({std::string("nn.backward_ms.") + c.tag, median(b), "ms"});
    out.push_back({std::string("nn.optim_ms.") + c.tag, median(o), "ms"});
  }

  // LUC's fake-quant forward cost: the same eval forward on the compressed
  // model and on an uncompressed copy, interleaved; median difference.
  std::unique_ptr<nn::CausalLm> plain = clone_weights(*comp);
  std::vector<double> diff;
  for (int i = 0; i < 2 * kReps; ++i) {
    const data::LmBatch batch = data::sample_lm_batch(target, kBatch, kSeq, rng);
    const double tc = timed_ms("quant/luc_forward", [&] {
      comp->forward_eval(batch.inputs, batch.batch, batch.seq, 6);
    });
    const double tp = timed_ms("quant/plain_forward", [&] {
      plain->forward_eval(batch.inputs, batch.batch, batch.seq, 6);
    });
    diff.push_back(tc - tp);
  }
  out.push_back({"quant.luc_forward_overhead_ms", median(diff), "ms"});
}

struct GemmShape {
  int64_t m, k, n;
};
using GemmCall = std::pair<GemmShape, std::function<void()>>;

/// GFLOP/s over one pass of `calls` (median pass of `reps`); appends the
/// op count and bytes moved (fp32 operands, computed from tensor sizes) to
/// `report`.
double gemm_rate(const std::string& label, const std::vector<GemmCall>& calls, int reps,
                 std::vector<std::string>& report) {
  const char* name = span_name("tensor/" + label);
  std::vector<double> per_pass;
  for (int r = 0; r < reps; ++r) {
    double ms = 0.0;
    for (const GemmCall& c : calls) ms += timed_ms(name, c.second);
    per_pass.push_back(ms);
  }
  double flops = 0.0, bytes = 0.0;
  for (const GemmCall& c : calls) {
    const GemmShape& s = c.first;
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
    bytes += 4.0 * static_cast<double>(s.m * s.k + s.k * s.n + s.m * s.n);
  }
  std::ostringstream line;
  line << "  " << label << ": " << calls.size() << " GEMMs per pass, " << flops << " FLOP and "
       << bytes << " bytes moved per pass";
  report.push_back(line.str());
  return flops / (median(per_pass) * 1e-3) / 1e9;
}

void replay_kernels(Rng& rng, std::vector<Metric>& out, std::vector<std::string>& report) {
  constexpr int kReps = 201;
  // Block projections (in, out): attention d x d, MLP d x d_ff and back.
  const std::vector<std::pair<int64_t, int64_t>> proj = {{32, 32}, {32, 128}, {128, 32}};

  // Training shapes: m = batch x seq rows; forward (matmul_nt), input grad
  // (matmul) and weight grad (matmul_tn) per projection.
  parallel::set_num_threads(2);
  const int64_t m = kBatch * kSeq;
  std::deque<Tensor> keep;  // operands outlive the calls that reference them
  std::vector<GemmCall> train;
  for (const auto& [in, o] : proj) {
    const Tensor& x = keep.emplace_back(random_tensor({m, in}, rng));
    const Tensor& w = keep.emplace_back(random_tensor({o, in}, rng));
    const Tensor& g = keep.emplace_back(random_tensor({m, o}, rng));
    train.push_back({{m, in, o}, [&x, &w] { ops::matmul_nt(x, w); }});
    train.push_back({{m, o, in}, [&g, &w] { ops::matmul(g, w); }});
    train.push_back({{o, m, in}, [&g, &x] { ops::matmul_tn(g, x); }});
  }
  out.push_back({"tensor.train_gemm_gflops", gemm_rate("train_gemm", train, kReps, report),
                 "GFLOP/s"});

  // Decode shapes: m in {1, 8} rows, fp32 and packed int4 / int8 weights.
  parallel::set_num_threads(1);
  std::vector<GemmCall> decode, packed;
  std::deque<quant::PackedMatrix> packs;
  for (int64_t rows : {1, 8}) {
    for (const auto& [in, o] : proj) {
      const Tensor& x = keep.emplace_back(random_tensor({rows, in}, rng));
      const Tensor& w = keep.emplace_back(random_tensor({o, in}, rng));
      const quant::PackedMatrix& w4 = packs.emplace_back(quant::PackedMatrix::pack(w, 4));
      const quant::PackedMatrix& w8 = packs.emplace_back(quant::PackedMatrix::pack(w, 8));
      decode.push_back({{rows, in, o}, [&x, &w] { ops::matmul_nt(x, w); }});
      packed.push_back({{rows, in, o}, [&x, &w4] { quant::packed_matmul_nt(x, w4); }});
      packed.push_back({{rows, in, o}, [&x, &w8] { quant::packed_matmul_nt(x, w8); }});
    }
  }
  out.push_back({"tensor.decode_gemm_gflops", gemm_rate("decode_gemm", decode, kReps, report),
                 "GFLOP/s"});
  out.push_back({"quant.packed_gemm_gflops",
                 gemm_rate("packed_gemm_int4_int8", packed, kReps, report), "GFLOP/s"});

  // Voting combine and sampling at rows 1, as the engine calls them.
  std::vector<Tensor> exit_logits;
  for (int e = 0; e < 3; ++e) exit_logits.push_back(random_tensor({32}, rng));
  const std::vector<float> w = {0.2f, 0.3f, 0.5f}, losses = {0.0f, 0.0f, 0.0f};
  constexpr int kInner = 200;
  out.push_back({"core.vote_combine_us",
                 median_ms("core/combine_exit_logits", kReps,
                           [&] {
                             for (int i = 0; i < kInner; ++i) {
                               core::combine_exit_logits(exit_logits, w, losses,
                                                         core::VoterConfig{});
                             }
                           }) *
                     1e3 / kInner,
                 "us"});
  nn::GenerateConfig greedy;
  greedy.temperature = 0.0f;
  Rng srng(5);
  out.push_back({"serve.sample_us", median_ms("nn/sample_token", kReps,
                                              [&] {
                                                for (int i = 0; i < kInner; ++i) {
                                                  nn::sample_token(exit_logits[0], greedy, srng);
                                                }
                                              }) *
                                        1e3 / kInner,
                 "us"});
}

/// Caches for `b` sequences, each prefilled to `ctx` positions.
std::vector<nn::KvCache> prefilled(nn::CausalLm& model, const nn::DecodeWeightCache& wc, int64_t b,
                                   int64_t ctx, Rng& rng) {
  const nn::ModelConfig& cfg = model.config();
  std::vector<nn::KvCache> caches;
  for (int64_t i = 0; i < b; ++i) caches.emplace_back(cfg.n_layers, cfg.kv_dim(), false);
  for (int64_t pos = 0; pos < ctx; ++pos) {
    std::vector<nn::BatchedSeq> seqs(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      seqs[static_cast<size_t>(i)].cache = &caches[static_cast<size_t>(i)];
      seqs[static_cast<size_t>(i)].position = pos;
      seqs[static_cast<size_t>(i)].token = rng.uniform_int(0, cfg.vocab - 1);
      seqs[static_cast<size_t>(i)].want_logits = false;
    }
    nn::batched_decode_step(model, seqs, &wc);
  }
  return caches;
}

void replay_decode(Rng& rng, std::vector<Metric>& out) {
  parallel::set_num_threads(1);
  constexpr int kReps = 201;
  // serve_batch's model and weights: fp32, context 128.
  std::unique_ptr<nn::CausalLm> model = pretrain_base(128);
  model->set_eval();
  const nn::DecodeWeightCache wc(*model);
  for (int64_t b : {1, 8}) {
    for (const auto& [tag, ctx] : {std::pair<const char*, int64_t>{"ctx_short", 8},
                                   std::pair<const char*, int64_t>{"ctx_long", 120}}) {
      std::vector<nn::KvCache> caches = prefilled(*model, wc, b, ctx, rng);
      const std::string name = "nn.decode_step_us.b" + std::to_string(b) + "." + tag;
      const double ms = median_ms("nn/batched_decode_step", kReps, [&] {
        std::vector<nn::BatchedSeq> seqs(static_cast<size_t>(b));
        for (int64_t i = 0; i < b; ++i) {
          seqs[static_cast<size_t>(i)].cache = &caches[static_cast<size_t>(i)];
          seqs[static_cast<size_t>(i)].position = ctx;
          seqs[static_cast<size_t>(i)].token = 3;
        }
        nn::batched_decode_step(*model, seqs, &wc);
        for (nn::KvCache& c : caches) c.truncate(ctx);
      });
      out.push_back({name, ms * 1e3, "us"});
    }
  }

  // One speculative round (draft at the deepest early exit, k 4) at a
  // mid-context position, rewound after each call.
  {
    std::vector<nn::KvCache> caches = prefilled(*model, wc, 1, 64, rng);
    const double ms = median_ms("nn/speculative_decode_step", kReps, [&] {
      nn::speculative_decode_step(*model, caches[0], 64, 3, 4, 4, &wc);
      caches[0].truncate(64);
    });
    out.push_back({"nn.spec_round_us", ms * 1e3, "us"});
  }

  // serve_http's prefill: packed int4/int8 weights, 8 prompts of 56
  // tokens advanced prompt-only (no logits).
  std::unique_ptr<nn::CausalLm> http = pretrain_base(96);
  core::LucPolicy policy;
  for (int i = 0; i < 6; ++i) policy.layers.push_back({(i == 0 || i == 5) ? 8 : 4, 0.0f});
  core::apply_policy(*http, policy);
  http->set_eval();
  const nn::DecodeWeightCache packed(*http, true);
  constexpr int64_t kPrompt = 56, kSeqs = 8;
  std::vector<double> per_tok;
  for (int r = 0; r < 15; ++r) {
    const double ms = timed_ms("nn/prefill", [&] { prefilled(*http, packed, kSeqs, kPrompt, rng); });
    per_tok.push_back(ms * 1e3 / static_cast<double>(kPrompt * kSeqs));
  }
  out.push_back({"nn.prefill_tok_us", median(per_tok), "us/token"});
}

}  // namespace

std::vector<Metric> replay_layers(uint64_t seed, std::vector<std::string>& report) {
  Rng rng(seed * 0x94D049BB133111EBULL + 7);
  std::vector<Metric> out;
  replay_training(rng, out);
  replay_kernels(rng, out, report);
  replay_decode(rng, out);
  return out;
}

}  // namespace perfbench
