#include "common.hpp"

#include <deque>
#include <mutex>

#include "core/pipeline.hpp"

namespace perfbench {

std::unique_ptr<nn::CausalLm> pretrain_base(int64_t max_seq) {
  Rng rng(7);
  return core::pretrain_base_model(model_config(max_seq), base_domain(), kPretrainIters, kBatch,
                                   kSeq, rng);
}

std::unique_ptr<nn::CausalLm> clone_weights(nn::CausalLm& src) {
  Rng rng(0);
  auto out = std::make_unique<nn::CausalLm>(src.config(), rng);
  out->load_state_dict(src.state_dict());
  return out;
}

const char* span_name(const std::string& name) {
  static std::mutex mu;
  static std::deque<std::string> names;  // deque: elements never move
  const std::lock_guard<std::mutex> lk(mu);
  for (const std::string& n : names) {
    if (n == name) return n.c_str();
  }
  names.push_back(name);
  return names.back().c_str();
}

}  // namespace perfbench
