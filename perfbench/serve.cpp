// Workloads `serve_batch` and `serve_http`: the serving half of the device.
//
// serve_batch keeps an offline backlog in front of a ServeEngine at its
// default settings (fp32 weights, slot KV pool) so the run is bound by
// decode: short unshared prompts, greedy outputs to near the context limit,
// and a mix of final, fixed-early, voted and speculative exit policies.
//
// serve_http is an online endpoint: one generator thread sends seeded
// open-loop Poisson arrivals over at most nproc keep-alive loopback
// connections to an in-process net::HttpServer, which streams ndjson. The
// model is compressed with a fixed mixed int4/int8 policy and served from
// packed weights with paged KV, prefix reuse and chunked prefill; every
// prompt is one of a few long shared prefixes plus a short unique tail, so
// the run is bound by prefill and time to first token.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "core/luc.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "tensor/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const std::vector<float> kVoteWeights = {0.2f, 0.3f, 0.5f};

/// Rolls every request's status into the run report.
void count_statuses(const std::vector<serve::Completion>& comps, WorkloadResult& res) {
  std::map<std::string, int64_t> by_status;
  int64_t failed = 0;
  for (const serve::Completion& c : comps) {
    ++by_status[serve::to_string(c.status)];
    if (c.status != serve::RequestStatus::kOk) ++failed;
  }
  res.ops.push_back({"engine_request", static_cast<int64_t>(comps.size()), failed});
  for (const auto& [status, n] : by_status) {
    res.report.push_back("  engine requests " + status + ": " + std::to_string(n));
  }
}

double histogram_p50(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  return h != nullptr ? h->p50 : 0.0;
}

// ============================ serve_batch ===================================

constexpr int64_t kBatchCtx = 128;
constexpr int64_t kBatchPrompt = 4;
/// Requests are submitted in rounds of kRound (kRound / 4 per exit policy)
/// whenever no more than kLowWater are outstanding, so the queue never
/// empties while the run is measuring.
constexpr int64_t kRound = 16;
constexpr int64_t kLowWater = 32;
constexpr int kSessions = 4;

serve::EngineConfig batch_engine_config() {
  serve::EngineConfig e;  // defaults: fp32 weights, slot KV pool
  e.max_batch = 8;
  // One decode thread: with the default 2 workers this batch decodes slower
  // and its per-second throughput swings by 2x within a run (see README).
  e.threads = 1;
  return e;
}

/// One backlog request and what its stream delivered.
struct BatchReq {
  serve::Request req;
  StreamRule rule;
  std::vector<int64_t> tokens;
  std::vector<Clock::time_point> times;
  std::future<serve::Completion> fut;
};

/// Request `k` of the backlog: policy rotates final, fixed-early (exit 4),
/// voted, speculative.
serve::Request batch_request(int64_t id, int64_t k, Rng& rng, StreamRule& rule) {
  serve::Request r;
  r.id = id;
  for (int64_t i = 0; i < kBatchPrompt; ++i) r.prompt.push_back(rng.uniform_int(0, 31));
  r.max_new_tokens = kBatchCtx - kBatchPrompt;
  rule = StreamRule{};
  switch (k % 4) {
    case 0: rule.exit_index = 2; break;
    case 1:
      r.exit_policy = serve::ExitPolicy::kFixedEarly;
      r.exit_layer = 4;
      rule.exit_index = 1;
      break;
    case 2:
      r.exit_policy = serve::ExitPolicy::kVoted;
      rule.vote_weights = kVoteWeights;
      break;
    default:
      r.exit_policy = serve::ExitPolicy::kSpeculative;
      rule.exit_index = 2;
      break;
  }
  return r;
}

// ============================ serve_http ====================================

constexpr int64_t kHttpCtx = 96;
constexpr int64_t kPrefixLen = 48;
constexpr int64_t kNumPrefixes = 4;
constexpr int64_t kTailLen = 8;
constexpr int64_t kHttpNew = 8;
constexpr int64_t kConnections = 4;
/// Open-loop arrival rates (req/s) and the share of a round each gets. All
/// sit well below the closed-loop capacity this configuration reaches on a
/// 4-core AVX2 host (over 100 req/s), so nothing is shed. The open-loop
/// part of the run is kRounds rounds of the same rate mix; latency metrics
/// are medians over rounds.
const std::vector<double> kRates = {15.0, 30.0, 45.0};
const std::vector<double> kRateShare = {0.25, 0.25, 0.5};
constexpr int kRounds = 8;
/// The rounds run in kSessions sessions, each on a fresh engine and server
/// (their threads placed afresh) over the same model.
constexpr int kHttpSessions = 4;
/// A tenth of each round is a closed-loop burst that measures capacity.
constexpr double kCapacityShare = 0.1;
/// Limits behind rps_at_slo: p99 time to first token and p99 gap between
/// tokens an interactive edge client tolerates.
constexpr double kSloTtftP99Ms = 100.0;
constexpr double kSloTpotP99Ms = 25.0;

/// Fixed mixed per-layer policy of the shape LUC produces: int8 at the
/// sensitive first and last layers, int4 between.
core::LucPolicy http_policy() {
  core::LucPolicy p;
  for (int i = 0; i < 6; ++i) p.layers.push_back({(i == 0 || i == 5) ? 8 : 4, 0.0f});
  return p;
}

serve::EngineConfig http_engine_config() {
  serve::EngineConfig e;
  e.max_batch = 8;
  e.threads = 1;  // at most kConnections sequences: one decode thread
  e.kv_paged = true;
  e.kv_block_tokens = 16;
  e.prefill_chunk = 16;
  e.pack_compressed_weights = true;
  e.kv_byte_budget = 4 << 20;
  return e;
}

struct HttpReq {
  int64_t id = 0;
  std::vector<int64_t> prompt;
  std::string bytes;  ///< the full HTTP request
  Clock::time_point due;
  Clock::time_point sent;
  std::vector<Clock::time_point> token_times;
  std::vector<int64_t> tokens;
  int status = 0;
  bool answered = false;
  bool closed_loop = false;
  int phase = 0;
  int round = 0;
};

std::string http_request_bytes(int64_t id, const std::vector<int64_t>& prompt) {
  std::string body = "{\"id\": " + std::to_string(id) + ", \"prompt\": [";
  for (size_t i = 0; i < prompt.size(); ++i) {
    if (i > 0) body += ", ";
    body += std::to_string(prompt[i]);
  }
  body += "], \"max_new_tokens\": " + std::to_string(kHttpNew) + "}";
  return "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One keep-alive client connection driven by the generator's poll loop.
/// Deliberately independent of src/net: it decodes the chunked ndjson
/// stream itself.
struct ClientConn {
  ClientConn() = default;
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  int fd = -1;
  HttpReq* req = nullptr;  ///< in flight, or null when idle
  size_t out_off = 0;
  std::string in;
  enum class State { kHead, kChunkSize, kChunkData, kBody } state = State::kHead;
  int64_t want = 0;  ///< chunk or body bytes still expected

  bool connect_to(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes what the socket takes. False on a transport error.
  bool flush() {
    while (req != nullptr && out_off < req->bytes.size()) {
      const ssize_t n = ::send(fd, req->bytes.data() + out_off, req->bytes.size() - out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return true;
      return false;
    }
    return true;
  }

  void on_line(const std::string& line, Clock::time_point now) {
    // Token lines are {"id": N, "token": T}; the final completion object
    // carries "status".
    if (line.find("\"status\"") != std::string::npos) return;
    const size_t at = line.find("\"token\": ");
    if (at == std::string::npos) return;
    req->tokens.push_back(std::strtoll(line.c_str() + at + 9, nullptr, 10));
    req->token_times.push_back(now);
  }

  /// Consumes received bytes. Returns true when the response completed.
  bool parse(Clock::time_point now) {
    while (true) {
      if (state == State::kHead) {
        const size_t end = in.find("\r\n\r\n");
        if (end == std::string::npos) return false;
        const std::string head = in.substr(0, end);
        in.erase(0, end + 4);
        req->status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
        std::string lower = head;
        for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (lower.find("transfer-encoding: chunked") != std::string::npos) {
          state = State::kChunkSize;
        } else {
          const size_t cl = lower.find("content-length: ");
          want = cl == std::string::npos ? 0 : std::strtoll(lower.c_str() + cl + 16, nullptr, 10);
          state = State::kBody;
        }
      } else if (state == State::kBody) {
        if (static_cast<int64_t>(in.size()) < want) return false;
        in.erase(0, static_cast<size_t>(want));
        return finish();
      } else if (state == State::kChunkSize) {
        const size_t end = in.find("\r\n");
        if (end == std::string::npos) return false;
        want = std::strtoll(in.c_str(), nullptr, 16);
        in.erase(0, end + 2);
        state = State::kChunkData;
      } else {  // kChunkData: payload + CRLF
        if (static_cast<int64_t>(in.size()) < want + 2) return false;
        if (want == 0) {
          in.erase(0, 2);
          return finish();
        }
        on_line(in.substr(0, static_cast<size_t>(want)), now);
        in.erase(0, static_cast<size_t>(want) + 2);
        state = State::kChunkSize;
      }
    }
  }

  bool finish() {
    req->answered = true;
    req = nullptr;
    out_off = 0;
    state = State::kHead;
    return true;
  }
};

/// Drives requests through `conns`: reqs[first, last) go out at their due
/// time on the first idle connection; with `next_closed`, every idle
/// connection then takes a new closed-loop request until `stop`. Returns
/// false on a transport error.
bool drive(const std::vector<ClientConn*>& conns, std::deque<HttpReq>& reqs, size_t first,
           size_t last,
           Clock::time_point stop, const std::function<HttpReq*()>& next_closed) {
  size_t next = first;
  std::vector<pollfd> pfds(conns.size());
  char buf[16384];
  while (true) {
    const auto now = Clock::now();
    bool busy = false;
    for (ClientConn* cp : conns) {
      ClientConn& c = *cp;
      if (c.req == nullptr) {
        HttpReq* r = nullptr;
        if (next < last && reqs[next].due <= now) {
          r = &reqs[next++];
        } else if (next_closed && now < stop) {
          r = next_closed();
        }
        if (r != nullptr) {
          r->sent = now;
          c.req = r;
          if (!c.flush()) return false;
        }
      }
      busy = busy || c.req != nullptr;
    }
    if (!busy && next >= last && (!next_closed || now >= stop)) return true;

    double wait_ms = 50.0;
    if (next < last) wait_ms = std::max(0.0, ms_between(now, reqs[next].due));
    for (size_t i = 0; i < conns.size(); ++i) {
      const ClientConn& c = *conns[i];
      pfds[i].fd = c.fd;
      pfds[i].events =
          c.req != nullptr
              ? static_cast<short>(POLLIN | (c.out_off < c.req->bytes.size() ? POLLOUT : 0))
              : 0;
      pfds[i].revents = 0;
    }
    // Sub-millisecond waits spin through poll(0) so sends stay on time.
    const int timeout = wait_ms < 1.0 ? 0 : static_cast<int>(wait_ms);
    if (::poll(pfds.data(), pfds.size(), timeout) < 0 && errno != EINTR) return false;
    const auto t = Clock::now();
    for (size_t i = 0; i < conns.size(); ++i) {
      ClientConn& c = *conns[i];
      if (c.req == nullptr) continue;
      if (pfds[i].revents & POLLOUT) {
        if (!c.flush()) return false;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n == 0) return false;
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
          return false;
        }
        c.in.append(buf, static_cast<size_t>(n));
        c.parse(t);
      }
    }
  }
}

/// A set-up serving stack: model, engine, server and the server's thread.
struct HttpStack {
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<net::HttpServer> server;
  std::thread thread;

  ~HttpStack() { stop(); }
  void stop() {
    if (server) {
      server->begin_drain();
      if (thread.joinable()) thread.join();
      server.reset();
    }
    if (engine) engine->shutdown();
  }
};

}  // namespace

WorkloadResult run_serve_batch(const RunOptions& o) {
  WorkloadResult res;
  parallel::set_num_threads(1);
  const serve::EngineConfig ecfg = batch_engine_config();

  // Set-up: model, engine, warm-up batch (repeated; median is setup_s).
  std::vector<double> setup_ms;
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
  for (int i = 0; i < o.setup_repeats; ++i) {
    engine.reset();
    const auto t0 = Clock::now();
    model = pretrain_base(kBatchCtx);
    engine = std::make_unique<serve::ServeEngine>(*model, ecfg);
    engine->set_exit_weights(kVoteWeights, {0.0f, 0.0f, 0.0f});
    Rng warm_rng(99);
    std::vector<std::future<serve::Completion>> warm;
    for (int64_t k = 0; k < 4; ++k) {
      StreamRule rule;
      serve::Request r = batch_request(1000000 + k, k, warm_rng, rule);
      r.max_new_tokens = 8;
      warm.push_back(engine->submit(std::move(r)));
    }
    for (auto& f : warm) f.get();
    setup_ms.push_back(ms_since(t0));
  }

  // The measured part is kSessions sessions, each a fresh engine over the
  // same model fed from its own seeded request stream. A session decodes on
  // one thread for its whole length, so on a shared host it can sit on a
  // slowed core throughout; each session's engine thread is placed afresh,
  // and the metrics are medians over sessions.
  std::deque<BatchReq> reqs;
  std::vector<serve::Completion> comps;
  std::vector<double> sess_tok_s, sess_p50, sess_p90, sess_tick, tpot;
  double occupancy_sum = 0.0;
  int64_t kv_peak = 0, spec_accepted = 0, spec_rounds = 0;
  const double sess_s = o.seconds / kSessions;
  for (int s = 0; s < kSessions; ++s) {
    if (s > 0) {
      engine = std::make_unique<serve::ServeEngine>(*model, ecfg);
      engine->set_exit_weights(kVoteWeights, {0.0f, 0.0f, 0.0f});
    }
    Rng rng(o.seed * 0x2545F4914F6CDD1DULL + 3 + 7919 * static_cast<uint64_t>(s));
    const size_t first = reqs.size();
    std::atomic<int64_t> done{0};
    int64_t k = 0;
    const auto t0 = Clock::now();
    const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sess_s));
    while (Clock::now() < t_end) {
      if (static_cast<int64_t>(reqs.size() - first) - done.load() > kLowWater) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      for (int64_t j = 0; j < kRound; ++j, ++k) {
        reqs.emplace_back();
        BatchReq& br = reqs.back();
        br.req = batch_request(1000000 * s + k + 1, k, rng, br.rule);
        br.tokens.reserve(static_cast<size_t>(br.req.max_new_tokens));
        br.times.reserve(static_cast<size_t>(br.req.max_new_tokens));
        serve::StreamSink sink;
        BatchReq* p = &br;
        sink.on_token = [p](int64_t, int64_t tok) {
          p->times.push_back(Clock::now());
          p->tokens.push_back(tok);
        };
        sink.on_done = [&done](const serve::Completion&) { done.fetch_add(1); };
        br.fut = engine->submit(br.req, std::move(sink));
      }
    }
    for (size_t i = first; i < reqs.size(); ++i) comps.push_back(reqs[i].fut.get());
    engine->shutdown();

    // Tokens streamed and inter-token gaps up to t_end (the drain after it
    // runs with a shrinking batch and is not measured).
    double tokens = 0.0;
    std::vector<double> gaps;
    for (size_t i = first; i < reqs.size(); ++i) {
      const BatchReq& br = reqs[i];
      for (size_t t = 0; t < br.times.size() && br.times[t] <= t_end; ++t) {
        tokens += 1.0;
        if (t > 0) gaps.push_back(ms_between(br.times[t - 1], br.times[t]));
      }
    }
    sess_tok_s.push_back(tokens / sess_s);
    sess_p50.push_back(percentile(gaps, 0.5));
    sess_p90.push_back(percentile(gaps, 0.9));
    tpot.insert(tpot.end(), gaps.begin(), gaps.end());
    const serve::EngineMetrics m = engine->metrics();
    const obs::MetricsSnapshot snap = engine->registry().snapshot();
    kv_peak = std::max(kv_peak, m.kv_high_water_bytes);
    occupancy_sum += m.mean_batch_occupancy();
    sess_tick.push_back(histogram_p50(snap, "serve/tick_ms"));
    spec_accepted += snap.counter("spec/accepted_tokens");
    if (const obs::HistogramSnapshot* h = snap.histogram("spec/accepted_per_round")) {
      spec_rounds += h->count;
    }
  }
  const double occupancy = occupancy_sum / kSessions;
  const double spec_per_round =
      spec_rounds > 0 ? static_cast<double>(spec_accepted) / static_cast<double>(spec_rounds)
                      : 0.0;

  // Independent checks: every stream against the full-sequence reference.
  int64_t mismatched = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const BatchReq& br = reqs[i];
    if (comps[i].status != serve::RequestStatus::kOk) continue;  // counted as failed
    if (br.tokens != comps[i].tokens ||
        static_cast<int64_t>(br.tokens.size()) != br.req.max_new_tokens) {
      res.fail("serve_batch: request " + std::to_string(br.req.id) +
               " streamed tokens differ from its completion");
      continue;
    }
    const int64_t at = check_greedy_stream(*model, br.req.prompt, br.tokens, br.rule, kTieGapFp32);
    if (at >= 0) {
      if (++mismatched <= 3) {
        res.fail("serve_batch: request " + std::to_string(br.req.id) + " (" +
                 serve::to_string(br.req.exit_policy) + ") differs from the reference at token " +
                 std::to_string(at));
      }
    }
  }
  for (size_t p = 0; p < 4 && p < reqs.size(); ++p) {
    if (comps[p].status == serve::RequestStatus::kOk &&
        !self_test_stream_check(*model, reqs[p].req.prompt, reqs[p].tokens, reqs[p].rule,
                                kTieGapFp32)) {
      res.fail("serve_batch: self-test: a flipped token in a " +
               std::string(serve::to_string(reqs[p].req.exit_policy)) + " stream was accepted");
    }
  }

  res.e2e = {
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"latency_ms", median(sess_p50), "ms"},
      {"throughput_per_s", median(sess_tok_s), "1/s"},
      {"peak_bytes", static_cast<double>(kv_peak), "bytes"},
  };
  count_statuses(comps, res);
  res.report.insert(res.report.begin(),
                    "serve_batch: " + std::to_string(reqs.size()) + " requests in " +
                        std::to_string(kSessions) + " sessions (prompt " +
                        std::to_string(kBatchPrompt) + ", " +
                        std::to_string(kBatchCtx - kBatchPrompt) +
                        " new tokens, policies final/fixed-early 4/voted/speculative), max_batch " +
                        std::to_string(ecfg.max_batch) + ", " + std::to_string(ecfg.threads) +
                        " decode thread(s)");
  res.report.push_back(report_line("batch_tok_s (median session)", median(sess_tok_s),
                                   "tokens/s"));
  res.report.push_back(report_line("tpot_ms_p50 (median session)", median(sess_p50), "ms"));
  res.report.push_back(report_line("tpot_ms_p90 (median session)", median(sess_p90), "ms"));
  res.report.push_back(report_line("tpot_ms_p99 (all gaps, n=" + std::to_string(tpot.size()) +
                                       ")",
                                   percentile(tpot, 0.99), "ms"));
  res.report.push_back(report_line("kv_peak_bytes", static_cast<double>(kv_peak), "bytes"));
  res.report.push_back(report_line("mean batch occupancy", occupancy, "sequences"));
  res.report.push_back(report_line("speculative drafts accepted per round", spec_per_round,
                                   "tokens"));
  if (o.traced) {
    res.layer = {
        {"serve.tick_ms.serve_batch", median(sess_tick), "ms"},
        {"serve.batch_occupancy", occupancy, "sequences/tick"},
        {"serve.spec_accepted_per_round", spec_per_round, "tokens"},
    };
  }
  return res;
}

WorkloadResult run_serve_http(const RunOptions& o) {
  WorkloadResult res;
  parallel::set_num_threads(1);

  // Set-up: model, fixed compression, engine, server, warm-up requests.
  std::vector<double> setup_ms;
  std::unique_ptr<HttpStack> stack;
  std::deque<ClientConn> conns;
  std::vector<ClientConn*> all;  // every connection: open-loop arrivals
  std::vector<ClientConn*> one;  // the first: closed-loop capacity bursts
  Rng rng(o.seed * 0xD1342543DE82EF95ULL + 5);
  std::vector<std::vector<int64_t>> prefixes(kNumPrefixes);
  for (auto& p : prefixes) {
    for (int64_t i = 0; i < kPrefixLen; ++i) p.push_back(rng.uniform_int(0, 31));
  }
  int64_t next_id = 1;
  auto new_request = [&](int phase) -> HttpReq {
    HttpReq r;
    r.id = next_id++;
    r.phase = phase;
    r.prompt = prefixes[static_cast<size_t>(rng.uniform_int(0, kNumPrefixes - 1))];
    for (int64_t i = 0; i < kTailLen; ++i) r.prompt.push_back(rng.uniform_int(0, 31));
    r.bytes = http_request_bytes(r.id, r.prompt);
    return r;
  };
  // Brings up engine, server and connections over the stack's model (after
  // building and compressing a fresh model when `pretrain`), then warms up
  // with one request per prefix, which fills the prefix cache.
  auto start = [&](bool pretrain) -> bool {
    conns.clear();
    if (pretrain) {
      stack.reset();
      stack = std::make_unique<HttpStack>();
      stack->model = pretrain_base(kHttpCtx);
      core::apply_policy(*stack->model, http_policy());
    } else {
      stack->stop();
      stack->engine.reset();
    }
    stack->engine = std::make_unique<serve::ServeEngine>(*stack->model, http_engine_config());
    net::ServerConfig scfg;
    scfg.max_connections = kConnections;
    stack->server = std::make_unique<net::HttpServer>(*stack->engine, scfg);
    stack->thread = std::thread([s = stack->server.get()] { s->run(); });
    for (int64_t c = 0; c < kConnections; ++c) conns.emplace_back();
    all.clear();
    for (ClientConn& c : conns) {
      if (!c.connect_to(stack->server->port())) {
        res.fail("serve_http: cannot connect to the in-process server");
        return false;
      }
      all.push_back(&c);
    }
    one = {all.front()};
    Rng warm_rng(77);
    std::deque<HttpReq> warm;
    for (int64_t p = 0; p < kNumPrefixes; ++p) {
      HttpReq r;
      r.id = 1000000 + p;
      r.prompt = prefixes[static_cast<size_t>(p)];
      for (int64_t t = 0; t < kTailLen; ++t) r.prompt.push_back(warm_rng.uniform_int(0, 31));
      r.bytes = http_request_bytes(r.id, r.prompt);
      r.due = Clock::now();
      warm.push_back(std::move(r));
    }
    if (!drive(all, warm, 0, warm.size(), Clock::now(), nullptr)) {
      res.fail("serve_http: transport error during warm-up");
      return false;
    }
    return true;
  };
  for (int i = 0; i < o.setup_repeats; ++i) {
    const auto t0 = Clock::now();
    if (!start(true)) return res;
    setup_ms.push_back(ms_since(t0));
  }

  // Engine figures, summed or collected over the sessions.
  int64_t kv_peak = 0, completed = 0, rejected = 0, shed = 0, cancelled = 0, eng_failed = 0;
  int64_t prefix_hit_tokens = 0, evicted = 0;
  std::vector<double> sess_tick, sess_wait;
  auto end_session = [&] {
    conns.clear();
    stack->stop();
    const serve::EngineMetrics m = stack->engine->metrics();
    const obs::MetricsSnapshot snap = stack->engine->registry().snapshot();
    kv_peak = std::max(kv_peak, m.kv_high_water_bytes);
    completed += m.completed;
    rejected += m.rejected;
    shed += m.shed;
    cancelled += m.cancelled;
    eng_failed += m.failed;
    prefix_hit_tokens += snap.counter("kv/prefix_hit_tokens");
    evicted += snap.counter("kv/evicted_blocks");
    sess_tick.push_back(histogram_p50(snap, "serve/tick_ms"));
    sess_wait.push_back(histogram_p50(snap, "serve/queue_wait_ms"));
  };

  // Each round: the open-loop rate mix (seeded Poisson arrivals, offsets
  // drawn up front so the inputs depend on --seed only), then a short
  // closed-loop burst with every connection busy back to back, whose
  // completion rate measures capacity. Closed-loop requests come from their
  // own stream, so how many a burst takes never shifts the open-loop inputs.
  std::deque<HttpReq> reqs;
  std::vector<std::vector<std::pair<double, HttpReq>>> schedule(kRounds);
  const double round_s = (1.0 - kCapacityShare) * o.seconds / kRounds;
  const double burst_s = kCapacityShare * o.seconds / kRounds;
  for (int rd = 0; rd < kRounds; ++rd) {
    double at_s = 0.0;
    for (size_t ph = 0; ph < kRates.size(); ++ph) {
      const double end_s = at_s + kRateShare[ph] * round_s;
      double t = at_s;
      while (true) {
        const double u = static_cast<double>(rng.uniform(0.0f, 1.0f));
        t += -std::log1p(-std::min(u, 0.999999)) / kRates[ph];
        if (t >= end_s) break;
        HttpReq r = new_request(static_cast<int>(ph));
        r.round = rd;
        schedule[static_cast<size_t>(rd)].emplace_back(t, std::move(r));
      }
      at_s = end_s;
    }
  }
  Rng closed_rng(o.seed * 0x9E3779B97F4A7C15ULL + 13);
  std::function<HttpReq*()> closed = [&]() -> HttpReq* {
    HttpReq r;
    r.id = next_id++;
    r.prompt = prefixes[static_cast<size_t>(closed_rng.uniform_int(0, kNumPrefixes - 1))];
    for (int64_t i = 0; i < kTailLen; ++i) r.prompt.push_back(closed_rng.uniform_int(0, 31));
    r.bytes = http_request_bytes(r.id, r.prompt);
    r.closed_loop = true;
    r.due = Clock::now();
    reqs.push_back(std::move(r));
    return &reqs.back();
  };
  bool transport_ok = true;
  size_t n_open = 0;
  std::vector<double> burst_rps;
  for (int rd = 0; rd < kRounds && transport_ok; ++rd) {
    if (rd > 0 && rd % (kRounds / kHttpSessions) == 0) {
      // A new session: fresh engine and server threads over the same model.
      end_session();
      if (!start(false)) return res;
    }
    const auto round_t0 = Clock::now() + std::chrono::milliseconds(2);
    const size_t first = reqs.size();
    for (auto& [offset, r] : schedule[static_cast<size_t>(rd)]) {
      r.due = round_t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offset));
      reqs.push_back(std::move(r));
    }
    n_open += reqs.size() - first;
    transport_ok = drive(all, reqs, first, reqs.size(), round_t0, nullptr);
    const auto burst_t0 = Clock::now();
    const size_t before = reqs.size();
    if (transport_ok) {
      transport_ok = drive(one, reqs, before, before,
                           burst_t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(burst_s)),
                           closed);
    }
    burst_rps.push_back(static_cast<double>(reqs.size() - before) / (ms_since(burst_t0) / 1e3));
  }
  if (!transport_ok) res.fail("serve_http: transport error on a keep-alive connection");

  end_session();

  // Per-phase latencies, measured from each request's due time.
  std::vector<std::vector<double>> ttft(kRates.size()), tpot(kRates.size()), late(kRates.size());
  std::vector<std::vector<double>> round_ttft(kRounds);
  std::map<int, int64_t> by_status;
  int64_t failed = 0, closed_ok = 0, prompt_tokens = 0;
  int64_t mismatched = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const HttpReq& r = reqs[i];
    ++by_status[r.answered ? r.status : 0];
    prompt_tokens += static_cast<int64_t>(r.prompt.size());
    const bool ok = r.answered && r.status == 200 &&
                    static_cast<int64_t>(r.tokens.size()) == kHttpNew;
    if (!ok) {
      ++failed;
      continue;
    }
    if (r.closed_loop) {
      ++closed_ok;
    } else {
      const auto ph = static_cast<size_t>(r.phase);
      ttft[ph].push_back(ms_between(r.due, r.token_times.front()));
      round_ttft[static_cast<size_t>(r.round)].push_back(ttft[ph].back());
      late[ph].push_back(ms_between(r.due, r.sent));
      for (size_t t = 1; t < r.token_times.size(); ++t) {
        tpot[ph].push_back(ms_between(r.token_times[t - 1], r.token_times[t]));
      }
    }
    const int64_t bad = check_greedy_stream(*stack->model, r.prompt, r.tokens,
                                            StreamRule{2, {}}, kTieGapPacked);
    if (bad >= 0 && ++mismatched <= 3) {
      res.fail("serve_http: request " + std::to_string(r.id) +
               " differs from the fake-quant reference at token " + std::to_string(bad));
    }
  }
  if (!reqs.empty() && reqs.front().answered &&
      !self_test_stream_check(*stack->model, reqs.front().prompt, reqs.front().tokens,
                              StreamRule{2, {}}, kTieGapPacked)) {
    res.fail("serve_http: self-test: a flipped token in a streamed response was accepted");
  }
  res.ops.push_back({"http_stream", static_cast<int64_t>(reqs.size()), failed});
  for (const auto& [status, n] : by_status) {
    res.report.push_back("  http streams status " +
                         (status == 0 ? std::string("transport-error") : std::to_string(status)) +
                         ": " + std::to_string(n));
  }

  // rps_at_slo: highest fixed rate meeting both p99 limits with no growing
  // backlog (the generator's lateness in the phase's last quarter stays
  // within a millisecond of its first quarter).
  double rps_at_slo = 0.0;
  for (size_t ph = 0; ph < kRates.size(); ++ph) {
    const std::vector<double>& l = late[ph];
    const size_t q = l.size() / 4;
    std::vector<double> first(l.begin(), l.begin() + static_cast<std::ptrdiff_t>(q));
    std::vector<double> last(l.end() - static_cast<std::ptrdiff_t>(q), l.end());
    const bool steady = q == 0 || mean(last) <= mean(first) + 1.0;
    const bool meets = percentile(ttft[ph], 0.99) <= kSloTtftP99Ms &&
                       percentile(tpot[ph], 0.99) <= kSloTpotP99Ms;
    if (steady && meets) rps_at_slo = kRates[ph];
    std::ostringstream s;
    s.precision(5);
    s << "  rate " << kRates[ph] << " req/s: " << ttft[ph].size() << " ok, ttft p50 "
      << percentile(ttft[ph], 0.5) << " ms, ttft p99 " << percentile(ttft[ph], 0.99)
      << " ms, tpot p50 " << percentile(tpot[ph], 0.5) << " ms, tpot p99 "
      << percentile(tpot[ph], 0.99) << " ms, generator late p99 " << percentile(l, 0.99)
      << " ms" << (steady ? "" : " (backlog growing)");
    res.report.push_back(s.str());
  }
  // End-to-end latency: TTFT over each round's fixed rate mix, median over
  // rounds.
  std::vector<double> all_ttft, all_tpot, rd_p50, rd_p90;
  for (size_t ph = 0; ph < kRates.size(); ++ph) {
    all_ttft.insert(all_ttft.end(), ttft[ph].begin(), ttft[ph].end());
    all_tpot.insert(all_tpot.end(), tpot[ph].begin(), tpot[ph].end());
  }
  for (const std::vector<double>& v : round_ttft) {
    rd_p50.push_back(percentile(v, 0.5));
    rd_p90.push_back(percentile(v, 0.9));
  }
  const double capacity = median(burst_rps);
  res.e2e = {
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"latency_ms", median(rd_p50), "ms"},
      {"throughput_per_s", capacity, "1/s"},
      {"peak_bytes", static_cast<double>(kv_peak), "bytes"},
  };
  std::vector<double> all_late;
  for (const auto& l : late) all_late.insert(all_late.end(), l.begin(), l.end());
  const double hit_rate = prompt_tokens > 0
                              ? static_cast<double>(prefix_hit_tokens) /
                                    static_cast<double>(prompt_tokens)
                              : 0.0;
  res.report.insert(
      res.report.begin(),
      "serve_http: " + std::to_string(n_open) + " open-loop + " + std::to_string(closed_ok) +
          " closed-loop requests over " + std::to_string(kConnections) +
          " keep-alive connections (prefix " + std::to_string(kPrefixLen) + " of " +
          std::to_string(kNumPrefixes) + " shared + tail " + std::to_string(kTailLen) + ", " +
          std::to_string(kHttpNew) + " new tokens), packed int4/int8, paged KV");
  res.report.push_back(report_line("ttft_ms_p50 (median over rounds)", median(rd_p50), "ms"));
  res.report.push_back(report_line("ttft_ms_p90 (median over rounds)", median(rd_p90), "ms"));
  res.report.push_back(report_line("ttft_ms_p50 (all rates)", percentile(all_ttft, 0.5), "ms"));
  res.report.push_back(report_line("ttft_ms_p99 (all rates, n=" + std::to_string(all_ttft.size()) +
                                    ")",
                                percentile(all_ttft, 0.99), "ms"));
  res.report.push_back(report_line("tpot_ms_p50 (all rates)", percentile(all_tpot, 0.5), "ms"));
  res.report.push_back(report_line("tpot_ms_p99 (all rates)", percentile(all_tpot, 0.99), "ms"));
  res.report.push_back(report_line("rps_at_slo (ttft p99 <= " + std::to_string(kSloTtftP99Ms) +
                                    " ms, tpot p99 <= " + std::to_string(kSloTpotP99Ms) + " ms)",
                                rps_at_slo, "req/s"));
  res.report.push_back(report_line("closed-loop capacity (median burst)", capacity, "req/s"));
  res.report.push_back(report_line("kv_peak_bytes", static_cast<double>(kv_peak), "bytes"));
  res.report.push_back(report_line("kv prefix hit rate (of prompt tokens)", hit_rate, ""));
  res.report.push_back("  engine requests ok: " + std::to_string(completed) + ", rejected " +
                       std::to_string(rejected) + ", shed " + std::to_string(shed) +
                       ", cancelled " + std::to_string(cancelled) + ", failed " +
                       std::to_string(eng_failed));

  if (o.traced) {
    // Parser cost over the workload's own request bytes.
    std::vector<double> parse_us;
    for (const HttpReq& r : reqs) {
      const auto p0 = Clock::now();
      net::HttpRequestParser parser;
      parser.feed(r.bytes.data(), r.bytes.size());
      const serve::Request parsed = serve::parse_request_json(parser.body());
      parse_us.push_back(ms_since(p0) * 1e3);
      if (!parser.complete() || parsed.prompt != r.prompt) {
        res.fail("serve_http: parser replay disagrees with the request bytes");
        break;
      }
    }
    res.layer = {
        {"serve.tick_ms.serve_http", median(sess_tick), "ms"},
        {"serve.queue_wait_ms", median(sess_wait), "ms"},
        {"serve.kv_prefix_hit_rate", hit_rate, "ratio"},
        {"serve.kv_evicted_blocks", static_cast<double>(evicted), "blocks"},
        {"net.parse_us", median(parse_us), "us/request"},
        {"bench.loadgen_late_ms", percentile(all_late, 0.99), "ms"},
    };
  }
  return res;
}

}  // namespace perfbench
