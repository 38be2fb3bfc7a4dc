// perfbench: the repo benchmark. One command runs one workload and prints,
// as its last stdout line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`.
//
//   perfbench --workload adapt|serve_batch|serve_http --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 is the traced run: it runs every workload once untraced and
// once with obs::Tracer on (short runs), replays each layer's public entry
// points at the workloads' shapes, prints every per-layer metric and the
// tracing overhead, and writes the Chrome trace to --trace-out when given.
// Nothing is written anywhere else.
#include <iostream>
#include <sstream>
#include <thread>

#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using WorkloadFn = WorkloadResult (*)(const RunOptions&);

const std::vector<std::pair<std::string, WorkloadFn>> kWorkloads = {
    {"adapt", run_adapt},
    {"serve_batch", run_serve_batch},
    {"serve_http", run_serve_http},
};

std::string json_number(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

void print_host() {
  std::cout << "host: isa detected " << simd::to_string(simd::detected_isa()) << ", active "
            << simd::to_string(simd::active_isa()) << ", nproc "
            << std::thread::hardware_concurrency() << ", build " << PERFBENCH_BUILD_TYPE
            << ", fast_math " << (ops::gemm::fast_math_enabled() ? "on" : "off")
            << ", compute threads: adapt 2, serving 1 (+1 engine decode thread)\n";
}

void print_ops(const std::vector<OpCount>& ops) {
  for (const OpCount& op : ops) {
    std::cout << "  ops " << op.kind << ": attempted " << op.attempted << ", failed " << op.failed
              << "\n";
  }
}

int print_result(bool correct, const std::vector<OpCount>& ops,
                 const std::vector<Metric>& metrics) {
  int64_t attempted = 0, failed = 0;
  for (const OpCount& op : ops) {
    attempted += op.attempted;
    failed += op.failed;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

void print_run(const std::string& name, const WorkloadResult& r) {
  for (const std::string& line : r.report) std::cout << line << "\n";
  print_ops(r.ops);
  for (const std::string& why : r.check_failures) {
    std::cout << "  CHECK FAILED (" << name << "): " << why << "\n";
  }
}

int run_untraced(const std::string& workload, WorkloadFn fn, const RunOptions& o) {
  const WorkloadResult r = fn(o);
  print_run(workload, r);
  for (const Metric& m : r.e2e) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  return print_result(r.correct, r.ops, r.e2e);
}

int run_traced(const RunOptions& o, const std::string& trace_out) {
  RunOptions shortrun = o;
  shortrun.seconds = std::max(1.0, o.seconds / 4.0);
  shortrun.setup_repeats = 1;
  bool correct = true;
  std::vector<OpCount> ops;
  std::vector<Metric> layer;
  obs::Tracer& tracer = obs::Tracer::global();
  for (const auto& [name, fn] : kWorkloads) {
    RunOptions plain = shortrun;
    plain.traced = false;
    const WorkloadResult base = fn(plain);
    RunOptions traced = shortrun;
    traced.traced = true;
    tracer.enable(0);
    const WorkloadResult r = fn(traced);
    tracer.disable();
    std::cout << "[traced " << name << "]\n";
    print_run(name, r);
    correct = correct && base.correct && r.correct;
    for (const OpCount& op : r.ops) ops.push_back({name + "." + op.kind, op.attempted, op.failed});
    layer.insert(layer.end(), r.layer.begin(), r.layer.end());
    for (const Metric& m : r.e2e) {
      const Metric* u = base.e2e_metric(m.name);
      if (u == nullptr || u->value == 0.0 || m.name == "peak_bytes") continue;
      std::cout << "  tracing overhead " << name << " " << m.name << ": traced "
                << json_number(m.value) << " - untraced " << json_number(u->value) << " = "
                << json_number(m.value - u->value) << " " << m.unit << "\n";
    }
    const Metric* t = r.e2e_metric("latency_ms");
    const Metric* u = base.e2e_metric("latency_ms");
    layer.push_back({"bench.trace_overhead_pct." + name,
                     100.0 * (t->value - u->value) / u->value, "%"});
  }
  std::vector<std::string> report;
  tracer.enable(0);
  const std::vector<Metric> replay = replay_layers(o.seed, report);
  tracer.disable();
  for (const std::string& line : report) std::cout << line << "\n";
  layer.insert(layer.end(), replay.begin(), replay.end());
  if (!trace_out.empty()) {
    tracer.write_chrome_trace(trace_out);
    std::cout << "wrote Chrome trace " << trace_out << " (" << tracer.events().size()
              << " events, " << tracer.dropped_events() << " dropped)\n";
  }
  for (const Metric& m : layer) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  return print_result(correct, ops, layer);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload")) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n";
    return 2;
  }
  try {
    RunOptions o;
    o.seed = args.count("--seed") ? std::stoull(args["--seed"]) : 1;
    o.seconds = args.count("--seconds") ? std::stod(args["--seconds"]) : 10.0;
    const bool trace = args.count("--trace") && args["--trace"] != "0";
    WorkloadFn fn = nullptr;
    for (const auto& [name, f] : kWorkloads) {
      if (name == args["--workload"]) fn = f;
    }
    if (fn == nullptr || !(o.seconds > 0.0)) {
      std::cerr << "perfbench: unknown workload or bad --seconds\n";
      return 2;
    }
    print_host();
    std::cout << "workload " << args["--workload"] << ", seed " << o.seed << ", seconds "
              << o.seconds << ", trace " << (trace ? 1 : 0) << "\n";
    return trace ? run_traced(o, args.count("--trace-out") ? args["--trace-out"] : "")
                 : run_untraced(args["--workload"], fn, o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
