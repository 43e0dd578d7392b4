// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <forall-analytics|serve-hot|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures the workload's end-to-end metrics with no tracing.
// --trace 1 is the traced run: it replays all three workloads' layer
// calls with spans (its own workload gets half of --seconds, the other
// two a quarter each) and prints every per-layer metric. The last line
// of stdout is the JSON result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<forall-analytics|serve-hot|serve-churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setalg::perfbench;
  RunConfig config;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      trace = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::vector<std::string> workloads = {"forall-analytics", "serve-hot",
                                              "serve-churn"};
  if (std::find(workloads.begin(), workloads.end(), config.workload) == workloads.end()) {
    Usage("unknown --workload");
  }
  const std::size_t hw = HardwareThreads();
  // Two engine threads, not four: on a shared 4-vCPU host, interleaved
  // runs at four threads spread about twice as much as runs at two.
  config.threads = std::min<std::size_t>(2, hw);
  config.clients = std::min<std::size_t>(3, hw);
  std::printf("perfbench-provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"hardware_threads\": %zu, "
              "\"engine_threads\": %zu, \"connections\": %zu}\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, trace ? 1 : 0, hw, config.threads, config.clients);
  std::fflush(stdout);

  RunOutput out;
  if (!trace) {
    out = config.workload == "forall-analytics" ? RunForall(config)
                                                 : RunServe(config, config.workload ==
                                                                        "serve-churn");
  } else {
    Tracer forall, hot, churn;
    const auto share = [&](const char* name) {
      return config.seconds * (config.workload == name ? 0.5 : 0.25);
    };
    TraceForall(config, share("forall-analytics"), &forall, &out);
    TraceServeHot(config, share("serve-hot"), &hot, &out);
    TraceServeChurn(config, share("serve-churn"), &churn, &out);
    out.correct = out.failed == 0;
    if (!trace_out.empty()) {
      std::ofstream file(trace_out);
      forall.WriteJsonLines(file, "forall-analytics");
      hot.WriteJsonLines(file, "serve-hot");
      churn.WriteJsonLines(file, "serve-churn");
      if (!file) std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
    }
  }
  std::printf("%s\n", ResultJson(out.correct, out.attempted, out.failed, out.metrics).c_str());
  return 0;
}
