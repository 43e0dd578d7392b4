// The three perfbench workloads. Each runs in its own process (one
// invocation of the perfbench binary), so set-up time and peak memory
// belong to one workload. See perfbench/README.md for what each one
// measures and why.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace setalg::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Worker threads of forall-analytics' engine: min(2, hardware threads).
  std::size_t threads = 1;
  /// Client connections of the serving workloads: min(3, hardware threads).
  std::size_t clients = 1;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Set-up is repeated this many times per run and its median reported,
/// so setup_s is steady. The first set-up is the one that gets timed; the
/// others run after peak_rss_mb is read, so they do not inflate it.
inline constexpr int kSetupRepeats = 9;

/// Writer schedule of serve-churn: 50 commits/s.
inline constexpr std::chrono::milliseconds kCommitPeriod{20};

/// Untraced runs: every end-to-end metric of the workload.
RunOutput RunForall(const RunConfig& config);
RunOutput RunServe(const RunConfig& config, bool churn);

/// Traced phases. Each appends its per-layer metrics to `out->metrics`
/// and its checked/failed statement counts, recording spans in `tracer`.
void TraceForall(const RunConfig& config, double seconds, Tracer* tracer,
                 RunOutput* out);
void TraceServeHot(const RunConfig& config, double seconds, Tracer* tracer,
                   RunOutput* out);
void TraceServeChurn(const RunConfig& config, double seconds, Tracer* tracer,
                     RunOutput* out);

/// Appends `q`'s value as metric `name`; a tail without kMinTailSamples
/// samples beyond it is flagged on stderr.
void AddQuantile(std::vector<Metric>* metrics, const std::string& name,
                 const Quantile& q, const std::string& unit);

/// Appends stmt_ms_p50, stmt_ms_p90 and stmt_per_s from the sub-windows
/// (SummarizeWindows) and prints each sub-window's p50 and the CPU steal
/// share `steal`; sub-windows whose p90 lacks kMinTailSamples samples
/// beyond it are flagged on stderr.
void AddStatementMetrics(std::vector<Metric>* metrics,
                         const std::vector<LatencyHistogram>& windows,
                         const std::vector<double>& window_s, double steal);

}  // namespace setalg::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
