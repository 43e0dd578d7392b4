// Measurement plumbing shared by every perfbench workload: percentiles
// with a tail-support check, the output digest check, the open-loop
// writer schedule, in-memory span tracing, and the one-line JSON result.
// Nothing here calls into the library.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace setalg::perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// A reported tail needs at least this many samples ranked above it;
/// otherwise the percentile is an extrapolation from a handful of points.
inline constexpr std::size_t kMinTailSamples = 10;

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples ranked strictly above the interpolation point.
  std::size_t beyond = 0;
  bool supported() const { return beyond >= kMinTailSamples; }
};

/// The q-quantile (0 <= q <= 1) by linear interpolation between closest
/// ranks (position q·(n−1) in the sorted samples). Empty input → value 0,
/// beyond 0.
Quantile Percentile(std::vector<double> samples, double q);

/// Percentile(samples, 0.5).value.
double Median(std::vector<double> samples);

/// Latency samples in log-spaced buckets 0.5% wide, from 0.1 µs to over
/// 100 s, in fixed memory: recording a sample allocates nothing, so the
/// benchmark's own footprint does not grow with the program's speed.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Record(double ms);
  void Merge(const LatencyHistogram& other);
  std::size_t count() const { return count_; }

  /// As Percentile(samples, q), each sample taken at its bucket's
  /// geometric midpoint (relative error at most 0.25%).
  Quantile Percentile(double q) const;

 private:
  static constexpr double kMinMs = 1e-4;
  static constexpr double kGrowth = 1.005;
  static constexpr std::size_t kBuckets = 4400;

  /// The midpoint of the bucket holding the sample of rank `rank`.
  double ValueAtRank(std::size_t rank) const;

  std::vector<std::uint32_t> buckets_;
  std::size_t count_ = 0;
};

/// Statement latency over a timed window cut into sub-windows. Each
/// figure is the median over sub-windows of that sub-window's figure, so
/// a burst of interference in one sub-window does not move it.
struct WindowSummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double per_s = 0.0;
  std::size_t windows = 0;
  /// Sub-windows whose p90 had fewer than kMinTailSamples samples beyond.
  std::size_t unsupported_tails = 0;
};

/// `windows[w]` holds the statements of sub-window w, which lasted
/// `seconds[w]`. Empty sub-windows are skipped.
WindowSummary SummarizeWindows(const std::vector<LatencyHistogram>& windows,
                               const std::vector<double>& seconds);

/// Sub-windows a timed window of `seconds` is cut into: one per second,
/// at least 1, at most 60.
std::size_t SubWindows(double seconds);

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Compares result digests against independently computed ones. Every
/// mismatch is printed (to stderr) and counted. Not thread-safe: checks
/// run on one thread after the timed window.
class DigestCheck {
 public:
  /// True when `actual == expected`; otherwise prints `what()` with
  /// both digests and counts a mismatch.
  bool Expect(std::uint64_t expected, std::uint64_t actual,
              const std::function<std::string()>& what);

  std::size_t checked() const { return checked_; }
  std::size_t mismatched() const { return mismatched_; }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatched_ = 0;
};

/// Parses the 16-hex-digit digest of a response header; false on junk.
bool ParseHexDigest(const std::string& hex, std::uint64_t* out);

// ---------------------------------------------------------------------------
// Open-loop writer.
// ---------------------------------------------------------------------------

/// The writer's view of time, so tests can replace it with a fake.
class WriterClock {
 public:
  virtual ~WriterClock() = default;
  virtual Clock::time_point Now() = 0;
  virtual void SleepUntil(Clock::time_point when) = 0;
};

class SteadyWriterClock final : public WriterClock {
 public:
  Clock::time_point Now() override { return Clock::now(); }
  void SleepUntil(Clock::time_point when) override;
};

struct WriterSamples {
  /// Completion minus scheduled time, per commit: a stalled commit delays
  /// every later one, and each pays its wait here.
  std::vector<double> latency_ms;
  /// Start minus scheduled time, per commit (how late the writer ran).
  std::vector<double> lateness_ms;
};

/// Commits on a fixed schedule: commit k is due at start + k·period and
/// is made as soon as it is due or the previous one returned, whichever
/// is later (no commit is skipped). Stops before the first commit due at
/// or after `end`.
WriterSamples RunOpenLoopWriter(WriterClock& clock, Clock::time_point start,
                                Clock::duration period, Clock::time_point end,
                                const std::function<void(std::size_t)>& commit);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into each
// layer, kept in memory per thread and written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  /// Layer call, e.g. "engine.run"; static storage.
  const char* name = "";
  /// Optional qualifier (a statement kind or outcome); static storage.
  const char* tag = "";
  /// Index of the enclosing span in the same log, or kNoParent.
  std::uint32_t parent = 0;
  /// Statement id shared by every span of one statement.
  std::uint64_t stmt = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One thread's spans. Not thread-safe: each thread owns its own log.
class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {}

  /// Allocates and touches room for `spans` spans up front, so recording
  /// them later neither reallocates nor page-faults inside a span.
  void Reserve(std::size_t spans);

  std::uint32_t Begin(const char* name, const char* tag, std::uint64_t stmt);
  void End(std::uint32_t index);
  /// Re-tags an open or closed span (e.g. with an outcome known at End).
  void SetTag(std::uint32_t index, const char* tag) { spans_[index].tag = tag; }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the duration of its
  /// direct children (indexed like spans()).
  std::vector<double> SelfMillis() const;

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* tag, std::uint64_t stmt)
      : log_(log), index_(log != nullptr ? log->Begin(name, tag, stmt) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Every span log of a traced run. Logs are created before the threads
/// that fill them start and are read after those threads are joined.
class Tracer {
 public:
  SpanLog* NewLog(const std::string& thread_name);
  const std::vector<std::unique_ptr<SpanLog>>& logs() const { return logs_; }

  /// Durations (ms) of the spans named `name` (and tagged `tag`, unless
  /// `tag` is null), over every log.
  std::vector<double> Durations(const char* name, const char* tag = nullptr) const;

  /// Writes every span as one JSON object per line, labelled `phase`.
  void WriteJsonLines(std::ostream& out, const std::string& phase) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats the final stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Non-finite values are printed
/// as 0 with a warning on stderr (JSON has no NaN).
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics);

/// Escapes `s` for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

/// The process's peak resident set (VmHWM), in MiB; 0 if unreadable.
double PeakRssMb();

/// std::thread::hardware_concurrency(), at least 1.
std::size_t HardwareThreads();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part a hypervisor gave to other guests ("steal"). Zero when
/// unreadable. Printed with each run: steal slows every figure.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Steal as a share of the CPU time between two readings (0 if none).
double StealShare(const CpuTicks& from, const CpuTicks& to);

}  // namespace setalg::perfbench

#endif  // PERFBENCH_COMMON_H_
