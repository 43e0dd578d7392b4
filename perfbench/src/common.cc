#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace setalg::perfbench {

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = samples.size() - 1 - lo;
  return out;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5).value;
}

void LatencyHistogram::Record(double ms) {
  std::size_t bucket = 0;
  if (ms > kMinMs) {
    const double index = 1 + std::floor(std::log(ms / kMinMs) / std::log(kGrowth));
    bucket = static_cast<std::size_t>(std::min(index, static_cast<double>(kBuckets - 1)));
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::ValueAtRank(std::size_t rank) const {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (rank < seen) {
      return i == 0 ? kMinMs / 2
                    : kMinMs * std::pow(kGrowth, static_cast<double>(i) - 0.5);
    }
  }
  return kMinMs * std::pow(kGrowth, static_cast<double>(kBuckets) - 1.5);
}

Quantile LatencyHistogram::Percentile(double q) const {
  Quantile out;
  out.samples = count_;
  if (count_ == 0) return out;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double low = ValueAtRank(lo);
  out.value = low + (ValueAtRank(hi) - low) * (pos - static_cast<double>(lo));
  out.beyond = count_ - 1 - lo;
  return out;
}

WindowSummary SummarizeWindows(const std::vector<LatencyHistogram>& windows,
                               const std::vector<double>& seconds) {
  std::vector<double> p50, p90, per_s;
  WindowSummary out;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].count() == 0 || !(seconds[w] > 0)) continue;
    p50.push_back(windows[w].Percentile(0.5).value);
    const Quantile tail = windows[w].Percentile(0.9);
    p90.push_back(tail.value);
    if (!tail.supported()) ++out.unsupported_tails;
    per_s.push_back(static_cast<double>(windows[w].count()) / seconds[w]);
  }
  out.windows = p50.size();
  out.p50_ms = Median(std::move(p50));
  out.p90_ms = Median(std::move(p90));
  out.per_s = Median(std::move(per_s));
  return out;
}

std::size_t SubWindows(double seconds) {
  return static_cast<std::size_t>(std::clamp(std::floor(seconds), 1.0, 60.0));
}

bool DigestCheck::Expect(std::uint64_t expected, std::uint64_t actual,
                         const std::function<std::string()>& what) {
  ++checked_;
  if (expected == actual) return true;
  ++mismatched_;
  std::fprintf(stderr, "perfbench: MISMATCH %s: expected digest %016llx, got %016llx\n",
               what().c_str(), static_cast<unsigned long long>(expected),
               static_cast<unsigned long long>(actual));
  return false;
}

bool ParseHexDigest(const std::string& hex, std::uint64_t* out) {
  if (hex.size() != 16) return false;
  const auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), *out, 16);
  return ec == std::errc() && end == hex.data() + hex.size();
}

void SteadyWriterClock::SleepUntil(Clock::time_point when) {
  std::this_thread::sleep_until(when);
}

WriterSamples RunOpenLoopWriter(WriterClock& clock, Clock::time_point start,
                                Clock::duration period, Clock::time_point end,
                                const std::function<void(std::size_t)>& commit) {
  WriterSamples out;
  for (std::size_t k = 0;; ++k) {
    const Clock::time_point due = start + period * static_cast<Clock::rep>(k);
    if (due >= end) break;
    if (clock.Now() < due) clock.SleepUntil(due);
    const Clock::time_point began = clock.Now();
    commit(k);
    const Clock::time_point done = clock.Now();
    out.lateness_ms.push_back(std::max(0.0, MillisBetween(due, began)));
    out.latency_ms.push_back(MillisBetween(due, done));
  }
  return out;
}

void SpanLog::Reserve(std::size_t spans) {
  spans_.resize(spans_.size() + spans);
  spans_.resize(spans_.size() - spans);
  open_.reserve(16);
}

std::uint32_t SpanLog::Begin(const char* name, const char* tag, std::uint64_t stmt) {
  Span span;
  span.name = name;
  span.tag = tag;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.stmt = stmt;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanLog::End(std::uint32_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now().time_since_epoch())
                             .count();
  // Spans nest strictly (RAII), so the one ending is the innermost open.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanLog::SelfMillis() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].millis();
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) self[span.parent] -= span.millis();
  }
  return self;
}

SpanLog* Tracer::NewLog(const std::string& thread_name) {
  logs_.push_back(std::make_unique<SpanLog>(thread_name));
  return logs_.back().get();
}

std::vector<double> Tracer::Durations(const char* name, const char* tag) const {
  std::vector<double> out;
  const std::string want(name);
  for (const auto& log : logs_) {
    for (const Span& span : log->spans()) {
      if (want != span.name) continue;
      if (tag != nullptr && std::string(tag) != span.tag) continue;
      out.push_back(span.millis());
    }
  }
  return out;
}

void Tracer::WriteJsonLines(std::ostream& out, const std::string& phase) const {
  for (const auto& log : logs_) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"phase\":\"" << JsonEscape(phase) << "\",\"thread\":\""
          << JsonEscape(log->thread()) << "\",\"id\":" << i
          << ",\"parent\":"
          << (s.parent == kNoParent ? std::string("null") : std::to_string(s.parent))
          << ",\"stmt\":" << s.stmt << ",\"name\":\"" << JsonEscape(s.name)
          << "\",\"tag\":\"" << JsonEscape(s.tag) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = m.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: warning: metric %s is not finite; printing 0\n",
                   m.name.c_str());
      value = 0.0;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out << (i == 0 ? "" : ", ") << "\"" << JsonEscape(m.name) << "\": {\"value\": "
        << std::string(buf, res.ptr) << ", \"unit\": \"" << JsonEscape(m.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks out;
  if (!(stat >> cpu) || cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is
  // already included in user).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) return CpuTicks{};
    out.total += ticks;
    if (field == 7) out.steal = ticks;
  }
  return out;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace setalg::perfbench
