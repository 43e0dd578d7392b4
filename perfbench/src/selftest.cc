// Self-tests of the benchmark's own measurement code: the percentile
// helper and its tail-support check, the digest check, and the writer's
// lateness accounting. Run with `python3 perfbench/run.py --selftest`;
// exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "core/relation.h"
#include "server/protocol.h"

namespace setalg::perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileInterpolatesAndChecksItsTail() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // Unsorted on purpose.
  const Quantile median = Percentile(samples, 0.5);
  Expect(Near(median.value, 50.5), "median of 1..100 is 50.5");
  Expect(median.samples == 100, "median counts its samples");
  const Quantile p90 = Percentile(samples, 0.9);
  Expect(Near(p90.value, 90.1), "p90 of 1..100 interpolates to 90.1");
  Expect(p90.beyond == 10 && p90.supported(), "p90 of 100 samples has 10 beyond it");
  const Quantile p99 = Percentile(samples, 0.99);
  Expect(p99.beyond == 1 && !p99.supported(), "p99 of 100 samples is unsupported");
  std::vector<double> ninety(samples.begin(), samples.begin() + 90);
  Expect(!Percentile(ninety, 0.9).supported(), "p90 of 90 samples is unsupported");
  Expect(Percentile({}, 0.5).samples == 0 && !Percentile({}, 0.5).supported(),
         "empty input reports nothing");
  Expect(Near(Median({7.0}), 7.0), "median of one sample");

  // The histogram agrees with the exact percentile within its 0.25%
  // bucket error, with the same tail support.
  LatencyHistogram h, burst;
  for (const double v : samples) {
    h.Record(v);
    burst.Record(v * 10);
  }
  const auto within = [](double got, double want) {
    return std::fabs(got - want) <= 0.0026 * want;
  };
  Expect(within(h.Percentile(0.5).value, 50.5) && within(h.Percentile(0.9).value, 90.1),
         "histogram percentiles match the exact ones");
  Expect(h.Percentile(0.9).beyond == 10 && !h.Percentile(0.99).supported(),
         "histogram tails count the samples beyond them");
  LatencyHistogram tiny;
  tiny.Record(0.0);
  tiny.Record(1e9);
  Expect(tiny.count() == 2 && tiny.Percentile(1.0).value > 1e5,
         "out-of-range samples land in the end buckets");

  // Three sub-windows of 1..100 ms, one of them slowed by a burst: the
  // medians over sub-windows ignore the burst.
  const WindowSummary w =
      SummarizeWindows({h, burst, h, LatencyHistogram()}, {1.0, 1.0, 2.0, 1.0});
  Expect(w.windows == 3, "empty sub-windows are skipped");
  Expect(within(w.p50_ms, 50.5) && within(w.p90_ms, 90.1),
         "a burst does not move the medians");
  Expect(Near(w.per_s, 100.0), "throughput is the median sub-window rate");
  Expect(w.unsupported_tails == 0, "each sub-window's p90 is supported");
  Expect(SubWindows(20) == 20 && SubWindows(0.5) == 1 && SubWindows(600) == 60,
         "one sub-window per second, 1 to 60");
}

void DigestCheckRejectsTamperedRelation() {
  const core::Relation original = core::Relation::FromRows(2, {{1, 10}, {2, 20}, {3, 30}});
  const std::uint64_t expected = server::RelationDigest(original);
  DigestCheck check;
  Expect(check.Expect(expected, server::RelationDigest(original), [] { return "same"; }),
         "an identical relation passes");

  core::Relation extra = original;
  extra.Add({4, 40});
  core::Relation changed = core::Relation::FromRows(2, {{1, 10}, {2, 21}, {3, 30}});
  core::Relation dropped = core::Relation::FromRows(2, {{1, 10}, {2, 20}});
  for (const core::Relation* tampered : {&extra, &changed, &dropped}) {
    Expect(!check.Expect(expected, server::RelationDigest(*tampered),
                         [] { return "selftest tampered relation (expected)"; }),
           "a tampered relation is rejected");
  }
  Expect(check.checked() == 4 && check.mismatched() == 3, "the check counts mismatches");

  std::uint64_t parsed = 0;
  Expect(ParseHexDigest(server::DigestToHex(expected), &parsed) && parsed == expected,
         "a response digest parses back");
  Expect(!ParseHexDigest("xyz", &parsed), "a malformed digest is refused");
}

// A clock that only moves when the writer sleeps or a commit takes time.
class FakeClock final : public WriterClock {
 public:
  Clock::time_point Now() override { return now_; }
  void SleepUntil(Clock::time_point when) override {
    if (when > now_) now_ = when;
  }
  void Advance(std::chrono::microseconds d) { now_ += d; }

 private:
  Clock::time_point now_{};
};

void WriterChargesStallsToCommitLatency() {
  FakeClock clock;
  const auto start = clock.Now();
  const auto period = std::chrono::milliseconds(20);
  // Ten commits due; commit 3 stalls 100 ms, the others take 1 ms.
  const WriterSamples s = RunOpenLoopWriter(
      clock, start, period, start + 10 * period, [&](std::size_t k) {
        clock.Advance(k == 3 ? std::chrono::microseconds(100000)
                             : std::chrono::microseconds(1000));
      });
  Expect(s.latency_ms.size() == 10, "every due commit is made, none skipped");
  Expect(Near(s.latency_ms[0], 1.0) && Near(s.lateness_ms[0], 0.0),
         "an on-time commit costs its own time");
  Expect(Near(s.latency_ms[3], 100.0), "the stalled commit pays its stall");
  // Commit 4 was due at 80 ms but could start only at 160 ms.
  Expect(Near(s.lateness_ms[4], 80.0) && Near(s.latency_ms[4], 81.0),
         "the next commit is charged from its scheduled time");
  Expect(Near(s.latency_ms[5], 62.0) && Near(s.latency_ms[8], 5.0),
         "the backlog drains one commit at a time");
  Expect(Near(s.latency_ms[9], 1.0), "the schedule recovers");
  const Quantile p90 = Percentile(s.latency_ms, 0.9);
  Expect(p90.value > 80.0, "the stall shows in the commit tail");
}

void TracerComputesSelfTime() {
  Tracer tracer;
  SpanLog* log = tracer.NewLog("t");
  const std::uint32_t outer = log->Begin("outer", "", 1);
  const std::uint32_t inner = log->Begin("inner", "", 1);
  log->End(inner);
  log->End(outer);
  const std::vector<double> self = log->SelfMillis();
  const auto& spans = log->spans();
  Expect(spans[inner].parent == outer, "a nested span names its parent");
  Expect(Near(self[outer], spans[outer].millis() - spans[inner].millis()),
         "self time excludes children");
  Expect(tracer.Durations("inner").size() == 1, "spans are found by name");
}

}  // namespace
}  // namespace setalg::perfbench

int main() {
  setalg::perfbench::PercentileInterpolatesAndChecksItsTail();
  setalg::perfbench::DigestCheckRejectsTamperedRelation();
  setalg::perfbench::WriterChargesStallsToCommitLatency();
  setalg::perfbench::TracerComputesSelfTime();
  if (setalg::perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", setalg::perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
