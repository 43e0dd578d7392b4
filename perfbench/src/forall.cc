// forall-analytics: one in-process caller runs Engine::Run in a closed
// loop on one stable snapshot, cycling through six "for all" queries —
// two divisions, three set joins and a skewed triangle. Kernels,
// grouping, the batch seam and the partition/fan-in path do nearly all
// the work; server, SQL, txn and the caches do almost none.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "datagen.h"
#include "engine/cost.h"
#include "engine/engine.h"
#include "engine/physical.h"
#include "ra/expr.h"
#include "server/protocol.h"
#include "setjoin/division.h"
#include "setjoin/grouped.h"
#include "setjoin/setjoin.h"
#include "sql/analyzer.h"
#include "txn/snapshot.h"
#include "workloads.h"

namespace setalg::perfbench {
namespace {

using engine::EngineOptions;

enum class Family { kDivision, kContainment, kEquality, kTriangle };

const char* const kTriangleSql =
    "SELECT * FROM TR a, TS b, TT c WHERE a.c2 = b.c1 AND b.c2 = c.c1 AND "
    "a.c1 = c.c2";

// One of the six statement kinds. Expression kinds (the divisions and
// the triangle) are planned by Engine::Run; the set joins have no
// logical form and run as hand-built plans whose algorithm and fan-out
// come from the public CostModel, so a cost-model change still shows.
struct Kind {
  const char* name = "";
  Family family = Family::kDivision;
  bool equality = false;
  ra::ExprPtr expr;
  std::string left, right;  // Inputs of the grouping / kernel calls.
  setjoin::ContainmentAlgorithm containment = setjoin::ContainmentAlgorithm::kInvertedIndex;
  setjoin::EqualityJoinAlgorithm set_equality = setjoin::EqualityJoinAlgorithm::kCanonicalHash;
  engine::PhysicalPlan plan;         // Set joins, at the workload's threads.
  engine::PhysicalPlan serial_plan;  // Set joins, at threads = 1.
  setjoin::DivisionAlgorithm division = setjoin::DivisionAlgorithm::kHashDivision;
  std::uint64_t digest = 0;          // Result digest of the warm-up run.
};

struct Forall {
  std::shared_ptr<txn::VersionedDatabase> head;
  txn::SnapshotPtr snapshot;
  std::vector<Kind> kinds;
};

EngineOptions WorkloadOptions(std::size_t threads) {
  return EngineOptions::CostBased().WithMultiway().WithThreads(threads);
}

engine::PhysicalPlan SetJoinPlan(Kind* kind, const txn::Snapshot& snapshot,
                                 std::size_t threads) {
  const engine::CostModel model(&snapshot);
  const engine::ExprEstimate left = model.Estimate(ra::Rel(kind->left, 2));
  const engine::ExprEstimate right = model.Estimate(ra::Rel(kind->right, 2));
  engine::CostEstimate serial;
  if (kind->family == Family::kEquality) {
    const auto choice = model.ChooseSetEquality(left, right);
    kind->set_equality = choice.algorithm;
    serial = choice.estimate;
  } else {
    const auto choice = model.ChooseContainment(left, right);
    kind->containment = choice.algorithm;
    serial = choice.estimate;
  }
  const auto parallel =
      model.ChooseParallelism(serial, left.cardinality, left.key_distinct, threads);
  engine::PhysicalPlan plan;
  auto l = engine::MakeScan(kind->left, 2);
  auto r = engine::MakeScan(kind->right, 2);
  plan.root = kind->family == Family::kEquality
                  ? engine::MakeSetEqualityJoin(std::move(l), std::move(r),
                                                kind->set_equality, nullptr,
                                                parallel.partitions)
                  : engine::MakeSetContainmentJoin(std::move(l), std::move(r),
                                                   kind->containment, nullptr,
                                                   parallel.partitions);
  return plan;
}

util::Result<engine::RunResult> RunKind(const engine::Engine& engine, const Kind& kind,
                                        const txn::Snapshot& snapshot, bool serial) {
  if (kind.expr != nullptr) return engine.Run(kind.expr, snapshot);
  return engine.Run(serial ? kind.serial_plan : kind.plan, snapshot);
}

// The division algorithm the planner picked, from PlanStats::choices.
setjoin::DivisionAlgorithm ChosenDivision(const engine::PlanStats& stats) {
  for (const auto& choice : stats.choices) {
    for (const auto algorithm : setjoin::AllDivisionAlgorithms()) {
      if (choice.algorithm == setjoin::DivisionAlgorithmToString(algorithm)) {
        return algorithm;
      }
    }
  }
  return setjoin::DivisionAlgorithm::kHashDivision;
}

// Builds the snapshot, warms its statistics, prepares the six kinds and
// runs each once (first-touch allocation). Everything here counts as
// set-up. Dies on an engine error: the workload is chosen so none occurs.
Forall Setup(std::uint64_t seed, std::size_t threads) {
  Forall f;
  f.head = std::make_shared<txn::VersionedDatabase>(
      MakeForallDatabase(ForallShape{}, seed));
  f.snapshot = f.head->snapshot();
  for (const auto& name : f.snapshot->schema().Names()) f.snapshot->Get(name);

  auto triangle = sql::Compile(kTriangleSql, f.snapshot->schema());
  if (!triangle.ok()) {
    std::fprintf(stderr, "perfbench: triangle SQL: %s\n", triangle.error().c_str());
    std::exit(2);
  }
  const auto add = [&](const char* name, Family family, bool equality, ra::ExprPtr expr,
                       const char* left, const char* right) {
    Kind kind;
    kind.name = name;
    kind.family = family;
    kind.equality = equality;
    kind.expr = std::move(expr);
    kind.left = left;
    kind.right = right;
    f.kinds.push_back(std::move(kind));
  };
  add("division", Family::kDivision, false, setjoin::ClassicDivisionExpr("D", "V"), "D",
      "V");
  add("division_eq", Family::kDivision, true,
      setjoin::ClassicEqualityDivisionExpr("D", "V"), "D", "V");
  add("containment", Family::kContainment, false, nullptr, "CL", "CR");
  add("containment_zipf", Family::kContainment, false, nullptr, "ZL", "ZR");
  add("equality", Family::kEquality, false, nullptr, "EL", "ER");
  add("triangle", Family::kTriangle, false, *triangle, "", "");
  for (Kind& kind : f.kinds) {
    if (kind.expr == nullptr) {
      kind.serial_plan = SetJoinPlan(&kind, *f.snapshot, 1);
      kind.plan = SetJoinPlan(&kind, *f.snapshot, threads);
    }
  }
  const engine::Engine engine(WorkloadOptions(threads));
  for (Kind& kind : f.kinds) {
    auto run = RunKind(engine, kind, *f.snapshot, false);
    if (!run.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", kind.name, run.error().c_str());
      std::exit(2);
    }
    kind.digest = server::RelationDigest(run->relation);
    if (kind.family == Family::kDivision) kind.division = ChosenDivision(run->stats);
  }
  return f;
}

// Checks each kind's warm-up result against an independent path: the
// direct setjoin kernel with a different algorithm than the engine used,
// or, for the triangle, the binary plan with multiway routing off.
void CheckAgainstIndependentPaths(const Forall& f, DigestCheck* check) {
  const txn::Snapshot& snap = *f.snapshot;
  for (const Kind& kind : f.kinds) {
    core::Relation expected(0);
    switch (kind.family) {
      case Family::kDivision: {
        const auto other = kind.division == setjoin::DivisionAlgorithm::kHashDivision
                               ? setjoin::DivisionAlgorithm::kSortMerge
                               : setjoin::DivisionAlgorithm::kHashDivision;
        expected = kind.equality
                       ? setjoin::DivideEqual(snap.relation("D"), snap.relation("V"), other)
                       : setjoin::Divide(snap.relation("D"), snap.relation("V"), other);
        break;
      }
      case Family::kContainment: {
        const auto other =
            kind.containment == setjoin::ContainmentAlgorithm::kInvertedIndex
                ? setjoin::ContainmentAlgorithm::kSignatureNestedLoop
                : setjoin::ContainmentAlgorithm::kInvertedIndex;
        expected = setjoin::SetContainmentJoin(snap.relation(kind.left),
                                               snap.relation(kind.right), other);
        break;
      }
      case Family::kEquality: {
        const auto other =
            kind.set_equality == setjoin::EqualityJoinAlgorithm::kCanonicalHash
                ? setjoin::EqualityJoinAlgorithm::kNestedLoop
                : setjoin::EqualityJoinAlgorithm::kCanonicalHash;
        expected = setjoin::SetEqualityJoin(snap.relation(kind.left),
                                            snap.relation(kind.right), other);
        break;
      }
      case Family::kTriangle: {
        auto run = engine::Engine(EngineOptions::CostBased()).Run(kind.expr, snap);
        if (run.ok()) expected = std::move(run->relation);
        break;
      }
    }
    check->Expect(server::RelationDigest(expected), kind.digest, [&] {
      return std::string("forall-analytics ") + kind.name + " vs independent path";
    });
  }
}

// Runs one statement; its digest is checked after the timing stops.
struct Timed {
  double ms = 0.0;
  bool ok = false;
};

Timed TimeKind(const engine::Engine& engine, const Kind& kind,
               const txn::Snapshot& snapshot) {
  const auto t0 = Clock::now();
  auto run = RunKind(engine, kind, snapshot, false);
  Timed out{MillisBetween(t0, Clock::now()), false};
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", kind.name, run.error().c_str());
    return out;
  }
  out.ok = server::RelationDigest(run->relation) == kind.digest;
  if (!out.ok) {
    std::fprintf(stderr, "perfbench: MISMATCH forall-analytics %s: digest changed\n",
                 kind.name);
  }
  return out;
}

// Appends stmt_ms_p50 and stmt_ms_p90 as the mean over the kinds of
// each kind's percentile over the whole window, and stmt_per_s as the
// median over sub-windows. The six kinds run equally often, so the
// pooled median falls on the gap between the third and fourth fastest
// kind and jumps across it from run to run; a kind's own percentile
// does not.
void AddForallStatementMetrics(std::vector<Metric>* metrics,
                               const std::vector<std::vector<double>>& per_kind,
                               const std::vector<LatencyHistogram>& windows,
                               const std::vector<double>& window_s, double steal) {
  double p50 = 0.0, p90 = 0.0;
  for (const auto& samples : per_kind) {
    p50 += Median(samples) / static_cast<double>(per_kind.size());
    const Quantile tail = Percentile(samples, 0.9);
    if (!tail.supported()) {
      std::fprintf(stderr,
                   "perfbench: warning: a kind's p90 rests on %zu samples with only %zu "
                   "beyond it\n",
                   tail.samples, tail.beyond);
    }
    p90 += tail.value / static_cast<double>(per_kind.size());
  }
  std::printf("cpu steal during the window: %.1f%%\n", steal * 100);
  metrics->push_back({"stmt_ms_p50", p50, "ms"});
  metrics->push_back({"stmt_ms_p90", p90, "ms"});
  metrics->push_back({"stmt_per_s", SummarizeWindows(windows, window_s).per_s, "1/s"});
}

}  // namespace

RunOutput RunForall(const RunConfig& config) {
  RunOutput out;
  std::vector<double> setup_s;
  auto t0 = Clock::now();
  Forall f = Setup(config.seed, config.threads);
  setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);

  // The timed window: whole cycles through the six kinds. Each digest is
  // compared with the warm-up run's between statements, outside the
  // statement's timing; the warm-up digests are checked against
  // independent paths after peak_rss_mb is read.
  const engine::Engine engine(WorkloadOptions(config.threads));
  const std::size_t n = f.kinds.size();
  std::vector<double> latency;
  std::vector<std::vector<double>> per_kind(n);
  const CpuTicks ticks = ReadCpuTicks();
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline) {
    for (std::size_t k = 0; k < n; ++k) {
      const Timed timed = TimeKind(engine, f.kinds[k], *f.snapshot);
      latency.push_back(timed.ms);
      per_kind[k].push_back(timed.ms);
      ++out.attempted;
      if (!timed.ok) ++out.failed;
    }
  }

  // Sub-windows of consecutive whole cycles; one caller in a closed loop,
  // so a sub-window lasts the sum of its statement latencies.
  const std::size_t cycles = latency.size() / n;
  const std::size_t windows = std::min(SubWindows(config.seconds), cycles);
  std::vector<LatencyHistogram> window_ms(windows);
  std::vector<double> window_s(windows, 0.0);
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const std::size_t w = std::min(windows - 1, (i / n) / (cycles / windows));
    window_ms[w].Record(latency[i]);
    window_s[w] += latency[i] / 1e3;
  }

  AddForallStatementMetrics(&out.metrics, per_kind, window_ms, window_s,
                            StealShare(ticks, ReadCpuTicks()));
  out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  DigestCheck check;
  CheckAgainstIndependentPaths(f, &check);
  out.attempted += check.checked();
  out.failed += check.mismatched();
  std::printf("forall-analytics: %zu statements, %zu per kind, threads=%zu\n",
              latency.size(), cycles, config.threads);
  for (std::size_t k = 0; k < n; ++k) {
    std::printf("  %-18s p50 %9.3f ms  p90 %9.3f ms\n", f.kinds[k].name,
                Median(per_kind[k]), Percentile(per_kind[k], 0.9).value);
  }
  f = Forall{};
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    t0 = Clock::now();
    Setup(config.seed, config.threads);
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
  }
  out.metrics.insert(out.metrics.begin(), {"setup_s", Median(setup_s), "s"});
  out.correct = out.failed == 0;
  return out;
}

void TraceForall(const RunConfig& config, double seconds, Tracer* tracer,
                 RunOutput* out) {
  Forall f = Setup(config.seed, config.threads);
  DigestCheck check;
  CheckAgainstIndependentPaths(f, &check);
  out->attempted += check.checked();
  out->failed += check.mismatched();

  const engine::Engine engine(WorkloadOptions(config.threads));
  const engine::Engine serial_engine(WorkloadOptions(1));
  const txn::Snapshot& snap = *f.snapshot;
  const std::size_t n = f.kinds.size();

  // One cycle through the kinds. Each statement is timed around exactly
  // one Engine::Run (inside the statement span when traced); the
  // planning, grouping, kernel and threads=1 calls follow outside it.
  // With a null log nothing is recorded: the untraced base of the
  // tracing overhead, making the same calls in the same order.
  std::vector<engine::PlanStats> last(n);
  std::uint64_t stmt = 0;
  const auto cycle = [&](SpanLog* log, std::vector<std::vector<double>>* stmt_ms) {
    for (std::size_t k = 0; k < n; ++k) {
      const Kind& kind = f.kinds[k];
      ++stmt;
      // The statement's and every layer call's result must match the
      // checked digest.
      const auto expect = [&](bool ok, const core::Relation* result) {
        ++out->attempted;
        if (!ok || server::RelationDigest(*result) != kind.digest) {
          std::fprintf(stderr, "perfbench: MISMATCH forall-analytics %s (traced run)\n",
                       kind.name);
          ++out->failed;
        }
      };
      util::Result<engine::RunResult> run =
          util::Result<engine::RunResult>::Error("not run");
      const auto t0 = Clock::now();
      {
        ScopedSpan statement(log, "forall.stmt", kind.name, stmt);
        ScopedSpan exec(log, "engine.run", kind.name, stmt);
        run = RunKind(engine, kind, snap, false);
      }
      (*stmt_ms)[k].push_back(MillisBetween(t0, Clock::now()));
      expect(run.ok(), run.ok() ? &run->relation : nullptr);
      if (run.ok()) last[k] = std::move(run->stats);

      if (kind.expr != nullptr) {
        ScopedSpan plan(log, "engine.plan", kind.name, stmt);
        if (!engine.Plan(kind.expr, snap).ok()) ++out->failed;
      }
      if (kind.family == Family::kContainment || kind.family == Family::kEquality) {
        setjoin::GroupedRelation left, right;
        {
          ScopedSpan group(log, "setjoin.group", kind.name, stmt);
          left = setjoin::AsGrouped(snap.relation(kind.left));
          right = setjoin::AsGrouped(snap.relation(kind.right));
        }
        core::Relation result(2);
        {
          ScopedSpan kernel(log, "setjoin.kernel", kind.name, stmt);
          result = kind.family == Family::kEquality
                       ? setjoin::SetEqualityJoin(left, right, kind.set_equality)
                       : setjoin::SetContainmentJoin(left, right, kind.containment);
        }
        expect(true, &result);
      } else if (kind.family == Family::kDivision) {
        core::Relation result(1);
        {
          ScopedSpan kernel(log, "setjoin.kernel", kind.name, stmt);
          result = kind.equality ? setjoin::DivideEqual(snap.relation("D"),
                                                        snap.relation("V"), kind.division)
                                 : setjoin::Divide(snap.relation("D"), snap.relation("V"),
                                                   kind.division);
        }
        expect(true, &result);
      }
      util::Result<engine::RunResult> serial =
          util::Result<engine::RunResult>::Error("not run");
      {
        ScopedSpan span(log, "engine.run_serial", kind.name, stmt);
        serial = RunKind(serial_engine, kind, snap, true);
      }
      expect(serial.ok(), serial.ok() ? &serial->relation : nullptr);
    }
  };
  const auto until = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  std::vector<std::vector<double>> untraced(n), traced(n);
  for (const auto end = until(seconds / 4); Clock::now() < end;) cycle(nullptr, &untraced);
  SpanLog* log = tracer->NewLog("forall");
  for (const auto end = until(seconds * 3 / 4); Clock::now() < end;) cycle(log, &traced);

  auto& m = out->metrics;
  double traced_sum = 0.0, untraced_sum = 0.0, covered = 0.0, statement_ms = 0.0;
  const std::vector<double> self = log->SelfMillis();
  for (std::size_t i = 0; i < log->spans().size(); ++i) {
    const Span& span = log->spans()[i];
    if (std::string(span.name) == "forall.stmt") statement_ms += span.millis();
    if (span.parent != kNoParent &&
        std::string(log->spans()[span.parent].name) == "forall.stmt") {
      covered += self[i];
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const Kind& kind = f.kinds[k];
    const std::string tag = kind.name;
    const double exec = Median(tracer->Durations("engine.run", kind.name));
    traced_sum += Median(traced[k]);
    untraced_sum += Median(untraced[k]);
    m.push_back({"engine.exec_ms." + tag, exec, "ms"});
    if (kind.expr != nullptr) {
      m.push_back({"engine.plan_ms." + tag,
                   Median(tracer->Durations("engine.plan", kind.name)), "ms"});
    }
    if (kind.family != Family::kTriangle) {
      double group = 0.0;
      if (kind.family != Family::kDivision) {
        group = Median(tracer->Durations("setjoin.group", kind.name));
        m.push_back({"setjoin.group_ms." + tag, group, "ms"});
      }
      const double kernel = Median(tracer->Durations("setjoin.kernel", kind.name));
      m.push_back({"setjoin.kernel_ms." + tag, kernel, "ms"});
      m.push_back({"engine.seam_ms." + tag, exec - group - kernel, "ms"});
    }
    m.push_back({"engine.parallel.speedup." + tag,
                 Median(tracer->Durations("engine.run_serial", kind.name)) / exec, "x"});
    m.push_back({"engine.parallel.partitions." + tag,
                 static_cast<double>(last[k].partitions), "count"});
    m.push_back({"engine.max_intermediate." + tag,
                 static_cast<double>(last[k].max_intermediate), "count"});
    m.push_back({"engine.peak_batch_bytes." + tag,
                 static_cast<double>(last[k].peak_batch_bytes), "count"});
    if (kind.family == Family::kTriangle) {
      const engine::PlanStats& s = last[k];
      m.push_back({"engine.multiway.intermediate_over_agm",
                   s.has_agm_bound && s.agm_bound > 0
                       ? static_cast<double>(s.max_intermediate) / s.agm_bound
                       : 0.0,
                   "ratio"});
    }
  }
  m.push_back({"trace.overhead_ratio.forall", traced_sum / untraced_sum - 1.0, "ratio"});
  m.push_back({"trace.coverage.forall", covered / statement_ms, "ratio"});
}

}  // namespace setalg::perfbench
