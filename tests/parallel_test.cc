// Unit tests for the parallel partitioned-execution building blocks
// (engine/parallel.h, setjoin/grouped.h partitioners): the WorkerPool
// runs every task exactly once, range partitioning is deterministic,
// lossless and ordered (partitions concatenate back to the input), and the
// fan-out/fan-in iterator reproduces serial results.
// The end-to-end thread-differential harness lives in batch_exec_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "core/relation.h"
#include "engine/engine.h"
#include "engine/parallel.h"
#include "sa/fast_semijoin.h"
#include "setjoin/grouped.h"
#include "test_util.h"
#include "workload/generators.h"

namespace setalg::engine {
namespace {

using core::Relation;
using core::Value;
using setalg::testing::MakeRel;

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.Run(kTasks, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " threads " << threads;
    }
  }
}

TEST(WorkerPool, ReusableAcrossRunsAndHandlesEmptyAndSingleton) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  pool.Run(0, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 0);
  pool.Run(1, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 1);
  // A second batch through the same pool: no stale generation state.
  pool.Run(10, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 11);
}

TEST(WorkerPool, TasksActuallyRunConcurrentlyWhenWorkersExist) {
  // Not a timing test: two tasks block until both have started, which can
  // only complete if two threads run them simultaneously.
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  pool.Run(2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started == 2; });
  });
  EXPECT_EQ(started, 2);
}

// The flat row-major concatenation of `parts` in partition-index order —
// exactly what the fan-in appends before its Normalize().
std::vector<Value> Concatenate(const std::vector<Relation>& parts) {
  std::vector<Value> flat;
  for (const auto& part : parts) {
    flat.insert(flat.end(), part.flat().begin(), part.flat().end());
  }
  return flat;
}

// Asserts that `parts` hold ascending, disjoint ranges of `column`: the
// largest key of every non-empty partition lies below the smallest key of
// every later non-empty one.
void ExpectOrderedRanges(const std::vector<Relation>& parts, std::size_t column) {
  bool have_max = false;
  Value max_so_far = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (parts[p].empty()) continue;
    Value lo = parts[p].tuple(0)[column - 1];
    Value hi = lo;
    for (std::size_t i = 0; i < parts[p].size(); ++i) {
      lo = std::min(lo, parts[p].tuple(i)[column - 1]);
      hi = std::max(hi, parts[p].tuple(i)[column - 1]);
    }
    if (have_max) {
      EXPECT_LT(max_so_far, lo) << "partition " << p << " overlaps an earlier one";
    }
    max_so_far = hi;
    have_max = true;
  }
}

TEST(Partitioning, SplitKeysAreTheRowQuantilesOfColumnOne) {
  const Relation r = setalg::workload::UniformBinaryRelation(200, 17, 5);
  const std::size_t n = r.size();
  for (std::size_t parts : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const auto split = SplitKeys(r, 1, parts);
    ASSERT_EQ(split.size(), parts - 1);
    const auto partitions = PartitionByColumn(r, 1, split);
    for (std::size_t p = 1; p < parts; ++p) {
      EXPECT_EQ(split[p - 1], r.tuple(p * n / parts)[0]) << "parts " << parts;
      // Partition p opens with the first row holding its split key.
      ASSERT_FALSE(partitions[p].empty());
      EXPECT_EQ(partitions[p].tuple(0)[0], split[p - 1]) << "parts " << parts;
    }
  }
  // An empty relation still yields one key per cut, so the partition
  // count (and PlanStats::partitions) never depends on the data.
  EXPECT_EQ(SplitKeys(Relation(2), 1, 4).size(), 3u);
  EXPECT_EQ(PartitionByColumn(Relation(2), 1, SplitKeys(Relation(2), 1, 4)).size(), 4u);
}

TEST(Partitioning, ByColumnIsLosslessOrderedAndDeterministic) {
  const Relation r = setalg::workload::UniformBinaryRelation(200, 17, 5);
  for (std::size_t parts : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const auto split = SplitKeys(r, 1, parts);
    const auto a = PartitionByColumn(r, 1, split);
    const auto b = PartitionByColumn(r, 1, split);
    ASSERT_EQ(a.size(), parts);
    std::size_t total = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(a[p], b[p]) << "partitioning must be deterministic";
      total += a[p].size();
      for (std::size_t i = 0; i < a[p].size(); ++i) {
        // Every row is routed by its column-1 value into its key range.
        const Value key = a[p].tuple(i)[0];
        if (p > 0) {
          EXPECT_GE(key, split[p - 1]);
        }
        if (p + 1 < parts) {
          EXPECT_LT(key, split[p]);
        }
      }
    }
    EXPECT_EQ(total, r.size()) << "no row may be dropped or duplicated";
    ExpectOrderedRanges(a, 1);
    // The concatenation in partition order is the input, byte for byte:
    // the fan-in needs no sort.
    EXPECT_EQ(Concatenate(a), r.flat()) << "parts " << parts;
  }
}

TEST(Partitioning, RangesBalanceRowsAcrossPartitions) {
  // 200 distinct keys with one row each: quantile cuts give every
  // partition exactly n/parts rows.
  Relation r(2);
  for (Value k = 1; k <= 200; ++k) r.Add({k * 3, k});
  const auto parts = PartitionByColumn(r, 1, SplitKeys(r, 1, 4));
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& part : parts) EXPECT_EQ(part.size(), 50u);
}

TEST(Partitioning, OneKeyHoldingEveryRowFillsTheLastPartition) {
  for (Value key : {7, 8, 9, 10}) {
    const Relation r =
        MakeRel(2, {{key, 1}, {key, 2}, {key, 3}, {key, 4}, {key, 5}});
    for (std::size_t count : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      const auto split = SplitKeys(r, 1, count);
      EXPECT_EQ(split, std::vector<Value>(count - 1, key));
      const auto parts = PartitionByColumn(r, 1, split);
      ASSERT_EQ(parts.size(), count);
      for (std::size_t p = 0; p + 1 < count; ++p) {
        EXPECT_TRUE(parts[p].empty()) << "key " << key << " partition " << p;
      }
      EXPECT_EQ(parts.back(), r) << "key " << key;
    }
  }
}

TEST(Partitioning, MorePartitionsThanKeysLeavesSomeEmpty) {
  const Relation r = MakeRel(2, {{1, 5}, {2, 6}});
  // Cuts at rows p·2/16: keys 1 (p < 8) and 2 (p >= 8), so key 1 lands
  // after the seven cuts at 1 and key 2 after all fifteen.
  const auto parts = PartitionByColumn(r, 1, SplitKeys(r, 1, 16));
  ASSERT_EQ(parts.size(), 16u);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (p == 7) {
      EXPECT_EQ(parts[p], MakeRel(2, {{1, 5}}));
    } else if (p == 15) {
      EXPECT_EQ(parts[p], MakeRel(2, {{2, 6}}));
    } else {
      EXPECT_TRUE(parts[p].empty()) << "partition " << p;
    }
  }
  ExpectOrderedRanges(parts, 1);
  EXPECT_EQ(Concatenate(parts), r.flat());
}

TEST(Partitioning, DuplicateSplitKeysLeaveEmptyMiddlePartitions) {
  const Relation r = MakeRel(2, {{1, 9}, {2, 5}, {2, 6}, {2, 7}, {3, 8}});
  for (std::size_t column : {std::size_t{1}, std::size_t{2}}) {
    const std::vector<Value> split = column == 1 ? std::vector<Value>{2, 2, 2}
                                                 : std::vector<Value>{6, 6, 6};
    const auto parts = PartitionByColumn(r, column, split);
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_TRUE(parts[1].empty()) << "column " << column;
    EXPECT_TRUE(parts[2].empty()) << "column " << column;
    EXPECT_EQ(parts[0].size() + parts[3].size(), r.size());
    ExpectOrderedRanges(parts, column);
  }
}

TEST(Partitioning, AKeyEqualToASplitValueGoesToTheUpperPartition) {
  const Relation r = MakeRel(2, {{1, 4}, {2, 3}, {3, 2}, {4, 1}});
  {
    // Column 1: the slicing path.
    const auto parts = PartitionByColumn(r, 1, {3});
    EXPECT_EQ(parts[0], MakeRel(2, {{1, 4}, {2, 3}}));
    EXPECT_EQ(parts[1], MakeRel(2, {{3, 2}, {4, 1}}));
  }
  {
    // Column 2: the row-by-row path, same rule.
    const auto parts = PartitionByColumn(r, 2, {3});
    EXPECT_EQ(parts[0], MakeRel(2, {{3, 2}, {4, 1}}));
    EXPECT_EQ(parts[1], MakeRel(2, {{1, 4}, {2, 3}}));
  }
}

TEST(Partitioning, OtherColumnsSplitBySampledQuantiles) {
  // 5000 rows exceed the 1024-value sample, so the split comes from
  // evenly spaced column-2 values; the ranges must still be ordered and
  // roughly balanced, and every row must land in its range.
  Relation r(2);
  for (Value i = 0; i < 5000; ++i) r.Add({i, (i * 7919) % 5003});
  const auto split = SplitKeys(r, 2, 4);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_TRUE(std::is_sorted(split.begin(), split.end()));
  const auto parts = PartitionByColumn(r, 2, split);
  std::size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
    EXPECT_GT(part.size(), 5000u / 4 - 250) << "sampled cuts should roughly balance";
    EXPECT_LT(part.size(), 5000u / 4 + 250);
  }
  EXPECT_EQ(total, r.size());
  ExpectOrderedRanges(parts, 2);
}

TEST(Partitioning, SemijoinCoPartitionsOnColumnTwoOfBothSides) {
  // left.2 = right.2: one split, taken from the left side's column 2,
  // routes both sides; every matching pair shares a partition, so the
  // per-partition semijoins union to the whole one.
  const Relation left = setalg::workload::UniformBinaryRelation(300, 40, 3);
  const Relation right = setalg::workload::UniformBinaryRelation(120, 40, 4);
  const std::vector<ra::JoinAtom> atoms = {{2, ra::Cmp::kEq, 2}};
  const auto split = SplitKeys(left, 2, 5);
  const auto left_parts = PartitionByColumn(left, 2, split);
  const auto right_parts = PartitionByColumn(right, 2, split);
  ASSERT_EQ(left_parts.size(), 5u);
  ASSERT_EQ(right_parts.size(), 5u);
  ExpectOrderedRanges(left_parts, 2);
  ExpectOrderedRanges(right_parts, 2);
  Relation merged(2);
  for (std::size_t p = 0; p < left_parts.size(); ++p) {
    for (std::size_t i = 0; i < left_parts[p].size(); ++i) {
      const Value key = left_parts[p].tuple(i)[1];
      for (std::size_t q = 0; q < right_parts.size(); ++q) {
        if (q == p) continue;
        for (std::size_t j = 0; j < right_parts[q].size(); ++j) {
          ASSERT_NE(right_parts[q].tuple(j)[1], key) << "key " << key << " split";
        }
      }
    }
    const Relation part = sa::Semijoin(left_parts[p], right_parts[p], atoms);
    for (std::size_t i = 0; i < part.size(); ++i) merged.Add(part.tuple(i));
  }
  EXPECT_EQ(merged, sa::Semijoin(left, right, atoms));

  // And through the operator at an explicit width.
  core::Schema schema;
  schema.AddRelation("L", 2);
  schema.AddRelation("R", 2);
  core::Database db(schema);
  db.SetRelation("L", left);
  db.SetRelation("R", right);
  for (auto strategy : {SemijoinStrategy::kFastKernel, SemijoinStrategy::kGeneric}) {
    PhysicalPlan plan;
    plan.root = MakeSemiJoin(MakeScan("L", 2), MakeScan("R", 2), atoms, strategy,
                             nullptr, /*partitions=*/5);
    auto run = Engine(EngineOptions{}.WithThreads(2)).Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->relation, sa::Semijoin(left, right, atoms));
    EXPECT_EQ(run->stats.partitions, 5u);
  }
}

TEST(Partitioning, ByKeyAgreesWithByColumnOnTheSameRelation) {
  const Relation r =
      MakeRel(2, {{1, 5}, {1, 6}, {2, 5}, {3, 7}, {3, 8}, {3, 9}, {4, 5}});
  for (std::size_t parts : {1u, 2u, 3u, 9u}) {
    const auto grouped_parts = setjoin::PartitionByKey(setjoin::AsGrouped(r), parts);
    const auto row_parts = PartitionByColumn(r, 1, SplitKeys(r, 1, parts));
    ASSERT_EQ(grouped_parts.size(), parts);
    std::size_t groups_seen = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      // The grouped view of the row partition equals the partitioned
      // grouped view: groups never split across partitions, and both
      // cuts agree on where each key range ends.
      const auto from_rows = setjoin::AsGrouped(row_parts[p]);
      ASSERT_EQ(grouped_parts[p].NumGroups(), from_rows.NumGroups())
          << "parts " << parts << " part " << p;
      for (std::size_t g = 0; g < from_rows.NumGroups(); ++g) {
        EXPECT_EQ(grouped_parts[p].group(g).key, from_rows.group(g).key);
        EXPECT_EQ(grouped_parts[p].group(g).elements, from_rows.group(g).elements);
      }
      groups_seen += grouped_parts[p].NumGroups();
    }
    EXPECT_EQ(groups_seen, setjoin::AsGrouped(r).NumGroups());
    // The chunks are contiguous key runs: read in order, their keys are
    // the input's keys in order.
    std::vector<Value> keys;
    for (const auto& chunk : grouped_parts) {
      for (const auto& g : chunk.groups()) keys.push_back(g.key);
    }
    EXPECT_EQ(keys, (std::vector<Value>{1, 2, 3, 4})) << "parts " << parts;
  }
}

TEST(Partitioning, ByKeyBalancesZipfGroupsByElementCount) {
  // Power-law group sizes: group k holds ⌈400 / k⌉ elements.
  Relation r(2);
  for (Value k = 1; k <= 60; ++k) {
    for (Value e = 0; e < (400 + k - 1) / k; ++e) r.Add({k, e});
  }
  const auto grouped = setjoin::AsGrouped(r);
  const std::size_t total = grouped.TotalElements();
  const std::size_t largest = grouped.MaxGroupSize();
  for (std::size_t parts : {2u, 3u, 4u, 7u}) {
    const auto chunks = setjoin::PartitionByKey(grouped, parts);
    ASSERT_EQ(chunks.size(), parts);
    std::size_t seen = 0;
    Value last_key = 0;
    for (const auto& chunk : chunks) {
      EXPECT_LE(chunk.TotalElements(), (total + parts - 1) / parts + largest)
          << "parts " << parts;
      seen += chunk.TotalElements();
      for (const auto& g : chunk.groups()) {
        EXPECT_GT(g.key, last_key) << "chunks must hold ascending key runs";
        last_key = g.key;
      }
    }
    EXPECT_EQ(seen, total);
  }
}

// The fan-out/fan-in iterator through a real plan: an explicit partition
// count must reproduce the serial result at every width, pool or no pool.
TEST(PartitionedExecution, ExplicitPartitionCountsReproduceSerialResults) {
  workload::DivisionConfig config;
  config.num_groups = 40;
  config.group_size = 4;
  config.domain_size = 25;
  config.divisor_size = 3;
  config.match_fraction = 0.3;
  config.seed = 11;
  const auto instance = workload::MakeDivisionInstance(config);
  const auto db = setalg::testing::DivisionDb(instance.r, instance.s);

  PhysicalPlan serial;
  serial.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                             setjoin::DivisionAlgorithm::kHashDivision,
                             /*equality=*/false, nullptr, /*partitions=*/1);
  const Engine engine;
  auto expected = engine.Run(serial, db);
  ASSERT_TRUE(expected.ok()) << expected.error();

  for (std::size_t partitions : {std::size_t{2}, std::size_t{5}, std::size_t{64}}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      PhysicalPlan plan;
      plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                               setjoin::DivisionAlgorithm::kHashDivision,
                               /*equality=*/false, nullptr, partitions);
      EngineOptions options;
      options.threads = threads;
      auto run = Engine(options).Run(plan, db);
      ASSERT_TRUE(run.ok()) << run.error();
      EXPECT_EQ(run->relation, expected->relation)
          << "partitions " << partitions << " threads " << threads;
      EXPECT_EQ(run->stats.partitions, partitions);
      EXPECT_EQ(run->stats.threads_used, threads);
    }
  }
}

// partitions=0 defers to the run's pool width; serial runs stay serial.
TEST(PartitionedExecution, AutoPartitioningFollowsTheWorkerPoolWidth) {
  const auto db = setalg::testing::DivisionDb(
      MakeRel(2, {{1, 7}, {1, 8}, {2, 7}, {3, 8}, {3, 7}, {3, 9}}),
      MakeRel(1, {{7}, {8}}));
  PhysicalPlan plan;
  plan.root = MakeDivision(MakeScan("R", 2), MakeScan("S", 1),
                           setjoin::DivisionAlgorithm::kAggregate,
                           /*equality=*/false);
  {
    auto run = Engine().Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->stats.partitions, 0u) << "serial runs must not fan out";
    EXPECT_EQ(run->stats.threads_used, 1u);
  }
  {
    EngineOptions options;
    options.threads = 5;
    auto run = Engine(options).Run(plan, db);
    ASSERT_TRUE(run.ok()) << run.error();
    EXPECT_EQ(run->stats.partitions, 5u);
    EXPECT_EQ(run->stats.threads_used, 5u);
    EXPECT_EQ(run->relation, MakeRel(1, {{1}, {3}}));
  }
}

}  // namespace
}  // namespace setalg::engine
