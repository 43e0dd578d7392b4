// Parallel partitioned execution on the batch seam.
//
// The paper's fast division and set-join algorithms are embarrassingly
// partitionable by group key: range-partition the grouped side so every
// group lands wholly in one partition, run the unchanged serial kernel on
// each partition, and concatenate the per-partition outputs. Partitions
// hold ascending, disjoint key ranges and every kernel output leads with
// that key, so the concatenation in partition-index order is already the
// sorted, duplicate-free result: the fan-in's normalization is a linear
// check, and the result (hence every per-operator PlanStats row count) is
// bit-identical to the serial run. This header provides the three pieces
// that make that a reusable execution strategy rather than per-operator
// thread code:
//
//   - WorkerPool: a fixed pool of worker threads (EngineOptions::threads,
//     raq --threads) that runs one batch of independent tasks at a time;
//     the calling thread participates, so `threads` is total parallelism.
//   - SplitKeys + PartitionByColumn: deterministic key-range routing of a
//     relation's rows by one column. On column 1 of a normalized relation
//     a partition is a contiguous slice found by binary search; the
//     grouped partitioner (setjoin::PartitionByKey) cuts groups by the
//     same quantile rule, so row- and group-level partitioning agree.
//   - PartitionedIterator: the fan-out/fan-in BatchIterator. It is a
//     blocking operator under the ordinary Open/NextBatch/Close contract:
//     Open() consumes the input streams into per-partition work units
//     (serial), fans the per-partition kernels out across the pool, fans
//     the outputs back in — concatenated in partition-index order, so
//     repeated runs merge identically — and streams the normalized result
//     out in batches. Downstream consumers cannot tell it from the serial
//     operator; the differential harness in tests/batch_exec_test.cc
//     enforces exactly that.
//
// Threading discipline: partitioning happens on the calling thread before
// the fan-out, tasks touch only their own partition's state (plus shared
// read-only inputs), and the merge happens on the calling thread after
// every task has completed — so no PlanStats field, ExecContext, or
// core::Relation is ever touched concurrently. Tasks must not throw.
#ifndef SETALG_ENGINE_PARALLEL_H_
#define SETALG_ENGINE_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/relation.h"
#include "engine/batch.h"
#include "engine/physical.h"

namespace setalg::engine {

/// A fixed pool of worker threads executing one batch of independent
/// tasks at a time. Constructed with the total parallelism `threads`
/// (>= 1); the pool spawns `threads - 1` workers and the thread calling
/// Run() works alongside them, so `threads == 1` degenerates to inline
/// serial execution with no threads spawned.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs task(0) .. task(count - 1) across the pool and the calling
  /// thread; returns when all have completed. One Run at a time (the
  /// executors drive operators sequentially); tasks must not throw and
  /// must not call Run() recursively.
  void Run(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // Guarded by mutex_.
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The range-partitioning rule: the `parts - 1` split keys of `column`
/// (1-based) at row quantiles, split[p - 1] = the key of row p·n/parts for
/// p in 1..parts-1 (n = relation.size()). Column 1 of a normalized
/// relation is sorted, so its keys are read directly; any other column is
/// sampled at evenly spaced rows (at most 1024 values), sorted, and cut
/// at the same quantiles of the sample. Deterministic; an empty
/// relation yields `parts - 1` zero keys (every partition stays empty).
std::vector<core::Value> SplitKeys(const core::Relation& relation, std::size_t column,
                                   std::size_t parts);

/// Range-partitions the rows of `relation` by `column` (1-based) into
/// split.size() + 1 relations: a row goes to partition
/// upper_bound(split, key) - split.begin(), so partition p holds the keys
/// in [split[p - 1], split[p]) and partitions are ordered by key. Every
/// row with a given column value lands in exactly one partition,
/// partitions preserve the input's sorted order (so they normalize for
/// free), and their concatenation in index order is the input when
/// `column` is 1 — each partition is then one contiguous slice, copied in
/// bulk. `split` must be sorted (duplicates leave empty partitions).
std::vector<core::Relation> PartitionByColumn(const core::Relation& relation,
                                              std::size_t column,
                                              const std::vector<core::Value>& split);

/// The fan-in: concatenates per-partition outputs in partition-index
/// order and normalizes. Range-partitioned outputs that lead with the
/// partitioning key (division, set joins, multiway, semijoins on column 1)
/// are already sorted, so the normalization is a linear check rather than
/// a sort. Runs on the calling thread after the fan-out.
core::Relation ConcatenatePartitions(const std::vector<core::Relation>& outputs,
                                     std::size_t arity);

/// One partition's work: computes that partition's share of the
/// operator's output. Runs on a worker thread; must only touch state
/// captured at construction (its own partition plus shared read-only
/// inputs) and must not throw.
using PartitionTask = std::function<core::Relation()>;

/// Builds the partition tasks from the operator's input streams. Runs on
/// the calling thread during Open(): consume every input here (drain /
/// borrow via MaterializedInput or setjoin::GroupedBuilder), partition,
/// and capture per-partition state into the returned tasks.
using PartitionPlanFn =
    std::function<std::vector<PartitionTask>(std::vector<std::unique_ptr<BatchIterator>>&)>;

/// The fan-out/fan-in operator kernel (see the file comment). Output is
/// normalized, hence distinct(); PlanStats::partitions counts the tasks.
class PartitionedIterator final : public BatchIterator {
 public:
  PartitionedIterator(ExecContext& ctx, std::size_t arity,
                      std::vector<std::unique_ptr<BatchIterator>> inputs,
                      PartitionPlanFn plan)
      : ctx_(ctx), arity_(arity), inputs_(std::move(inputs)), plan_(std::move(plan)),
        result_(arity) {}

  void Open() override;

  bool NextBatch(Batch& out) override {
    pos_ = StreamRelationRows(result_, pos_, &out);
    return !out.empty();
  }

  void Close() override {}
  bool distinct() const override { return true; }  // Normalized merge.

 private:
  ExecContext& ctx_;
  std::size_t arity_;
  std::vector<std::unique_ptr<BatchIterator>> inputs_;
  PartitionPlanFn plan_;
  core::Relation result_;
  std::size_t pos_ = 0;
};

/// The partition count an operator configured with `configured` uses
/// under `ctx`: an explicit count wins (1 pins the operator serial — the
/// cost model's "don't partition this site" decision), 0 defers to the
/// run's worker-pool width (1 when the run is serial).
std::size_t ResolvePartitions(std::size_t configured, const ExecContext& ctx);

}  // namespace setalg::engine

#endif  // SETALG_ENGINE_PARALLEL_H_
