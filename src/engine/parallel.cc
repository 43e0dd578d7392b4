#include "engine/parallel.h"

#include <utility>

#include "setjoin/grouped.h"
#include "util/check.h"

namespace setalg::engine {

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void WorkerPool::Run(std::size_t count, const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SETALG_CHECK(task_ == nullptr);  // One Run at a time, never recursive.
    task_ = &task;
    count_ = count;
    next_ = 0;
    completed_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  // The calling thread works alongside the pool on the same index stream.
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_ >= count_) break;
      index = next_++;
    }
    task(index);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_ == count_; });
  task_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    while (next_ < count_) {
      const std::size_t index = next_++;
      const auto* task = task_;
      lock.unlock();
      (*task)(index);
      lock.lock();
      if (++completed_ == count_) done_cv_.notify_all();
    }
  }
}

std::vector<core::Relation> PartitionByColumn(const core::Relation& relation,
                                              std::size_t column,
                                              std::size_t partitions) {
  SETALG_CHECK(partitions >= 1);
  SETALG_CHECK(column >= 1 && column <= relation.arity());
  std::vector<core::Relation> out;
  out.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) out.emplace_back(relation.arity());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    const core::TupleView row = relation.tuple(i);
    out[setjoin::PartitionOfKey(row[column - 1], partitions)].Add(row);
  }
  // Rows were routed in sorted input order, so each partition is already
  // sorted and duplicate-free: normalization is the no-op fast path.
  for (auto& partition : out) partition.Normalize();
  return out;
}

void PartitionedIterator::Open() {
  std::vector<PartitionTask> tasks = plan_(inputs_);
  std::vector<core::Relation> outputs;
  outputs.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) outputs.emplace_back(arity_);
  WorkerPool* pool = ctx_.pool();
  if (pool != nullptr && tasks.size() > 1) {
    // Fan-out: each task writes only its own pre-sized slot, so the
    // output vector needs no synchronization beyond Run()'s completion.
    pool->Run(tasks.size(),
              [&](std::size_t i) { outputs[i] = tasks[i](); });
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) outputs[i] = tasks[i]();
  }
  // Fan-in on the calling thread, in partition-index order: partitions
  // hold disjoint key sets, so the concatenation is duplicate-free and
  // the normalized merge is identical across runs and thread counts.
  std::size_t total = 0;
  for (const auto& output : outputs) total += output.size();
  result_ = core::Relation(arity_);
  result_.Reserve(total);
  for (const auto& output : outputs) {
    if (!output.empty() && arity_ > 0) {
      result_.AddRows(output.flat().data(), output.size());
    } else if (!output.empty()) {
      for (std::size_t i = 0; i < output.size(); ++i) result_.Add(output.tuple(i));
    }
  }
  result_.Normalize();
  ctx_.CountPartitions(tasks.size());
  pos_ = 0;
}

std::size_t ResolvePartitions(std::size_t configured, const ExecContext& ctx) {
  if (configured != 0) return configured;
  return ctx.threads();
}

}  // namespace setalg::engine
