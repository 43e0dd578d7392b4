#include "engine/parallel.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace setalg::engine {
namespace {

// Values SplitKeys samples from a column other than column 1: enough for
// balanced cuts at any pool width, cheap next to the partition pass.
constexpr std::size_t kSplitSample = 1024;

}  // namespace

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

std::vector<core::Value> SplitKeys(const core::Relation& relation, std::size_t column,
                                   std::size_t parts) {
  SETALG_CHECK(parts >= 1);
  SETALG_CHECK(column >= 1 && column <= relation.arity());
  const std::size_t n = relation.size();
  std::vector<core::Value> split(parts - 1, core::Value{0});
  if (n == 0) return split;
  if (column == 1) {
    for (std::size_t p = 1; p < parts; ++p) {
      split[p - 1] = relation.tuple(p * n / parts)[0];
    }
    return split;
  }
  const std::size_t samples = std::min(n, kSplitSample);
  std::vector<core::Value> sample(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    sample[i] = relation.tuple(i * n / samples)[column - 1];
  }
  std::sort(sample.begin(), sample.end());
  for (std::size_t p = 1; p < parts; ++p) split[p - 1] = sample[p * samples / parts];
  return split;
}

std::vector<core::Relation> PartitionByColumn(const core::Relation& relation,
                                              std::size_t column,
                                              const std::vector<core::Value>& split) {
  SETALG_CHECK(column >= 1 && column <= relation.arity());
  SETALG_DCHECK(std::is_sorted(split.begin(), split.end()));
  const std::size_t arity = relation.arity();
  std::vector<core::Relation> out;
  out.reserve(split.size() + 1);
  for (std::size_t p = 0; p <= split.size(); ++p) out.emplace_back(arity);
  const std::size_t n = relation.size();
  if (column == 1) {
    // Column 1 is the sort key: partition p is the slice of rows from the
    // first key >= split[p - 1] to the first key >= split[p].
    const core::Value* rows = relation.flat().data();
    const auto first_at_least = [&](core::Value key) {
      std::size_t lo = 0, hi = n;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (rows[mid * arity] < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    };
    std::size_t begin = 0;
    for (std::size_t p = 0; p <= split.size(); ++p) {
      const std::size_t end = p < split.size() ? first_at_least(split[p]) : n;
      out[p].AddRows(rows + begin * arity, end - begin);
      begin = end;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const core::TupleView row = relation.tuple(i);
      const auto it = std::upper_bound(split.begin(), split.end(), row[column - 1]);
      out[static_cast<std::size_t>(it - split.begin())].Add(row);
    }
  }
  // Rows were copied in sorted input order, so each partition is already
  // sorted and duplicate-free: normalization is the no-op fast path.
  for (auto& partition : out) partition.Normalize();
  return out;
}

core::Relation ConcatenatePartitions(const std::vector<core::Relation>& outputs,
                                     std::size_t arity) {
  std::size_t total = 0;
  for (const auto& output : outputs) total += output.size();
  core::Relation merged(arity);
  merged.Reserve(total);
  for (const auto& output : outputs) {
    if (output.empty()) continue;
    if (arity == 0) {
      merged.Add(output.tuple(0));  // {()}: the one zero-ary tuple.
    } else {
      merged.AddRows(output.flat().data(), output.size());
    }
  }
  merged.Normalize();  // A linear check for key-leading outputs (see header).
  return merged;
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
  result_ = ConcatenatePartitions(outputs, arity_);
  ctx_.CountPartitions(tasks.size());
  pos_ = 0;
}

std::size_t ResolvePartitions(std::size_t configured, const ExecContext& ctx) {
  if (configured != 0) return configured;
  return ctx.threads();
}

}  // namespace setalg::engine
