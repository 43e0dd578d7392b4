#include "stats/stats.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "util/check.h"

namespace setalg::stats {

std::uint64_t RangeWidth(core::Value lo, core::Value hi) {
  if (lo > hi) return 0;
  // Unsigned subtraction is well-defined for any pair of int64 values
  // (the signed difference overflows for e.g. lo = INT64_MIN, hi > 0).
  const std::uint64_t diff =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  return diff == std::numeric_limits<std::uint64_t>::max() ? diff : diff + 1;
}

std::uint64_t ColumnStats::Width() const {
  if (distinct == 0) return 0;
  return RangeWidth(min_value, max_value);
}

Histogram BuildHistogram(const std::vector<core::Value>& sorted_values,
                         std::size_t max_buckets) {
  Histogram h;
  if (sorted_values.empty() || max_buckets == 0) return h;
  h.min_value = sorted_values.front();
  h.total = sorted_values.size();
  const std::uint64_t depth = (h.total + max_buckets - 1) / max_buckets;
  std::uint64_t count = 0;
  std::uint64_t distinct = 0;
  for (std::size_t i = 0; i < sorted_values.size();) {
    // Runs of equal values go into one bucket whole, so a bucket boundary
    // is always a value boundary.
    std::size_t j = i;
    while (j < sorted_values.size() && sorted_values[j] == sorted_values[i]) ++j;
    count += j - i;
    ++distinct;
    if (count >= depth || j == sorted_values.size()) {
      h.upper.push_back(sorted_values[i]);
      h.counts.push_back(count);
      h.distincts.push_back(distinct);
      count = 0;
      distinct = 0;
    }
    i = j;
  }
  return h;
}

double Histogram::SelectivityLeq(core::Value v) const {
  if (total == 0 || v < min_value) return 0.0;
  double rows = 0.0;
  core::Value lower = min_value;
  for (std::size_t b = 0; b < buckets(); ++b) {
    if (v >= upper[b]) {
      rows += static_cast<double>(counts[b]);
      // upper[b] == INT64_MAX only in the last bucket (values ascend).
      if (upper[b] == std::numeric_limits<core::Value>::max()) break;
      lower = upper[b] + 1;
      continue;
    }
    const double width = static_cast<double>(RangeWidth(lower, upper[b]));
    const double covered = static_cast<double>(RangeWidth(lower, v));
    rows += static_cast<double>(counts[b]) *
            std::min(1.0, covered / std::max(1.0, width));
    break;
  }
  return rows / static_cast<double>(total);
}

double Histogram::DistinctLeq(core::Value v) const {
  if (total == 0 || v < min_value) return 0.0;
  double values = 0.0;
  core::Value lower = min_value;
  for (std::size_t b = 0; b < buckets(); ++b) {
    if (v >= upper[b]) {
      values += static_cast<double>(distincts[b]);
      if (upper[b] == std::numeric_limits<core::Value>::max()) break;
      lower = upper[b] + 1;
      continue;
    }
    const double width = static_cast<double>(RangeWidth(lower, upper[b]));
    const double covered = static_cast<double>(RangeWidth(lower, v));
    values += static_cast<double>(distincts[b]) *
              std::min(1.0, covered / std::max(1.0, width));
    break;
  }
  return values;
}

double Histogram::ExpectedFrequency() const {
  if (total == 0) return 0.0;
  double expected = 0.0;
  for (std::size_t b = 0; b < buckets(); ++b) {
    const double c = static_cast<double>(counts[b]);
    const double d = std::max(1.0, static_cast<double>(distincts[b]));
    expected += (c / static_cast<double>(total)) * (c / d);
  }
  return expected;
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  out << "hist{buckets=" << buckets() << ", total=" << total << ", efreq="
      << ExpectedFrequency() << "}";
  return out.str();
}

RelationStats ComputeRelationStats(const core::Relation& relation) {
  RelationStats stats;
  stats.arity = relation.arity();
  stats.cardinality = relation.size();
  stats.columns.resize(relation.arity());
  if (relation.empty() || relation.arity() == 0) return stats;

  // The storage is sorted lexicographically, so column 1 distincts (and
  // the group runs of a binary relation) fall out of run boundaries; the
  // other columns use a hash set each.
  std::vector<std::unordered_set<core::Value>> seen(relation.arity());
  for (std::size_t c = 1; c < relation.arity(); ++c) {
    seen[c].reserve(relation.size() * 2);
  }

  // Per-column value streams for the histograms: column 0 arrives sorted
  // (the storage is lexicographic), the others sort once after the scan.
  std::vector<std::vector<core::Value>> values(relation.arity());
  for (std::size_t c = 0; c < relation.arity(); ++c) {
    values[c].reserve(relation.size());
  }
  std::vector<core::Value> group_sizes;

  const bool binary = relation.arity() == 2;
  core::Value run_key = relation.tuple(0)[0];
  std::size_t run_length = 0;
  auto close_group = [&](std::size_t length) {
    if (!binary) return;
    GroupStats& g = stats.groups;
    ++g.num_groups;
    g.min_group_size =
        g.num_groups == 1 ? length : std::min(g.min_group_size, length);
    g.max_group_size = std::max(g.max_group_size, length);
    group_sizes.push_back(static_cast<core::Value>(length));
  };

  for (std::size_t i = 0; i < relation.size(); ++i) {
    core::TupleView t = relation.tuple(i);
    for (std::size_t c = 0; c < relation.arity(); ++c) {
      ColumnStats& col = stats.columns[c];
      if (i == 0) {
        col.min_value = col.max_value = t[c];
      } else {
        col.min_value = std::min(col.min_value, t[c]);
        col.max_value = std::max(col.max_value, t[c]);
      }
      if (c > 0) seen[c].insert(t[c]);
      values[c].push_back(t[c]);
    }
    if (t[0] != run_key) {
      ++stats.columns[0].distinct;
      close_group(run_length);
      run_key = t[0];
      run_length = 0;
    }
    ++run_length;
  }
  ++stats.columns[0].distinct;
  close_group(run_length);
  for (std::size_t c = 1; c < relation.arity(); ++c) {
    stats.columns[c].distinct = seen[c].size();
  }
  if (binary && stats.groups.num_groups > 0) {
    stats.groups.avg_group_size = static_cast<double>(stats.cardinality) /
                                  static_cast<double>(stats.groups.num_groups);
    std::sort(group_sizes.begin(), group_sizes.end());
    stats.groups.size_histogram = BuildHistogram(group_sizes);
  }
  for (std::size_t c = 0; c < relation.arity(); ++c) {
    if (c > 0) std::sort(values[c].begin(), values[c].end());
    stats.columns[c].histogram = BuildHistogram(values[c]);
  }
  return stats;
}

std::string RelationStats::ToString() const {
  std::ostringstream out;
  out << "card=" << cardinality;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out << " col" << c + 1 << "{distinct=" << columns[c].distinct
        << ", range=[" << columns[c].min_value << "," << columns[c].max_value
        << "], efreq=" << columns[c].histogram.ExpectedFrequency() << "}";
  }
  if (arity == 2) {
    out << " groups{n=" << groups.num_groups << ", size=" << groups.min_group_size
        << "/" << groups.avg_group_size << "/" << groups.max_group_size
        << ", " << groups.size_histogram.ToString() << "}";
  }
  return out.str();
}

VersionVector SnapshotVersions(const core::DatabaseView& db,
                               std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  VersionVector versions;
  versions.reserve(names.size());
  for (auto& name : names) {
    const std::uint64_t version = db.relation_version(name);
    versions.emplace_back(std::move(name), version);
  }
  return versions;
}

bool VersionsMatch(const core::DatabaseView& db, const VersionVector& versions) {
  for (const auto& [name, version] : versions) {
    if (db.relation_version(name) != version) return false;
  }
  return true;
}

VersionOrder CompareVersions(const core::DatabaseView& db,
                             const VersionVector& versions) {
  bool behind = false;
  bool ahead = false;
  for (const auto& [name, version] : versions) {
    const std::uint64_t current = db.relation_version(name);
    behind |= current > version;
    ahead |= current < version;
  }
  if (behind) return VersionOrder::kBehind;
  return ahead ? VersionOrder::kAhead : VersionOrder::kEqual;
}

bool VersionsAhead(const VersionVector& a, const VersionVector& b) {
  if (a.size() != b.size() || a == b) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second < b[i].second) return false;
  }
  return true;
}

DatabaseStats::DatabaseStats(const core::DatabaseView* db) : db_(db) {
  SETALG_CHECK(db != nullptr);
}

const RelationStats* DatabaseStats::Get(const std::string& name) const {
  if (!db_->schema().HasRelation(name)) return nullptr;
  const std::uint64_t version = db_->relation_version(name);
  auto it = cache_.find(name);
  if (it == cache_.end() || it->second.version != version) {
    Entry entry;
    entry.version = version;
    entry.stats = ComputeRelationStats(db_->relation(name));
    ++recompute_count_;
    it = cache_.insert_or_assign(name, std::move(entry)).first;
  }
  return &it->second.stats;
}

}  // namespace setalg::stats
