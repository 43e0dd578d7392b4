// serve-hot and serve-churn: an in-process setalgd server over a
// VersionedDatabase, driven by closed-loop clients over loopback TCP.
// serve-hot sends only statements whose results are cached, so the work
// is the protocol, SQL compilation, the cache lookup, serialization and
// the socket. serve-churn adds an open-loop writer, so commits
// invalidate results and every new snapshot recomputes statistics.
//
// The traced phases replay the same seeded statement streams (and
// writer) in-process, making the session's calls in the session's
// order, and time each call with a span.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/csv.h"
#include "datagen.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/expr.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/analyzer.h"
#include "txn/snapshot.h"
#include "workloads.h"

namespace setalg::perfbench {
namespace {

using engine::EngineOptions;

/// One answered statement: which pool entry, the snapshot version the
/// response names, and its digest.
struct Record {
  std::uint32_t stmt = 0;
  std::uint64_t version = 0;
  std::uint64_t digest = 0;
};

/// What one client (or replayed session) saw.
struct SessionLog {
  std::vector<double> latency_ms;
  /// Socket runs: latencies by the sub-window the response completed in.
  std::vector<LatencyHistogram> window_ms;
  /// Responses kept for a later check (serve-churn and replays).
  std::vector<Record> records;
  /// serve-hot sockets: the first digest seen per pool statement (0 =
  /// none), checked after the window; later responses must repeat it.
  std::vector<std::uint64_t> first_digest;
  std::size_t sent = 0;
  std::size_t errors = 0;      // ERR responses and transport failures.
  std::size_t mismatched = 0;  // Wrong version, or a digest that changed.
  std::size_t response_bytes = 0;  // Replays: framed response bytes built.
};

/// Rows the replay samples from serve-churn's responses for its check.
constexpr std::size_t kChurnCheckSample = 150;

/// Statements one replayed session makes at most per window, which
/// bounds the spans a traced run keeps in memory and writes out (a
/// result-hit statement takes about 20 µs in-process).
constexpr std::size_t kMaxReplayStatements = 10000;
constexpr std::size_t kSpansPerStatement = 12;

Clock::time_point After(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

ra::ExprPtr MustCompile(const std::string& statement, const core::Schema& schema) {
  auto expr = sql::Compile(statement, schema);
  if (!expr.ok()) {
    std::fprintf(stderr, "perfbench: statement does not compile: %s: %s\n",
                 statement.c_str(), expr.error().c_str());
    std::exit(2);
  }
  return *expr;
}

// The head, the statement pool, a started server and connected clients.
struct Serve {
  ServeShape shape;
  std::vector<std::string> pool;
  std::shared_ptr<txn::VersionedDatabase> head;
  std::unique_ptr<server::Server> server;
  std::vector<server::Client> clients;

  ~Serve() {
    for (auto& client : clients) client.Close();
    if (server != nullptr) server->Stop();
  }
};

// Builds the data, starts the server, connects the clients and sends
// every pool statement once, which computes the first snapshot's
// statistics and fills the plan and result caches.
std::unique_ptr<Serve> SetupServe(const RunConfig& config) {
  auto s = std::make_unique<Serve>();
  s->pool = MakeServeStatements(s->shape, config.seed);
  s->head = std::make_shared<txn::VersionedDatabase>(
      MakeServeDatabase(s->shape, config.seed));
  s->server = std::make_unique<server::Server>(s->head, EngineOptions::CostBased(), nullptr);
  auto port = s->server->Start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "perfbench: server start: %s\n", port.error().c_str());
    std::exit(2);
  }
  for (std::size_t c = 0; c < config.clients; ++c) {
    auto client = server::Client::Connect("127.0.0.1", *port);
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n", client.error().c_str());
      std::exit(2);
    }
    s->clients.push_back(std::move(*client));
  }
  for (const auto& statement : s->pool) {
    auto response = s->clients[0].Roundtrip("QUERY " + statement);
    if (!response.ok() || !response->header.ok) {
      std::fprintf(stderr, "perfbench: warm-up failed on %s: %s\n", statement.c_str(),
                   response.ok() ? response->header.error.c_str()
                                 : response.error().c_str());
      std::exit(2);
    }
  }
  return s;
}

// One client's closed loop until `deadline`: send, wait for the whole
// framed response, record. serve-churn keeps every response for a later
// check. serve-hot has no writes, so every response must name version 0
// and repeat the statement's first digest; the first digests are checked
// after the window, keeping the benchmark's memory constant.
void ClientLoop(server::Client* client, const std::vector<std::string>& pool,
                std::uint64_t seed, std::size_t index, Clock::time_point start,
                Clock::time_point deadline, bool churn, SessionLog* log) {
  Rng rng(SubSeed(seed, 1000 + index));
  const std::size_t windows = log->window_ms.size();
  const double window_ms = MillisBetween(start, deadline) / static_cast<double>(windows);
  std::this_thread::sleep_until(start);
  while (Clock::now() < deadline) {
    const auto stmt = static_cast<std::uint32_t>(rng.Below(pool.size()));
    const std::string line = "QUERY " + pool[stmt];
    const auto t0 = Clock::now();
    auto response = client->Roundtrip(line);
    const auto t1 = Clock::now();
    ++log->sent;
    const auto w = static_cast<std::size_t>(MillisBetween(start, t1) / window_ms);
    log->window_ms[std::min(w, windows - 1)].Record(MillisBetween(t0, t1));
    if (!response.ok()) {
      std::fprintf(stderr, "perfbench: transport failure: %s\n", response.error().c_str());
      ++log->errors;
      return;  // The session is gone.
    }
    std::uint64_t digest = 0;
    if (!response->header.ok || !ParseHexDigest(response->header.digest, &digest)) {
      std::fprintf(stderr, "perfbench: ERR on %s: %s\n", pool[stmt].c_str(),
                   response->header.error.c_str());
      ++log->errors;
      continue;
    }
    if (churn) {
      log->records.push_back({stmt, response->header.version, digest});
      continue;
    }
    std::uint64_t& first = log->first_digest[stmt];
    if (first == 0) first = digest;
    if (response->header.version != 0 || digest != first) {
      if (++log->mismatched <= 5) {
        std::fprintf(stderr, "perfbench: MISMATCH serve-hot v%llu %s: got digest %016llx\n",
                     static_cast<unsigned long long>(response->header.version),
                     pool[stmt].c_str(), static_cast<unsigned long long>(digest));
      }
    }
  }
}

// The digest of every pool statement on `snap`, from a cache-free serial
// engine.
std::vector<std::uint64_t> ExpectedDigests(const std::vector<std::string>& pool,
                                           const txn::Snapshot& snap) {
  const engine::Engine reference(EngineOptions::CostBased());
  std::vector<std::uint64_t> expected(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    auto run = reference.Run(MustCompile(pool[i], snap.schema()), snap);
    expected[i] = run.ok() ? server::RelationDigest(run->relation) : 0;
  }
  return expected;
}

// serve-hot's responses against the digests of a cache-free serial
// engine on a fresh head from the same seed (version 0): the first
// digest per statement of socket sessions, every kept record of replays.
void CheckHot(const ServeShape& shape, std::uint64_t seed,
              const std::vector<std::string>& pool, const std::vector<SessionLog>& logs,
              DigestCheck* check) {
  txn::VersionedDatabase fresh(MakeServeDatabase(shape, seed));
  const std::vector<std::uint64_t> expected = ExpectedDigests(pool, *fresh.snapshot());
  for (const SessionLog& log : logs) {
    for (std::size_t i = 0; i < log.first_digest.size(); ++i) {
      if (log.first_digest[i] == 0) continue;
      check->Expect(expected[i], log.first_digest[i], [&] { return "serve-hot " + pool[i]; });
    }
    for (const Record& r : log.records) {
      check->Expect(expected[r.stmt], r.version == 0 ? r.digest : 0, [&] {
        return "serve-hot v" + std::to_string(r.version) + " " + pool[r.stmt];
      });
    }
  }
}

// Replays the seeded commit sequence on a fresh head and checks a seeded
// sample of serve-churn's (version, statement, digest) records through a
// cache-free serial engine on the matching snapshot.
void CheckChurn(const ServeShape& shape, std::uint64_t seed,
                const std::vector<std::string>& pool, const std::vector<SessionLog>& logs,
                std::size_t sample, DigestCheck* check) {
  std::vector<Record> all;
  for (const SessionLog& log : logs) all.insert(all.end(), log.records.begin(), log.records.end());
  Rng rng(SubSeed(seed, 77));
  for (std::size_t i = 0; i < all.size() && i < sample; ++i) {
    std::swap(all[i], all[i + rng.Below(all.size() - i)]);
  }
  all.resize(std::min(sample, all.size()));
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.version != b.version ? a.version < b.version : a.stmt < b.stmt;
  });

  txn::VersionedDatabase head(MakeServeDatabase(shape, seed));
  const engine::Engine reference(EngineOptions::CostBased());
  std::uint64_t version = 0;
  for (const Record& r : all) {
    while (version < r.version) {
      const Commit commit = ChurnCommit(shape, seed, version);
      head.Mutate(commit.relation, commit.change);
      ++version;
    }
    const txn::SnapshotPtr snap = head.snapshot();
    auto run = reference.Run(MustCompile(pool[r.stmt], snap->schema()), *snap);
    check->Expect(run.ok() ? server::RelationDigest(run->relation) : 0, r.digest, [&] {
      return "serve-churn v" + std::to_string(r.version) + " " + pool[r.stmt];
    });
  }
}

// Latency samples of every replayed session, merged.
std::vector<double> Merged(const std::vector<SessionLog>& logs) {
  std::vector<double> out;
  for (const SessionLog& log : logs) {
    out.insert(out.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  return out;
}

// Runs the clients (and, for serve-churn, the writer) for `seconds` over
// sockets, each statement landing in one of `windows` equal sub-windows.
// Returns the writer's samples (empty without a writer).
WriterSamples SocketWindow(Serve* s, const RunConfig& config, double seconds,
                           std::size_t windows, bool churn, std::vector<SessionLog>* logs) {
  logs->assign(s->clients.size(), SessionLog{});
  for (SessionLog& log : *logs) {
    log.window_ms.resize(windows);
    log.first_digest.assign(s->pool.size(), 0);
  }
  const auto start = After(Clock::now(), 0.005);
  const auto deadline = After(start, seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < s->clients.size(); ++c) {
    threads.emplace_back(ClientLoop, &s->clients[c], std::cref(s->pool), config.seed, c,
                         start, deadline, churn, &(*logs)[c]);
  }
  WriterSamples writer;
  if (churn) {
    SteadyWriterClock clock;
    writer = RunOpenLoopWriter(clock, start, kCommitPeriod, deadline, [&](std::size_t k) {
      const Commit commit = ChurnCommit(s->shape, config.seed, k);
      s->head->Mutate(commit.relation, commit.change);
    });
  }
  for (auto& t : threads) t.join();
  return writer;
}

}  // namespace

void AddQuantile(std::vector<Metric>* metrics, const std::string& name,
                 const Quantile& q, const std::string& unit) {
  if (!q.supported()) {
    std::fprintf(stderr,
                 "perfbench: warning: %s rests on %zu samples with only %zu beyond it\n",
                 name.c_str(), q.samples, q.beyond);
  }
  metrics->push_back({name, q.value, unit});
}

void AddStatementMetrics(std::vector<Metric>* metrics,
                         const std::vector<LatencyHistogram>& windows,
                         const std::vector<double>& window_s, double steal) {
  const WindowSummary summary = SummarizeWindows(windows, window_s);
  std::printf("sub-window p50 ms:");
  for (const auto& w : windows) std::printf(" %.4g", w.Percentile(0.5).value);
  std::printf("\ncpu steal during the window: %.1f%%\n", steal * 100);
  if (summary.unsupported_tails > 0) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu of %zu sub-windows have fewer than %zu samples "
                 "beyond their p90\n",
                 summary.unsupported_tails, summary.windows, kMinTailSamples);
  }
  metrics->push_back({"stmt_ms_p50", summary.p50_ms, "ms"});
  metrics->push_back({"stmt_ms_p90", summary.p90_ms, "ms"});
  metrics->push_back({"stmt_per_s", summary.per_s, "1/s"});
}

RunOutput RunServe(const RunConfig& config, bool churn) {
  const char* name = churn ? "serve-churn" : "serve-hot";
  RunOutput out;
  std::vector<double> setup_s;
  auto t0 = Clock::now();
  std::unique_ptr<Serve> s = SetupServe(config);
  setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);

  const std::size_t windows = SubWindows(config.seconds);
  std::vector<SessionLog> logs;
  const CpuTicks ticks = ReadCpuTicks();
  const WriterSamples writer =
      SocketWindow(s.get(), config, config.seconds, windows, churn, &logs);
  std::vector<LatencyHistogram> window_ms(windows);
  std::size_t statements = 0;
  for (const SessionLog& log : logs) {
    out.attempted += log.sent;
    out.failed += log.errors + log.mismatched;
    for (std::size_t w = 0; w < windows; ++w) {
      window_ms[w].Merge(log.window_ms[w]);
      statements += log.window_ms[w].count();
    }
  }
  AddStatementMetrics(&out.metrics, window_ms,
                      std::vector<double>(windows, config.seconds / windows),
                      StealShare(ticks, ReadCpuTicks()));
  if (churn) {
    AddQuantile(&out.metrics, "commit_ms_p50", Percentile(writer.latency_ms, 0.5), "ms");
    AddQuantile(&out.metrics, "commit_ms_p90", Percentile(writer.latency_ms, 0.9), "ms");
    std::printf("serve-churn writer: %zu commits, lateness p50 %.3f ms, max %.3f ms\n",
                writer.latency_ms.size(), Median(writer.lateness_ms),
                writer.lateness_ms.empty()
                    ? 0.0
                    : *std::max_element(writer.lateness_ms.begin(),
                                        writer.lateness_ms.end()));
  }
  out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  // Every server thread and client socket is released before the checks
  // and the remaining set-ups.
  const ServeShape shape = s->shape;
  const std::vector<std::string> pool = s->pool;
  s.reset();
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    t0 = Clock::now();
    SetupServe(config);
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
  }
  out.metrics.insert(out.metrics.begin(), {"setup_s", Median(setup_s), "s"});

  DigestCheck check;
  if (churn) {
    CheckChurn(shape, config.seed, pool, logs, kChurnCheckSample, &check);
  } else {
    CheckHot(shape, config.seed, pool, logs, &check);
  }
  out.failed += check.mismatched();
  out.correct = out.failed == 0;
  std::printf("%s: %zu statements from %zu clients; %llu failed (ERR, transport or "
              "wrong digest); stmt_fail_ratio %.6f\n",
              name, statements, logs.size(), static_cast<unsigned long long>(out.failed),
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  return out;
}

namespace {

// The in-process replay: the server's per-session calls, made by the
// benchmark itself so each can be timed. Caches are built exactly as
// Server builds them and shared by the sessions' engines.
struct Replay {
  ServeShape shape;
  std::vector<std::string> pool;
  std::vector<std::vector<std::string>> reads;  // Relations each statement reads.
  std::shared_ptr<txn::VersionedDatabase> head;
  EngineOptions options;

  // Benchmark bookkeeping, not program state: which (snapshot version,
  // relation) pairs already have statistics, and the versions each
  // statement's cached result was computed at (to predict result hits).
  std::mutex mu;
  std::set<std::pair<std::uint64_t, std::string>> stats_done;
  std::map<std::uint32_t, std::vector<std::uint64_t>> cached_at;

  std::size_t mispredicted = 0;  // Guarded by mu.
};

std::vector<std::uint64_t> VersionsOf(const txn::Snapshot& snap,
                                      const std::vector<std::string>& names) {
  std::vector<std::uint64_t> out;
  out.reserve(names.size());
  for (const auto& name : names) out.push_back(snap.relation_version(name));
  return out;
}

std::unique_ptr<Replay> SetupReplay(const RunConfig& config) {
  auto r = std::make_unique<Replay>();
  r->pool = MakeServeStatements(r->shape, config.seed);
  r->head = std::make_shared<txn::VersionedDatabase>(
      MakeServeDatabase(r->shape, config.seed));
  r->options = EngineOptions::CostBased().WithSharedCaches(
      std::make_shared<engine::SharedPlanCache>(256, 0),
      std::make_shared<engine::ResultCache>(256, std::size_t{64} << 20));
  const txn::SnapshotPtr snap = r->head->snapshot();
  const engine::Engine engine(r->options);
  for (std::size_t i = 0; i < r->pool.size(); ++i) {
    const ra::ExprPtr expr = MustCompile(r->pool[i], snap->schema());
    r->reads.push_back(ra::CollectRelationNames(*expr));
    if (!engine.Run(expr, *snap).ok()) {
      std::fprintf(stderr, "perfbench: replay warm-up failed on %s\n", r->pool[i].c_str());
      std::exit(2);
    }
    r->cached_at[static_cast<std::uint32_t>(i)] = VersionsOf(*snap, r->reads[i]);
    for (const auto& name : r->reads[i]) r->stats_done.insert({snap->version(), name});
  }
  return r;
}

// One session's statements until `deadline`, in the server's call order:
// ParseRequest → snapshot() → sql::Compile → Snapshot::Get (when the
// statement will plan) → Engine::Run → RelationDigest/WriteRelationCsv →
// FormatOkHeader, then the client's ParseResponseHeader. `log` may be
// null (the untraced base of the overhead figure). `between`, if set,
// makes the writes due before each statement, outside its timing.
void ReplaySession(Replay* r, std::uint64_t seed, std::size_t index,
                   Clock::time_point start, Clock::time_point deadline, SpanLog* log,
                   SessionLog* out,
                   const std::function<void()>& between) {
  const engine::Engine engine(r->options);
  Rng rng(SubSeed(seed, 1000 + index));
  std::uint64_t id = static_cast<std::uint64_t>(index) << 40;
  const bool writes = static_cast<bool>(between);
  std::this_thread::sleep_until(start);
  while (Clock::now() < deadline && out->sent < kMaxReplayStatements) {
    if (writes) between();
    const auto stmt = static_cast<std::uint32_t>(rng.Below(r->pool.size()));
    const std::string line = "QUERY " + r->pool[stmt];
    ++id;
    ++out->sent;
    const auto t0 = Clock::now();
    bool ok = false;
    std::uint64_t version = 0, digest = 0;
    {
      ScopedSpan statement(log, "serve.stmt", "", id);
      util::Result<server::Request> request =
          util::Result<server::Request>::Error("not parsed");
      {
        ScopedSpan span(log, "protocol.parse_request", "", id);
        request = server::ParseRequest(line);
      }
      txn::SnapshotPtr snap;
      {
        ScopedSpan span(log, "txn.snapshot", "", id);
        snap = r->head->snapshot();
      }
      util::Result<ra::ExprPtr> expr = util::Result<ra::ExprPtr>::Error("not compiled");
      {
        ScopedSpan span(log, "sql.compile", "", id);
        if (request.ok()) expr = sql::Compile(request->statement, snap->schema());
      }
      // Without writes every statement is a result hit after the warm-up,
      // and the prediction bookkeeping would only add to the statement.
      std::vector<std::uint64_t> versions;
      bool predicted_hit = true;
      if (writes) {
        versions = VersionsOf(*snap, r->reads[stmt]);
        std::lock_guard<std::mutex> lock(r->mu);
        predicted_hit = r->cached_at[stmt] == versions;
      }
      if (!predicted_hit) {
        for (const auto& name : r->reads[stmt]) {
          bool first = false;
          {
            std::lock_guard<std::mutex> lock(r->mu);
            first = r->stats_done.insert({snap->version(), name}).second;
          }
          ScopedSpan span(log, "stats.get", first ? "first" : "warm", id);
          snap->Get(name);
        }
      }
      util::Result<engine::RunResult> run =
          util::Result<engine::RunResult>::Error("not run");
      {
        ScopedSpan span(log, "engine.run", "", id);
        if (expr.ok()) run = engine.Run(*expr, *snap);
        if (log != nullptr && run.ok()) {
          log->SetTag(span.index(), engine::CacheOutcomeToString(run->stats.cache));
        }
      }
      if (run.ok()) {
        version = snap->version();
        const bool hit = run->stats.cache == engine::CacheOutcome::kResultHit;
        if (writes || predicted_hit != hit) {
          std::lock_guard<std::mutex> lock(r->mu);
          if (predicted_hit != hit) ++r->mispredicted;
          if (writes) r->cached_at[stmt] = versions;
        }
      }
      std::string csv;
      {
        ScopedSpan span(log, "server.serialize", "", id);
        if (run.ok()) {
          digest = server::RelationDigest(run->relation);
          csv = core::WriteRelationCsv(run->relation, nullptr);
        }
      }
      std::string header;
      std::string response;
      {
        ScopedSpan span(log, "protocol.format", "", id);
        if (run.ok()) {
          header = server::FormatOkHeader(run->relation.size(), version, digest,
                                          engine::CacheOutcomeToString(run->stats.cache));
          response = header + "\n" + csv + server::kTerminator + "\n";
        }
      }
      {
        ScopedSpan span(log, "protocol.parse_response", "", id);
        auto parsed = server::ParseResponseHeader(header);
        ok = run.ok() && parsed.ok() && parsed->ok;
      }
      out->response_bytes += response.size();
    }
    const auto t1 = Clock::now();
    out->latency_ms.push_back(MillisBetween(t0, t1));
    if (ok) {
      out->records.push_back({stmt, version, digest});
    } else {
      ++out->errors;
    }
  }
}

// Runs the replayed sessions for `seconds`; one span log per session
// when `tracer` is non-null. With `churn`, one session makes the writer's
// due commits between its statements instead of a concurrent writer:
// concurrent readers of a freshly published relation race in its lazy
// normalization (ROADMAP's first open item) and read corrupted rows, so
// the churn layers are measured without concurrency (see README.md).
void ReplayWindow(Replay* r, const RunConfig& config, double seconds, bool churn,
                  Tracer* tracer, std::vector<SessionLog>* logs) {
  const std::size_t sessions = churn ? 1 : config.clients;
  logs->assign(sessions, SessionLog{});
  std::vector<SpanLog*> spans(sessions, nullptr);
  if (tracer != nullptr) {
    for (std::size_t c = 0; c < sessions; ++c) {
      spans[c] = tracer->NewLog("session-" + std::to_string(c));
      spans[c]->Reserve(kMaxReplayStatements * kSpansPerStatement);
    }
  }
  const auto start = After(Clock::now(), 0.005);
  const auto deadline = After(start, seconds);
  if (churn) {
    std::size_t next = 0;
    const auto commit_due = [&] {
      while (start + kCommitPeriod * static_cast<Clock::rep>(next) <= Clock::now()) {
        ScopedSpan span(spans[0], "txn.commit", "", 0);
        const Commit commit = ChurnCommit(r->shape, config.seed, next++);
        r->head->Mutate(commit.relation, commit.change);
      }
    };
    ReplaySession(r, config.seed, 0, start, deadline, spans[0], &(*logs)[0],
                  commit_due);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < sessions; ++c) {
      threads.emplace_back(ReplaySession, r, config.seed, c, start, deadline, spans[c],
                           &(*logs)[c], std::function<void()>());
    }
    for (auto& t : threads) t.join();
  }
}

// Statement durations and per-statement sums of the named child spans,
// plus the share of statement time the child spans cover.
struct StatementView {
  std::vector<double> statement_ms;
  std::vector<double> protocol_ms;
  std::vector<double> serialize_ms;
  std::size_t statements = 0;
  std::size_t cold = 0;
  double covered_ms = 0.0;
  double total_ms = 0.0;
};

StatementView ViewStatements(const Tracer& tracer) {
  StatementView v;
  for (const auto& log : tracer.logs()) {
    const auto& spans = log->spans();
    const std::vector<double> self = log->SelfMillis();
    double protocol = 0.0, serialize = 0.0;
    bool cold = false;
    const auto flush = [&](const Span& statement) {
      v.statement_ms.push_back(statement.millis());
      v.protocol_ms.push_back(protocol);
      v.serialize_ms.push_back(serialize);
      v.total_ms += statement.millis();
      ++v.statements;
      if (cold) ++v.cold;
    };
    const Span* open = nullptr;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      if (name == "serve.stmt") {
        if (open != nullptr) flush(*open);
        open = &s;
        protocol = serialize = 0.0;
        cold = false;
        continue;
      }
      if (s.parent == kNoParent) continue;
      v.covered_ms += self[i];
      if (name.rfind("protocol.", 0) == 0) protocol += s.millis();
      if (name == "server.serialize") serialize += s.millis();
      if (name == "stats.get" && std::string(s.tag) == "first") cold = true;
    }
    if (open != nullptr) flush(*open);
  }
  return v;
}

double Ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

void AddCounts(const std::vector<SessionLog>& logs, RunOutput* out) {
  for (const SessionLog& log : logs) {
    out->attempted += log.sent;
    out->failed += log.errors + log.mismatched;
  }
}

}  // namespace

void TraceServeHot(const RunConfig& config, double seconds, Tracer* tracer,
                   RunOutput* out) {
  // The replays stop early at their statement cap; the socket window
  // that gives the wire figure's base gets the rest of the phase.
  const auto phase_start = Clock::now();
  std::vector<SessionLog> untraced, traced;
  std::size_t mispredicted = 0;
  {
    auto r = SetupReplay(config);
    ReplayWindow(r.get(), config, seconds / 4, false, nullptr, &untraced);
    ReplayWindow(r.get(), config, seconds / 4, false, tracer, &traced);
    DigestCheck check;
    CheckHot(r->shape, config.seed, r->pool, traced, &check);
    CheckHot(r->shape, config.seed, r->pool, untraced, &check);
    out->failed += check.mismatched();
    mispredicted = r->mispredicted;
  }
  AddCounts(untraced, out);
  AddCounts(traced, out);

  double socket_p50_ms = 0.0;
  {
    auto s = SetupServe(config);
    std::vector<SessionLog> logs;
    const double left = seconds - MillisBetween(phase_start, Clock::now()) / 1e3;
    SocketWindow(s.get(), config, std::max(seconds / 4, left), 1, false, &logs);
    LatencyHistogram all;
    for (const SessionLog& log : logs) all.Merge(log.window_ms[0]);
    socket_p50_ms = all.Percentile(0.5).value;
    AddCounts(logs, out);
    DigestCheck check;
    CheckHot(s->shape, config.seed, s->pool, logs, &check);
    out->failed += check.mismatched();
  }

  const StatementView v = ViewStatements(*tracer);
  const double traced_p50 = Median(v.statement_ms);
  auto& m = out->metrics;
  m.push_back({"server.protocol_us_p50", Median(v.protocol_ms) * 1e3, "us"});
  m.push_back({"sql.compile_us_p50", Median(tracer->Durations("sql.compile")) * 1e3, "us"});
  m.push_back({"engine.run_us_p50.result_hit",
               Median(tracer->Durations("engine.run", "result-hit")) * 1e3, "us"});
  m.push_back({"server.serialize_us_p50", Median(v.serialize_ms) * 1e3, "us"});
  std::size_t response_bytes = 0;
  for (const SessionLog& log : traced) response_bytes += log.response_bytes;
  m.push_back({"server.response_bytes_mean",
               Ratio(response_bytes, v.statements), "count"});
  m.push_back({"server.wire_us_p50", (socket_p50_ms - traced_p50) * 1e3, "us"});
  m.push_back({"trace.overhead_ratio.serve_hot",
               traced_p50 / Median(Merged(untraced)) - 1.0, "ratio"});
  m.push_back({"trace.coverage.serve_hot", v.covered_ms / v.total_ms, "ratio"});
  std::printf("serve-hot replay: %zu traced statements, %zu result-hit predictions missed\n",
              v.statements, mispredicted);
}

void TraceServeChurn(const RunConfig& config, double seconds, Tracer* tracer,
                     RunOutput* out) {
  auto r = SetupReplay(config);
  std::vector<SessionLog> logs;
  ReplayWindow(r.get(), config, seconds, true, tracer, &logs);
  AddCounts(logs, out);
  DigestCheck check;
  CheckChurn(r->shape, config.seed, r->pool, logs, kChurnCheckSample / 3, &check);
  out->failed += check.mismatched();

  const StatementView v = ViewStatements(*tracer);
  std::size_t outcomes[6] = {};
  std::vector<double> executed_ms;
  for (const auto& log : tracer->logs()) {
    for (const Span& s : log->spans()) {
      if (std::string(s.name) != "engine.run") continue;
      const std::string tag = s.tag;
      static const char* const kOutcomes[] = {"uncached", "miss", "hit",
                                              "revalidated", "repicked", "result-hit"};
      for (std::size_t i = 0; i < 6; ++i) {
        if (tag == kOutcomes[i]) ++outcomes[i];
      }
      if (tag != "result-hit") executed_ms.push_back(s.millis());
    }
  }
  const std::size_t planned = outcomes[1] + outcomes[2] + outcomes[3] + outcomes[4];
  auto& m = out->metrics;
  m.push_back({"txn.snapshot_us_p90",
               Percentile(tracer->Durations("txn.snapshot"), 0.9).value * 1e3, "us"});
  m.push_back({"stats.compute_ms_p50", Median(tracer->Durations("stats.get", "first")),
               "ms"});
  m.push_back({"stats.cold_stmt_ratio", Ratio(v.cold, v.statements), "ratio"});
  m.push_back({"engine.run_ms_p50.executed", Median(executed_ms), "ms"});
  m.push_back({"engine.result_cache.hit_ratio", Ratio(outcomes[5], v.statements), "ratio"});
  m.push_back({"engine.plan_cache.hit_ratio", Ratio(outcomes[2], planned), "ratio"});
  m.push_back({"engine.plan_cache.revalidated_ratio", Ratio(outcomes[3], planned), "ratio"});
  m.push_back({"engine.plan_cache.repicked_ratio", Ratio(outcomes[4], planned), "ratio"});
  m.push_back({"engine.plan_cache.miss_ratio", Ratio(outcomes[1], planned), "ratio"});
  m.push_back({"trace.coverage.serve_churn", v.covered_ms / v.total_ms, "ratio"});
  std::printf("serve-churn replay: %zu traced statements, %zu result-hit predictions "
              "missed, %zu sampled checks\n",
              v.statements, r->mispredicted, check.checked());
}

}  // namespace setalg::perfbench
