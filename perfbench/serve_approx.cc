// serve_approx: the online phase as a user sees it. An AqpServer with default
// options (except its socket path) serves one 2M-row OpenAQ table; nproc
// client connections run a closed loop, each sending its next approximate
// SQL query (1% sample) only after the previous reply arrived. Each client
// follows its own seed-derived sequence over a pool of queries from three
// workload classes, whose WHERE predicates vary per request:
//   (country, parameter, unit) AVG(value)        -- the AQ3 / AQ5 class
//   (country, month, year)     AVG(value)        -- the AQ4 class
//   (parameter, unit)          COUNT_IF(value>.5) -- the AQ6 class
// One shared sample per class answers every predicate (Section 6.3). The
// catalog is warmed in set-up, so every timed request is a catalog hit.
//
// Exact queries are deliberately not mixed in: their round trips are an
// order of magnitude longer and made the mixed loop's tail unsteady; the
// exact path has its own workload (exact_scan).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "perfbench/common.h"
#include "perfbench/engine_stats.h"
#include "perfbench/trace.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/server/aqp_server.h"
#include "src/server/client.h"
#include "src/sql/parser.h"
#include "src/util/string_util.h"

namespace perfbench {

namespace {

using cvopt::AqpClient;
using cvopt::AqpServer;
using cvopt::QueryRequestItem;
using cvopt::StrFormat;
using cvopt::Table;
using cvopt::WireResult;

constexpr double kRate = 0.01;
constexpr int kPoolPerClass = 16;
constexpr size_t kSequenceLength = 4096;
// Untimed requests each client sends before the timed window.
constexpr int kSettleRequests = 32;
// Repetitions of each pooled request in the traced run's layer replay.
constexpr int kReplayReps = 5;
constexpr const char* kTable = "openaq";

const char* const kParameters[] = {"co", "no2", "o3", "pm10", "pm25", "so2",
                                   "bc"};

// The request pool: kPoolPerClass predicates per class, drawn from `rng`.
std::vector<std::string> MakePool(cvopt::Rng* rng) {
  std::vector<std::string> pool;
  auto hours = [&] {
    const uint64_t lo = rng->Uniform(12);
    const uint64_t hi = lo + 4 + rng->Uniform(20 - lo);
    return StrFormat("hour BETWEEN %llu AND %llu",
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
  };
  for (int i = 0; i < kPoolPerClass; ++i) {
    // The SQL front end takes no negative literals, so southern cut-offs
    // are written as "<" of a positive latitude.
    const std::string where =
        i % 2 == 0 ? hours()
                   : StrFormat("latitude %s %.1f", i % 4 == 1 ? ">" : "<",
                               rng->UniformDouble(0, 45));
    pool.push_back("SELECT country, parameter, unit, AVG(value) FROM openaq "
                   "WHERE " + where + " GROUP BY country, parameter, unit");
  }
  for (int i = 0; i < kPoolPerClass; ++i) {
    std::string where = StrFormat("parameter = '%s'", kParameters[rng->Uniform(7)]);
    if (i % 2 == 1) where += " AND " + hours();
    pool.push_back("SELECT country, month, year, AVG(value) FROM openaq "
                   "WHERE " + where + " GROUP BY country, month, year");
  }
  for (int i = 0; i < kPoolPerClass; ++i) {
    // Countries are Zipf-skewed; the low indices hold most rows.
    pool.push_back(StrFormat(
        "SELECT parameter, unit, COUNT_IF(value > 0.5) FROM openaq "
        "WHERE country = 'C%02llu' GROUP BY parameter, unit",
        static_cast<unsigned long long>(rng->Uniform(12))));
  }
  return pool;
}

QueryRequestItem Item(const std::string& sql) {
  QueryRequestItem item;
  item.sql = sql;
  item.sample_rate = kRate;
  return item;
}

// The answer a request must get: ExecuteApprox in-process on the sample the
// server's own catalog holds for it.
WireResult ExpectedAnswer(AqpServer* server, const Table& table,
                          const std::string& sql) {
  const cvopt::ParsedQuery parsed =
      std::move(cvopt::ParseSql(sql)).ValueOrDie();
  bool hit = false;
  auto sample = std::move(server->catalog().GetOrBuild(table, parsed.query,
                                                       kRate, &hit))
                    .ValueOrDie();
  CVOPT_CHECK(hit, "catalog was not warmed for " + sql);
  return cvopt::FlattenResult(
      std::move(cvopt::ExecuteApprox(*sample, parsed.query)).ValueOrDie());
}

struct State {
  explicit State(const RunConfig& config)
      : openaq(MakeOpenAq(config.seed)),
        server([&] {
          cvopt::ServerOptions o;
          o.socket_path = config.work_dir + "/aqp.sock";
          return std::make_unique<AqpServer>(o);
        }()) {
    cvopt::Status st = server->RegisterTable(kTable, &openaq);
    if (st.ok()) st = server->Start();
    CVOPT_CHECK(st.ok(), st.ToString());
    cvopt::Rng rng(DeriveSeed(config.seed, kQueryPoolStream));
    pool = MakePool(&rng);
    // Warm the catalog through the server: the first request of each class
    // builds and publishes that class's shared sample.
    AqpClient client;
    st = client.Connect(server->options().socket_path);
    CVOPT_CHECK(st.ok(), st.ToString());
    for (int c = 0; c < 3; ++c) {
      auto resp = client.Query({Item(pool[c * kPoolPerClass])});
      CVOPT_CHECK(resp.ok() && resp->results.at(0).status.ok(),
                  "catalog warm-up request failed");
    }
    for (const std::string& sql : pool) {
      expected.push_back(ExpectedAnswer(server.get(), openaq, sql));
    }
    const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < clients; ++c) {
      cvopt::Rng seq_rng(DeriveSeed(config.seed, kClientStream + c));
      std::vector<uint32_t> seq(kSequenceLength);
      for (uint32_t& i : seq) i = static_cast<uint32_t>(seq_rng.Uniform(pool.size()));
      sequences.push_back(std::move(seq));
    }
  }
  ~State() { server->Stop(); }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  const Table openaq;
  std::unique_ptr<AqpServer> server;
  std::vector<std::string> pool;
  std::vector<WireResult> expected;              // per pool entry
  std::vector<std::vector<uint32_t>> sequences;  // per client, pool indices
};

// Host contention on a shared machine comes in bursts, so the run is cut
// into kWindowSeconds windows; each figure is computed per window and the
// run reports the median over windows.
constexpr double kWindowSeconds = 1.0;

struct LoopStats {
  std::vector<double> rtt_ms;
  std::vector<double> done_s;  // completion times, seconds into the window
  // Process CPU time (client and server together) at the start of the timed
  // window and at the end of each whole kWindowSeconds window in it.
  std::vector<double> window_cpu_s;
  double seconds = 0;
  double server_request_s = 0;  // aqp_request_latency sum over the window
  uint64_t server_requests = 0;
  uint64_t catalog_hits = 0, catalog_misses = 0;
  EngineCounters counters;
};

struct ClientResult {
  std::vector<double> rtt_ms;
  std::vector<double> done_s;
  Tally tally;
};

// One client's closed loop: sends, waits, checks, repeats until `end`.
void ClientLoop(const State& s, unsigned c, AqpClient* client,
                Clock::time_point start, Clock::time_point end, uint64_t* next,
                Tracer* tracer, ClientResult* out) {
  const std::vector<uint32_t>& seq = s.sequences[c];
  do {
    const uint32_t idx = seq[(*next)++ % seq.size()];
    cvopt::Result<cvopt::ResponseEnvelope> resp =
        cvopt::Status::Internal("unset");
    double rtt = 0;
    {
      ScopedSpan span(tracer, "server.client_query",
                      (static_cast<uint64_t>(c) << 32) | *next);
      resp = client->Query({Item(s.pool[idx])});
      rtt = span.Close();
    }
    std::string why;
    if (!resp.ok()) {
      why = resp.status().ToString();
    } else if (resp->results.size() != 1) {
      why = "reply has no result";
    } else if (!resp->results[0].status.ok()) {
      why = resp->results[0].status.ToString();
    } else if (resp->results[0].served_from != cvopt::ServedFrom::kCatalogHit) {
      why = "not served from the warmed catalog";
    } else if (SameWireResult(s.expected[idx], resp->results[0].result, &why)) {
      out->rtt_ms.push_back(rtt * 1e3);
      out->done_s.push_back(SecondsSince(start));
      out->tally.Ok();
      continue;
    }
    out->tally.Fail(s.pool[idx] + ": " + why);
  } while (Clock::now() < end);
}

LoopStats TimedLoop(const State& s, double seconds, Tracer* tracer,
                    Tally* tally) {
  const size_t n = s.sequences.size();
  std::vector<std::unique_ptr<AqpClient>> clients;
  std::vector<uint64_t> next(n, 0);
  std::vector<ClientResult> results(n);
  for (size_t c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<AqpClient>());
    cvopt::Status st = clients[c]->Connect(s.server->options().socket_path);
    CVOPT_CHECK(st.ok(), st.ToString());
  }

  // Settle: every connection sends a few untimed requests first.
  {
    std::vector<ClientResult> settle(n);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kSettleRequests; ++i) {
          ClientLoop(s, static_cast<unsigned>(c), clients[c].get(),
                     Clock::now(), Clock::now(), &next[c], nullptr,
                     &settle[c]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const ClientResult& r : settle) tally->Merge(r.tally);
  }

  const cvopt::ServerMetrics& m = s.server->metrics();
  const double req_s0 = m.request_latency.sum_seconds();
  const uint64_t req_n0 = m.request_latency.count();
  const uint64_t hits0 = s.server->catalog().hits();
  const uint64_t misses0 = s.server->catalog().misses();
  const EngineCounters counters0 = ReadEngineCounters();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  LoopStats st;
  st.window_cpu_s.push_back(ProcessCpuSeconds());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back(ClientLoop, std::cref(s), static_cast<unsigned>(c),
                           clients[c].get(), start, end, &next[c], tracer,
                           &results[c]);
    }
    for (Clock::time_point t = start + window; t <= end; t += window) {
      std::this_thread::sleep_until(t);
      st.window_cpu_s.push_back(ProcessCpuSeconds());
    }
    for (std::thread& th : threads) th.join();
  }
  if (st.window_cpu_s.size() == 1) {  // a run shorter than one window
    st.window_cpu_s.push_back(ProcessCpuSeconds());
  }
  st.seconds = SecondsSince(start);
  st.server_request_s = m.request_latency.sum_seconds() - req_s0;
  st.server_requests = m.request_latency.count() - req_n0;
  st.catalog_hits = s.server->catalog().hits() - hits0;
  st.catalog_misses = s.server->catalog().misses() - misses0;
  st.counters = ReadEngineCounters().Since(counters0);
  for (ClientResult& r : results) {
    st.rtt_ms.insert(st.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
    st.done_s.insert(st.done_s.end(), r.done_s.begin(), r.done_s.end());
    tally->Merge(r.tally);
  }
  return st;
}

struct WindowFigures {
  std::vector<double> qps, p50, p90, p99, cpu_ms;
};

WindowFigures PerWindow(const LoopStats& st) {
  // A run shorter than one window counts as one window.
  const bool short_run = st.seconds < kWindowSeconds;
  const size_t windows = st.window_cpu_s.size() - 1;
  std::vector<std::vector<double>> rtt(windows);
  for (size_t i = 0; i < st.rtt_ms.size(); ++i) {
    const size_t w =
        short_run ? 0 : static_cast<size_t>(st.done_s[i] / kWindowSeconds);
    if (w < windows) rtt[w].push_back(st.rtt_ms[i]);
  }
  WindowFigures f;
  for (size_t i = 0; i < rtt.size(); ++i) {
    const std::vector<double>& w = rtt[i];
    f.qps.push_back(static_cast<double>(w.size()) /
                    std::min(kWindowSeconds, st.seconds));
    if (w.empty()) continue;  // a stalled window has no latencies
    f.cpu_ms.push_back((st.window_cpu_s[i + 1] - st.window_cpu_s[i]) * 1e3 /
                       static_cast<double>(w.size()));
    f.p50.push_back(Percentile(w, 0.5));
    f.p90.push_back(Percentile(w, 0.9));
    f.p99.push_back(Percentile(w, 0.99));
  }
  return f;
}

void AddMetrics(const LoopStats& st, MetricMap* e2e, MetricMap* named) {
  const WindowFigures f = PerWindow(st);
  const double qps = Percentile(f.qps, 0.5);
  (*e2e)["cpu_p50_ms"] = {Percentile(f.cpu_ms, 0.5), "ms"};
  (*named)["serve_qps"] = {qps, "1/s"};
  (*named)["approx_p50_ms"] = {Percentile(f.p50, 0.5), "ms"};
  (*named)["approx_p90_ms"] = {Percentile(f.p90, 0.5), "ms"};
  (*named)["approx_p99_ms"] = {Percentile(f.p99, 0.5), "ms"};
  (*named)["window_qps_min"] = {*std::min_element(f.qps.begin(), f.qps.end()),
                                "1/s"};
  (*named)["window_qps_max"] = {*std::max_element(f.qps.begin(), f.qps.end()),
                                "1/s"};
  (*named)["approx_requests"] = {static_cast<double>(st.rtt_ms.size()),
                                 "count"};
}

// Per-request times of the layers a served request passes through, each
// through its public call, medians over kReplayReps.
struct LayerTimes {
  double parse = 0, lookup = 0, select = 0, approx = 0, encode = 0,
         decode = 0, bytes = 0;
};

LayerTimes ReplayLayers(State* s, Tracer* tracer, Tally* tally) {
  std::vector<LayerTimes> per_request;
  for (size_t idx = 0; idx < s->pool.size(); ++idx) {
    std::vector<LayerTimes> reps(kReplayReps);
    for (LayerTimes& t : reps) {
      ScopedSpan root(tracer, "bench.replay", idx);
      cvopt::ParsedQuery parsed;
      {
        ScopedSpan span(tracer, "sql.parse", idx);
        parsed = std::move(cvopt::ParseSql(s->pool[idx])).ValueOrDie();
        t.parse = span.Close();
      }
      std::shared_ptr<const cvopt::StratifiedSample> sample;
      {
        ScopedSpan span(tracer, "server.catalog_lookup", idx);
        sample = std::move(s->server->catalog().GetOrBuild(
                               s->openaq, parsed.query, kRate))
                     .ValueOrDie();
        t.lookup = span.Close();
      }
      cvopt::Result<cvopt::QueryResult> result =
          cvopt::Status::Internal("unset");
      {
        ScopedSpan span(tracer, "estimate.approx", idx);
        result = cvopt::ExecuteApprox(*sample, parsed.query);
        t.approx = span.Close();
      }
      CVOPT_CHECK(result.ok(), result.status().ToString());
      std::string payload;
      {
        ScopedSpan span(tracer, "protocol.encode", idx);
        cvopt::ResponseEnvelope resp;
        resp.request_id = idx;
        resp.results.resize(1);
        resp.results[0].served_from = cvopt::ServedFrom::kCatalogHit;
        resp.results[0].result = cvopt::FlattenResult(*result);
        cvopt::EncodeResponse(resp, &payload);
        t.encode = span.Close();
      }
      t.bytes = static_cast<double>(payload.size());
      cvopt::Result<cvopt::ResponseEnvelope> decoded =
          cvopt::Status::Internal("unset");
      {
        ScopedSpan span(tracer, "protocol.decode", idx);
        decoded = cvopt::DecodeResponse(payload);
        t.decode = span.Close();
      }
      root.Close();
      // The predicate selection inside ExecuteApprox, on its own; it is not
      // part of the request decomposition above.
      if (parsed.query.where != nullptr) {
        ScopedSpan span(tracer, "expr.select", idx);
        auto where = std::move(cvopt::CompilePredicateCached(
                                   s->openaq, parsed.query.where))
                         .ValueOrDie();
        std::vector<uint32_t> sel =
            where->SelectPositions(sample->rows().data(), sample->size());
        t.select = span.Close();
      }
      std::string why;
      if (decoded.ok() &&
          SameWireResult(s->expected[idx], decoded->results.at(0).result,
                         &why)) {
        tally->Ok();
      } else {
        tally->Fail("layer replay " + s->pool[idx] + ": " + why);
      }
    }
    auto med = [&](double LayerTimes::*f) {
      return FieldPercentile(reps, f, 0.5);
    };
    per_request.push_back({med(&LayerTimes::parse), med(&LayerTimes::lookup),
                           med(&LayerTimes::select), med(&LayerTimes::approx),
                           med(&LayerTimes::encode), med(&LayerTimes::decode),
                           med(&LayerTimes::bytes)});
  }
  // Mean over the pool: the served mix weighs every pooled query equally.
  auto mean = [&](double LayerTimes::*f) {
    std::vector<double> v;
    for (const LayerTimes& t : per_request) v.push_back(t.*f);
    return Mean(v);
  };
  return {mean(&LayerTimes::parse),  mean(&LayerTimes::lookup),
          mean(&LayerTimes::select), mean(&LayerTimes::approx),
          mean(&LayerTimes::encode), mean(&LayerTimes::decode),
          mean(&LayerTimes::bytes)};
}

}  // namespace

WorkloadReport RunServeApprox(const RunConfig& config) {
  WorkloadReport report;
  std::unique_ptr<State> state = SetUpRepeated<State>(
      [&] { return std::make_unique<State>(config); }, &report);
  Tally* tally = &report.tally;

  if (!config.trace) {
    const LoopStats st = TimedLoop(*state, config.seconds, nullptr, tally);
    AddMetrics(st, &report.end_to_end, &report.named);
    return report;
  }

  const LoopStats plain = TimedLoop(*state, config.seconds / 2, nullptr, tally);
  Tracer loop_tracer;
  loop_tracer.SetRecording(true);
  const LoopStats traced =
      TimedLoop(*state, config.seconds / 2, &loop_tracer, tally);
  loop_tracer.SetRecording(false);
  AddMetrics(plain, &report.end_to_end, &report.named);

  Tracer replay_tracer;
  replay_tracer.SetRecording(true);
  const LayerTimes lt = ReplayLayers(state.get(), &replay_tracer, tally);
  replay_tracer.SetRecording(false);

  const double exec_mean_s =
      traced.server_request_s / static_cast<double>(traced.server_requests);
  MetricMap& L = report.per_layer;
  L["sql.parse_us"] = {lt.parse * 1e6, "us"};
  L["server.catalog_lookup_us"] = {lt.lookup * 1e6, "us"};
  L["server.catalog_hit_rate"] = {
      static_cast<double>(traced.catalog_hits) /
          static_cast<double>(traced.catalog_hits + traced.catalog_misses),
      "ratio"};
  L["server.exec_mean_us"] = {exec_mean_s * 1e6, "us"};
  L["server.wait_mean_us"] = {(Mean(traced.rtt_ms) * 1e-3 - exec_mean_s) * 1e6,
                              "us"};
  L["protocol.encode_us"] = {lt.encode * 1e6, "us"};
  L["protocol.decode_us"] = {lt.decode * 1e6, "us"};
  L["protocol.response_bytes"] = {lt.bytes, "bytes"};
  L["estimate.approx_us"] = {lt.approx * 1e6, "us"};
  L["expr.select_ms"] = {lt.select * 1e3, "ms"};
  L["expr.plan_cache_hit_rate"] = {traced.counters.plan_cache_hit_rate(),
                                   "ratio"};
  L["trace.overhead_pct"] = {(Percentile(PerWindow(traced).cpu_ms, 0.5) /
                                  Percentile(PerWindow(plain).cpu_ms, 0.5) -
                              1) * 100,
                             "%"};

  const double n = static_cast<double>(state->pool.size());
  PrintTrace("timed loop", loop_tracer, config, "loop");
  PrintTrace("layer replay", replay_tracer, config, "replay",
             {{"sql", lt.parse * n},
              {"server", lt.lookup * n},
              {"estimate", lt.approx * n},
              {"protocol", (lt.encode + lt.decode) * n}});
  return report;
}

}  // namespace perfbench
