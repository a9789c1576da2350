// exact_scan: the ground-truth path. One in-process caller runs fixed
// passes over four query classes:
//   lowcard     AQ2-AQ6 on the in-memory 2M-row OpenAQ table (7-1.7k groups)
//   highcard    a 6-key AVG on the same table (~160k groups), dominated by
//               result materialization
//   mapped_hot  B1+B2 through ExecuteGroupByMapped on the 1M-row Bikes v2
//               file, whose decoded chunks fit the chunk cache
//   mapped_cold AQ2-AQ5 through ExecuteGroupByMapped on the OpenAQ v2 file,
//               which does not fit, so most chunks are decoded again
// A latency sample is one pass over one class's query list, so no
// percentile falls between two query shapes of very different cost.
//
// The timed window runs a hot phase (lowcard, highcard, mapped_hot cycles)
// and then a cold phase (mapped_cold passes): the cold class evicts the hot
// class's chunks, so interleaving them would leave mapped_hot never hot.
// Each phase starts with one untimed pass of its mapped class to settle the
// cache.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "bench/harness.h"
#include "perfbench/common.h"
#include "perfbench/engine_stats.h"
#include "perfbench/trace.h"
#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/parallel.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/table/mapped_table.h"
#include "src/table/table_io.h"

namespace perfbench {

namespace {

using cvopt::GroupedAccumulators;
using cvopt::GroupIndex;
using cvopt::MappedTable;
using cvopt::QueryResult;
using cvopt::QuerySpec;
using cvopt::Table;

// Share of the timed window given to the hot phase; the rest goes to the
// cold phase. Chosen so both phases collect a similar number of passes.
constexpr double kHotShare = 0.4;
// Repetitions of each replayed query in the traced run's stage replay.
constexpr int kReplayReps = 5;

enum ClassId { kLowCard, kHighCard, kMappedHot, kMappedCold, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"lowcard", "highcard",
                                                  "mapped_hot", "mapped_cold"};

QuerySpec HighCard() {
  QuerySpec q;
  q.name = "HIGHCARD";
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {cvopt::AggSpec::Avg("value")};
  return q;
}

struct ClassQuery {
  QuerySpec spec;
  QueryResult ref;  // in-memory ExecuteExact answer computed in set-up
};

struct QueryClass {
  const Table* table = nullptr;         // in-memory classes
  const MappedTable* mapped = nullptr;  // mapped classes
  std::vector<ClassQuery> queries;
};

QueryResult ExactOrDie(const Table& table, const QuerySpec& q) {
  return std::move(cvopt::ExecuteExact(table, q)).ValueOrDie();
}

std::unique_ptr<MappedTable> WriteAndOpen(const Table& table,
                                          const std::string& path) {
  cvopt::Status st = cvopt::WriteTableFile(table, path);
  CVOPT_CHECK(st.ok(), st.ToString());
  return std::make_unique<MappedTable>(
      std::move(MappedTable::Open(path)).ValueOrDie());
}

struct State {
  explicit State(const RunConfig& config)
      : openaq(MakeOpenAq(config.seed)),
        bikes(MakeBikes(config.seed)),
        openaq_path(config.work_dir + "/openaq.v2"),
        bikes_path(config.work_dir + "/bikes.v2"),
        openaq_file(WriteAndOpen(openaq, openaq_path)),
        bikes_file(WriteAndOpen(bikes, bikes_path)) {
    namespace b = cvopt::bench;
    QueryClass& low = classes[kLowCard];
    low.table = &openaq;
    for (const QuerySpec& q : {b::Aq2(), b::Aq3(), b::Aq4(), b::Aq5(),
                               b::Aq6()}) {
      low.queries.push_back({q, ExactOrDie(openaq, q)});
    }
    QueryClass& high = classes[kHighCard];
    high.table = &openaq;
    high.queries.push_back({HighCard(), ExactOrDie(openaq, HighCard())});
    // Mapped answers are checked against the in-memory answers.
    QueryClass& hot = classes[kMappedHot];
    hot.mapped = bikes_file.get();
    for (const QuerySpec& q : {b::B1(), b::B2()}) {
      hot.queries.push_back({q, ExactOrDie(bikes, q)});
    }
    QueryClass& cold = classes[kMappedCold];
    cold.mapped = openaq_file.get();
    for (int i = 0; i < 4; ++i) cold.queries.push_back(low.queries[i]);
  }
  ~State() {
    openaq_file.reset();
    bikes_file.reset();
    std::remove(openaq_path.c_str());
    std::remove(bikes_path.c_str());
  }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  const Table openaq;
  const Table bikes;
  const std::string openaq_path;
  const std::string bikes_path;
  std::unique_ptr<MappedTable> openaq_file;
  std::unique_ptr<MappedTable> bikes_file;
  QueryClass classes[kNumClasses];
};

// Per-class pass times and the counter deltas the traced run reports.
struct LoopStats {
  std::vector<double> pass_ms[kNumClasses];  // real time in the engine calls
  std::vector<double> cpu_ms[kNumClasses];   // process CPU time, likewise
  EngineCounters counters[kNumClasses];      // summed over timed passes
  uint64_t queries = 0;
  double seconds = 0;

  // Sum over the classes of each class's median pass: one cycle of all four.
  static double SumOfMedians(
      const std::vector<double> (&per_class)[kNumClasses]) {
    double s = 0;
    for (const auto& v : per_class) s += Percentile(v, 0.5);
    return s;
  }
};

struct PassTimes {
  double seconds = 0;      // real time
  double cpu_seconds = 0;  // process CPU time
};

// One pass over a class's query list; checks every answer and returns the
// time spent inside the engine calls.
PassTimes RunPass(const QueryClass& qc, ClassId id, Tracer* tracer,
                  Tally* tally) {
  std::vector<cvopt::Result<QueryResult>> answers;
  answers.reserve(qc.queries.size());
  PassTimes times;
  {
    const double cpu_start = ProcessCpuSeconds();
    ScopedSpan pass(tracer, qc.mapped != nullptr ? "bench.mapped_pass"
                                                 : "bench.memory_pass");
    for (const ClassQuery& q : qc.queries) {
      if (qc.mapped != nullptr) {
        ScopedSpan span(tracer, "exec.execute_mapped");
        answers.push_back(cvopt::ExecuteGroupByMapped(*qc.mapped, q.spec));
      } else {
        ScopedSpan span(tracer, "exec.execute_exact");
        answers.push_back(cvopt::ExecuteExact(*qc.table, q.spec));
      }
    }
    times.seconds = pass.Close();
    times.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    const ClassQuery& q = qc.queries[i];
    std::string why;
    if (!answers[i].ok()) {
      why = answers[i].status().ToString();
    } else if (qc.mapped != nullptr
                   ? SameResultWithinTolerance(q.ref, *answers[i], &why)
                   : SameResultBits(q.ref, *answers[i], &why)) {
      tally->Ok();
      continue;
    }
    tally->Fail(std::string(kClassNames[id]) + " " + q.spec.name + ": " + why);
  }
  return times;
}

void TimedPass(const State& s, ClassId id, Tracer* tracer, LoopStats* stats,
               Tally* tally) {
  const EngineCounters before = ReadEngineCounters();
  const PassTimes t = RunPass(s.classes[id], id, tracer, tally);
  const EngineCounters delta = ReadEngineCounters().Since(before);
  stats->pass_ms[id].push_back(t.seconds * 1e3);
  stats->cpu_ms[id].push_back(t.cpu_seconds * 1e3);
  stats->counters[id].Add(delta);
  stats->queries += s.classes[id].queries.size();
}

LoopStats TimedLoop(const State& s, double seconds, Tracer* tracer,
                    Tally* tally) {
  LoopStats stats;
  const Clock::time_point start = Clock::now();
  const Clock::time_point hot_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds * kHotShare));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunPass(s.classes[kMappedHot], kMappedHot, nullptr, tally);
  do {
    for (ClassId id : {kLowCard, kHighCard, kMappedHot}) {
      TimedPass(s, id, tracer, &stats, tally);
    }
  } while (Clock::now() < hot_end);
  RunPass(s.classes[kMappedCold], kMappedCold, nullptr, tally);
  do {
    TimedPass(s, kMappedCold, tracer, &stats, tally);
  } while (Clock::now() < end);
  stats.seconds = SecondsSince(start);
  return stats;
}

// ---- Traced-run stage replay ---------------------------------------------

struct StageTimes {
  double select = 0, group_index = 0, accumulate = 0, finalize = 0,
         materialize = 0, whole = 0;
  size_t groups = 0;
  double stages() const {
    return select + group_index + accumulate + finalize + materialize;
  }
};

// Re-runs ExecuteExact's stages through their public calls, in its order,
// and checks the replayed answer against the reference.
StageTimes ReplayStages(const Table& table, const ClassQuery& q,
                        Tracer* tracer, Tally* tally) {
  StageTimes t;
  {
    ScopedSpan whole(tracer, "bench.whole");
    ScopedSpan span(tracer, "exec.execute_exact");
    QueryResult r = ExactOrDie(table, q.spec);
    t.whole = span.Close();
  }
  ScopedSpan root(tracer, "bench.stages");
  std::vector<uint32_t> sel;
  if (q.spec.where != nullptr) {
    ScopedSpan span(tracer, "expr.select");
    auto where = std::move(cvopt::CompilePredicateCached(table, q.spec.where))
                     .ValueOrDie();
    sel = cvopt::ParallelSelect(*where);
    t.select = span.Close();
  }
  std::unique_ptr<GroupIndex> gidx;
  {
    ScopedSpan span(tracer, "exec.group_index");
    gidx = std::make_unique<GroupIndex>(
        std::move(GroupIndex::Build(table, q.spec.group_by)).ValueOrDie());
    t.group_index = span.Close();
  }
  GroupedAccumulators acc;
  {
    ScopedSpan span(tracer, "exec.accumulate");
    acc = std::move(cvopt::AccumulateGrouped(
                        table, q.spec, *gidx,
                        q.spec.where != nullptr ? &sel : nullptr))
              .ValueOrDie();
    t.accumulate = span.Close();
  }
  std::vector<double> finals;
  {
    ScopedSpan span(tracer, "exec.finalize");
    finals = cvopt::FinalizeGrouped(q.spec.aggregates, &acc);
    t.finalize = span.Close();
  }
  std::vector<std::string> labels;
  for (const auto& a : q.spec.aggregates) labels.push_back(a.Label());
  QueryResult result(std::move(labels), q.spec.group_by);
  {
    ScopedSpan span(tracer, "exec.materialize");
    cvopt::Status st = result.IngestDense(*gidx, acc.cnt, finals);
    CVOPT_CHECK(st.ok(), st.ToString());
    t.materialize = span.Close();
  }
  t.groups = result.num_groups();
  std::string why;
  if (SameResultBits(q.ref, result, &why)) {
    tally->Ok();
  } else {
    tally->Fail("stage replay " + q.spec.name + ": " + why);
  }
  return t;
}

double FileMegabytes(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) * 1e-6;
}

// Columns a query reads: its group-by and aggregate columns plus every
// schema column named in its WHERE clause or COUNT_IF filters.
std::vector<size_t> TouchedColumns(const MappedTable& m, const QuerySpec& q) {
  std::string text;
  for (const std::string& g : q.group_by) text += g + " ";
  for (const auto& a : q.aggregates) {
    text += a.column + " ";
    if (a.filter != nullptr) text += a.filter->ToString() + " ";
  }
  if (q.where != nullptr) text += q.where->ToString();
  std::set<std::string> tokens;
  std::string cur;
  for (char c : text + " ") {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      cur += c;
    } else if (!cur.empty()) {
      tokens.insert(cur);
      cur.clear();
    }
  }
  std::vector<size_t> cols;
  for (size_t c = 0; c < m.num_columns(); ++c) {
    if (tokens.count(m.schema().field(c).name) != 0) cols.push_back(c);
  }
  return cols;
}

// MappedTable::GetChunk over every chunk of every column the class reads,
// right after a pass of that class: mean time per call and the decoded
// bytes of those chunks (the class's working set in the chunk cache).
struct ChunkSweep {
  double mean_us = 0;
  double decoded_mb = 0;
};

ChunkSweep SweepChunks(const State& s, ClassId id, Tracer* tracer,
                       Tally* tally) {
  const QueryClass& qc = s.classes[id];
  RunPass(qc, id, nullptr, tally);
  std::set<size_t> cols;
  for (const ClassQuery& q : qc.queries) {
    for (size_t c : TouchedColumns(*qc.mapped, q.spec)) cols.insert(c);
  }
  std::vector<double> us;
  ChunkSweep sweep;
  ScopedSpan root(tracer, "bench.get_chunk_sweep");
  for (size_t col : cols) {
    for (size_t chunk = 0; chunk < qc.mapped->num_chunks(); ++chunk) {
      ScopedSpan span(tracer, "table.get_chunk");
      auto decoded = qc.mapped->GetChunk(col, chunk);
      us.push_back(span.Close() * 1e6);
      if (decoded.ok()) {
        sweep.decoded_mb += static_cast<double>((*decoded)->byte_size()) * 1e-6;
      } else {
        tally->Fail("GetChunk: " + decoded.status().ToString());
      }
    }
  }
  sweep.mean_us = Mean(us);
  return sweep;
}

void AddNamed(const LoopStats& st, MetricMap* named) {
  for (int id = 0; id < kNumClasses; ++id) {
    const std::string n = kClassNames[id];
    (*named)[n + "_p50_ms"] = {Percentile(st.pass_ms[id], 0.5), "ms"};
    (*named)[n + "_p90_ms"] = {Percentile(st.pass_ms[id], 0.9), "ms"};
    (*named)[n + "_cpu_p50_ms"] = {Percentile(st.cpu_ms[id], 0.5), "ms"};
    (*named)[n + "_passes"] = {static_cast<double>(st.pass_ms[id].size()),
                               "count"};
  }
}

void AddEndToEnd(const LoopStats& st, MetricMap* e2e, MetricMap* named) {
  (*e2e)["cpu_p50_ms"] = {LoopStats::SumOfMedians(st.cpu_ms), "ms"};
  (*named)["cycle_p50_ms"] = {LoopStats::SumOfMedians(st.pass_ms), "ms"};
  (*named)["queries_per_s"] = {static_cast<double>(st.queries) / st.seconds,
                               "1/s"};
}

}  // namespace

WorkloadReport RunExactScan(const RunConfig& config) {
  WorkloadReport report;
  std::unique_ptr<State> state = SetUpRepeated<State>(
      [&] { return std::make_unique<State>(config); }, &report);
  const State& s = *state;
  Tally* tally = &report.tally;

  if (!config.trace) {
    const LoopStats st = TimedLoop(s, config.seconds, nullptr, tally);
    AddEndToEnd(st, &report.end_to_end, &report.named);
    AddNamed(st, &report.named);
    return report;
  }

  // Traced run: an untraced half, then the same loop recording spans, then
  // the per-stage replay.
  const LoopStats plain = TimedLoop(s, config.seconds / 2, nullptr, tally);
  Tracer loop_tracer;
  loop_tracer.SetRecording(true);
  const LoopStats traced =
      TimedLoop(s, config.seconds / 2, &loop_tracer, tally);
  loop_tracer.SetRecording(false);
  AddEndToEnd(plain, &report.end_to_end, &report.named);
  AddNamed(plain, &report.named);

  Tracer replay_tracer;
  replay_tracer.SetRecording(true);
  StageTimes pass;  // one in-memory pass: per-query medians, summed
  for (ClassId id : {kLowCard, kHighCard}) {
    for (const ClassQuery& q : s.classes[id].queries) {
      std::vector<StageTimes> reps;
      for (int r = 0; r < kReplayReps; ++r) {
        reps.push_back(ReplayStages(*s.classes[id].table, q, &replay_tracer,
                                    tally));
      }
      auto med = [&](double StageTimes::*f) {
        return FieldPercentile(reps, f, 0.5);
      };
      pass.select += med(&StageTimes::select);
      pass.group_index += med(&StageTimes::group_index);
      pass.accumulate += med(&StageTimes::accumulate);
      pass.finalize += med(&StageTimes::finalize);
      pass.materialize += med(&StageTimes::materialize);
      pass.whole += med(&StageTimes::whole);
      pass.groups += reps.front().groups;
    }
  }
  const ChunkSweep hot = SweepChunks(s, kMappedHot, &replay_tracer, tally);
  const ChunkSweep cold = SweepChunks(s, kMappedCold, &replay_tracer, tally);
  replay_tracer.SetRecording(false);

  MetricMap& L = report.per_layer;
  L["expr.select_ms"] = {pass.select * 1e3, "ms"};
  L["exec.group_index_ms"] = {pass.group_index * 1e3, "ms"};
  L["exec.accumulate_ms"] = {pass.accumulate * 1e3, "ms"};
  L["exec.finalize_ms"] = {pass.finalize * 1e3, "ms"};
  L["exec.materialize_ms"] = {pass.materialize * 1e3, "ms"};
  L["exec.groups"] = {static_cast<double>(pass.groups), "count"};
  L["exec.stage_coverage"] = {pass.stages() / pass.whole, "ratio"};

  EngineCounters memory = traced.counters[kLowCard];
  memory.Add(traced.counters[kHighCard]);
  L["exec.planner_sort_decisions"] = {
      static_cast<double>(memory.planner_sort) /
          static_cast<double>(traced.pass_ms[kLowCard].size()),
      "count"};
  L["expr.plan_cache_hit_rate"] = {memory.plan_cache_hit_rate(), "ratio"};
  for (ClassId id : {kMappedHot, kMappedCold}) {
    const std::string n = kClassNames[id];
    const EngineCounters& c = traced.counters[id];
    const double passes = static_cast<double>(traced.pass_ms[id].size());
    L["table.chunk_hit_rate." + n] = {c.chunk_hit_rate(), "ratio"};
    L["table.chunks_decoded." + n] = {
        static_cast<double>(c.chunk_misses) / passes, "count"};
    L["table.chunk_evictions." + n] = {
        static_cast<double>(c.chunk_evictions) / passes, "count"};
    L["table.zone_skip_frac." + n] = {c.zone_skip_frac(), "ratio"};
  }
  L["table.get_chunk_us.mapped_hot"] = {hot.mean_us, "us"};
  L["table.get_chunk_us.mapped_cold"] = {cold.mean_us, "us"};
  L["trace.overhead_pct"] = {(LoopStats::SumOfMedians(traced.cpu_ms) /
                                  LoopStats::SumOfMedians(plain.cpu_ms) -
                              1) * 100,
                             "%"};

  std::printf(
      "sizes: decoded chunks read by mapped_hot %.1f MB (bikes file %.1f MB), "
      "by mapped_cold %.1f MB (openaq file %.1f MB); chunk cache budget "
      "%.1f MB\n",
      hot.decoded_mb, FileMegabytes(s.bikes_path), cold.decoded_mb,
      FileMegabytes(s.openaq_path), cvopt::ChunkCacheBudgetBytes() * 1e-6);
  PrintStageCoverage("exec.stage_coverage", pass.stages() / pass.whole);
  PrintTrace("timed loop", loop_tracer, config, "loop");
  PrintTrace("stage replay", replay_tracer, config, "replay",
             {{"expr", pass.select},
              {"exec", pass.group_index + pass.accumulate + pass.finalize +
                           pass.materialize}});
  return report;
}

}  // namespace perfbench
