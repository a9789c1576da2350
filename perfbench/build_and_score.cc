// build_and_score: the offline phase. Each cycle builds the CVOPT samples for
// the paper's Table 4 targets (SASG / MASG / SAMG / MAMG on OpenAQ at 1% and
// on Bikes at 5%); a latency sample is the time to build one cycle's eight
// samples. After each build, outside the timed span, the target's
// evaluation queries are answered from the sample and scored against the
// exact answers computed in set-up, so a perf change that costs accuracy
// shows in the same run.
//
// Draws cycle through kDraws seed-derived RNG seeds per target. The first
// time a draw is built its sample digest and error report are recorded;
// every later build of the same draw must reproduce the digest bit for bit.
// The reported average error pools exactly those kDraws reports per target,
// so it does not depend on how many cycles fit in the run.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "bench/harness.h"
#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "src/core/cvopt_allocator.h"
#include "src/core/stratification.h"
#include "src/exec/aggregate.h"
#include "src/exec/group_index.h"
#include "src/stats/stats_collector.h"
#include "src/util/hash.h"

namespace perfbench {

namespace {

using cvopt::ErrorReport;
using cvopt::QueryResult;
using cvopt::QuerySpec;
using cvopt::StratifiedSample;
using cvopt::Table;

constexpr int kDraws = 3;
// Untimed cycles before the timed window (lazy pools and allocators).
constexpr int kSettleCycles = 2;
// Repetitions of each target in the traced run's stage replay.
constexpr int kReplayReps = 5;

struct Target {
  std::string name;
  const Table* table = nullptr;
  uint64_t budget = 0;
  std::vector<QuerySpec> queries;  // build targets and evaluation queries
  std::vector<QueryResult> truth;  // exact answers, one per query
  uint64_t draw_seed[kDraws] = {};
  // Filled by the first build of each draw.
  std::optional<uint64_t> digest[kDraws];
  ErrorReport report[kDraws];
};

uint64_t SampleDigest(const StratifiedSample& s) {
  uint64_t h = cvopt::HashMix64(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    uint64_t w;
    std::memcpy(&w, &s.weights()[i], sizeof(w));
    h = cvopt::HashCombine(cvopt::HashCombine(h, s.rows()[i]), w);
  }
  return h;
}

struct State {
  explicit State(const RunConfig& config)
      : openaq(MakeOpenAq(config.seed)),
        bikes(MakeBikes(config.seed)) {
    namespace b = cvopt::bench;
    using cvopt::ExpandCube;
    auto add = [&](const std::string& name, const Table& table, double rate,
                   std::vector<QuerySpec> queries) {
      Target t;
      t.name = name;
      t.table = &table;
      t.budget = static_cast<uint64_t>(rate * table.num_rows());
      t.queries = std::move(queries);
      for (const QuerySpec& q : t.queries) {
        t.truth.push_back(std::move(cvopt::ExecuteExact(table, q)).ValueOrDie());
      }
      for (int d = 0; d < kDraws; ++d) {
        t.draw_seed[d] = DeriveSeed(config.seed,
                                   kDrawStream + targets.size() * 16 + d);
      }
      targets.push_back(std::move(t));
    };
    add("openaq.SASG", openaq, 0.01, {b::Aq3()});
    add("openaq.MASG", openaq, 0.01, {b::Aq2()});
    add("openaq.SAMG", openaq, 0.01, ExpandCube(b::Aq7Base()));
    add("openaq.MAMG", openaq, 0.01, ExpandCube(b::Aq8Base()));
    add("bikes.SASG", bikes, 0.05, {b::B2()});
    add("bikes.MASG", bikes, 0.05, {b::B1()});
    add("bikes.SAMG", bikes, 0.05, ExpandCube(b::B3Base()));
    add("bikes.MAMG", bikes, 0.05, ExpandCube(b::B4Base()));
  }

  const Table openaq;
  const Table bikes;
  std::vector<Target> targets;
};

// Answers the target's queries from the sample and pools their errors.
cvopt::Result<ErrorReport> Score(const Target& t, const StratifiedSample& s,
                                 Tracer* tracer) {
  std::vector<ErrorReport> reports;
  for (size_t i = 0; i < t.queries.size(); ++i) {
    cvopt::Result<QueryResult> approx = cvopt::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "estimate.approx");
      approx = cvopt::ExecuteApprox(s, t.queries[i]);
    }
    if (!approx.ok()) return approx.status();
    ScopedSpan span(tracer, "estimate.compare");
    CVOPT_ASSIGN_OR_RETURN(ErrorReport r,
                           cvopt::CompareResults(t.truth[i], *approx));
    reports.push_back(std::move(r));
  }
  return cvopt::MergeReports(reports);
}

struct LoopStats {
  std::vector<double> cycle_ms;      // real time of each cycle's builds
  std::vector<double> cycle_cpu_ms;  // process CPU time, likewise
  uint64_t builds = 0;
  double seconds = 0;
};

struct CycleTimes {
  double seconds = 0;      // real time
  double cpu_seconds = 0;  // process CPU time
};

// Builds, checks and scores every target once with draw `cycle % kDraws`;
// returns the summed build time.
CycleTimes RunCycle(State* s, uint64_t cycle, Tracer* tracer, Tally* tally) {
  const int d = static_cast<int>(cycle % kDraws);
  const cvopt::CvoptSampler sampler;
  CycleTimes build;
  for (Target& t : s->targets) {
    cvopt::Rng rng(t.draw_seed[d]);
    cvopt::Result<StratifiedSample> sample = cvopt::Status::Internal("unset");
    {
      const double cpu_start = ProcessCpuSeconds();
      ScopedSpan span(tracer, "sample.build");
      sample = sampler.Build(*t.table, t.queries, t.budget, &rng);
      build.seconds += span.Close();
      build.cpu_seconds += ProcessCpuSeconds() - cpu_start;
    }
    if (!sample.ok()) {
      tally->Fail(t.name + " build: " + sample.status().ToString());
      continue;
    }
    const uint64_t digest = SampleDigest(*sample);
    if (t.digest[d].has_value()) {
      if (*t.digest[d] == digest) {
        tally->Ok();
      } else {
        tally->Fail(t.name + ": draw " + std::to_string(d) +
                    " is not reproducible from its seed");
      }
    }
    cvopt::Result<ErrorReport> report = Score(t, *sample, tracer);
    if (!report.ok()) {
      tally->Fail(t.name + " score: " + report.status().ToString());
      continue;
    }
    if (!t.digest[d].has_value()) {
      tally->Ok();
      t.digest[d] = digest;
      t.report[d] = std::move(report).value();
      t.report[d].exhaustive_strata = sample->num_exhaustive_strata();
      t.report[d].total_strata = sample->stratification()->num_strata();
    }
  }
  return build;
}

LoopStats TimedLoop(State* s, double seconds, uint64_t* cycle, Tracer* tracer,
                    Tally* tally) {
  LoopStats st;
  const Clock::time_point start = Clock::now();
  do {
    const CycleTimes t = RunCycle(s, (*cycle)++, tracer, tally);
    st.cycle_ms.push_back(t.seconds * 1e3);
    st.cycle_cpu_ms.push_back(t.cpu_seconds * 1e3);
    st.builds += s->targets.size();
  } while (SecondsSince(start) < seconds);
  st.seconds = SecondsSince(start);
  return st;
}

void AddEndToEnd(const LoopStats& st, MetricMap* e2e) {
  (*e2e)["cpu_p50_ms"] = {Percentile(st.cycle_cpu_ms, 0.5), "ms"};
}

// Pooled error over every target's recorded draws.
ErrorReport Pooled(const State& s) {
  std::vector<ErrorReport> all;
  for (const Target& t : s.targets) {
    for (int d = 0; d < kDraws; ++d) all.push_back(t.report[d]);
  }
  ErrorReport pooled = cvopt::MergeReports(all);
  pooled.exhaustive_strata = pooled.total_strata = 0;
  for (const ErrorReport& r : all) {
    pooled.exhaustive_strata += r.exhaustive_strata;
    pooled.total_strata += r.total_strata;
  }
  return pooled;
}

struct StageTimes {
  double whole = 0, stratify = 0, collect = 0, plan = 0, draw = 0;
  // PlanCvoptAllocation minus this replay's stratify and collect times: the
  // solve is short, so timing noise can make a single figure slightly
  // negative.
  double allocate = 0;
  double group_index = 0;  // GroupIndex::Build over the strata attributes
  size_t strata = 0, rows = 0;
  double stages() const { return stratify + collect + allocate + draw; }
};

// Re-runs CvoptSampler::Build's stages through their public calls. The
// allocation solve has no public entry of its own, so its time is
// PlanCvoptAllocation minus a replay of the stratification and statistics
// passes it performs.
StageTimes ReplayStages(const Target& t, Tracer* tracer, Tally* tally) {
  StageTimes st;
  const cvopt::CvoptSampler sampler;
  uint64_t whole_digest = 0;
  {
    ScopedSpan root(tracer, "bench.whole");
    cvopt::Rng rng(t.draw_seed[0]);
    ScopedSpan span(tracer, "sample.build");
    whole_digest = SampleDigest(
        std::move(sampler.Build(*t.table, t.queries, t.budget, &rng))
            .ValueOrDie());
    st.whole = span.Close();
  }
  ScopedSpan root(tracer, "bench.stages");
  std::vector<std::vector<std::string>> attr_sets;
  for (const QuerySpec& q : t.queries) attr_sets.push_back(q.group_by);
  std::optional<cvopt::Stratification> strat;
  {
    ScopedSpan span(tracer, "core.stratify");
    strat.emplace(std::move(cvopt::Stratification::Build(
                                *t.table, cvopt::UnionAttrs(attr_sets)))
                      .ValueOrDie());
    st.stratify = span.Close();
  }
  st.strata = strat->num_strata();
  {
    ScopedSpan span(tracer, "stats.collect");
    for (const QuerySpec& q : t.queries) {
      auto bound = std::move(cvopt::BoundAggregates::Bind(*t.table,
                                                          q.aggregates))
                       .ValueOrDie();
      auto stats =
          std::move(cvopt::CollectGroupStats(*strat, bound.sources()))
              .ValueOrDie();
    }
    st.collect = span.Close();
  }
  std::optional<cvopt::AllocationPlan> plan;
  {
    ScopedSpan span(tracer, "core.plan");
    plan.emplace(std::move(cvopt::PlanCvoptAllocation(*t.table, t.queries,
                                                      t.budget))
                     .ValueOrDie());
    st.plan = span.Close();
  }
  st.allocate = st.plan - st.stratify - st.collect;
  {
    ScopedSpan span(tracer, "sample.draw");
    cvopt::Rng rng(t.draw_seed[0]);
    StratifiedSample s =
        std::move(cvopt::DrawStratified(*t.table, plan->strat,
                                        plan->allocation.sizes,
                                        sampler.name(), &rng))
            .ValueOrDie();
    st.draw = span.Close();
    st.rows = s.size();
    if (SampleDigest(s) == whole_digest && t.digest[0] == whole_digest) {
      tally->Ok();
    } else {
      tally->Fail(t.name + ": stage replay drew a different sample");
    }
  }
  root.Close();
  // The group-id build underneath Stratification::Build, on its own: not a
  // stage of the decomposition above.
  ScopedSpan gi_root(tracer, "bench.group_index");
  ScopedSpan span(tracer, "exec.group_index");
  auto gidx = cvopt::GroupIndex::Build(*t.table, strat->attrs());
  st.group_index = span.Close();
  if (!gidx.ok()) tally->Fail(t.name + ": " + gidx.status().ToString());
  return st;
}

}  // namespace

WorkloadReport RunBuildAndScore(const RunConfig& config) {
  WorkloadReport report;
  std::unique_ptr<State> state = SetUpRepeated<State>(
      [&] { return std::make_unique<State>(config); }, &report);
  State* s = state.get();
  Tally* tally = &report.tally;

  // Settle cycles also record the first draws' digests and errors; the
  // timed loop always runs at least one cycle per remaining draw.
  uint64_t cycle = 0;
  for (; cycle < kSettleCycles; ++cycle) RunCycle(s, cycle, nullptr, tally);
  Tracer loop_tracer;
  const LoopStats plain = TimedLoop(
      s, config.trace ? config.seconds / 2 : config.seconds, &cycle, nullptr,
      tally);
  while (cycle < kDraws) RunCycle(s, cycle++, nullptr, tally);
  AddEndToEnd(plain, &report.end_to_end);

  const ErrorReport pooled = Pooled(*s);
  MetricMap& N = report.named;
  N["build_p50_ms"] = {Percentile(plain.cycle_ms, 0.5), "ms"};
  N["build_p90_ms"] = {Percentile(plain.cycle_ms, 0.9), "ms"};
  N["builds_per_s"] = {static_cast<double>(plain.builds) / plain.seconds,
                       "1/s"};
  N["build_cycles"] = {static_cast<double>(plain.cycle_ms.size()), "count"};
  N["rel_err_avg"] = {pooled.AvgError(), "ratio"};
  if (!config.trace) return report;

  loop_tracer.SetRecording(true);
  const LoopStats traced =
      TimedLoop(s, config.seconds / 2, &cycle, &loop_tracer, tally);
  loop_tracer.SetRecording(false);

  Tracer replay_tracer;
  replay_tracer.SetRecording(true);
  StageTimes cycle_stages;  // per-target medians, summed over one cycle
  for (const Target& t : s->targets) {
    std::vector<StageTimes> reps;
    for (int r = 0; r < kReplayReps; ++r) {
      reps.push_back(ReplayStages(t, &replay_tracer, tally));
    }
    auto med = [&](double StageTimes::*f) {
      return FieldPercentile(reps, f, 0.5);
    };
    cycle_stages.whole += med(&StageTimes::whole);
    cycle_stages.stratify += med(&StageTimes::stratify);
    cycle_stages.collect += med(&StageTimes::collect);
    cycle_stages.allocate += med(&StageTimes::allocate);
    cycle_stages.draw += med(&StageTimes::draw);
    cycle_stages.group_index += med(&StageTimes::group_index);
    cycle_stages.strata += reps.front().strata;
    cycle_stages.rows += reps.front().rows;
  }
  replay_tracer.SetRecording(false);

  const double coverage = cycle_stages.stages() / cycle_stages.whole;
  MetricMap& L = report.per_layer;
  L["core.stratify_ms"] = {cycle_stages.stratify * 1e3, "ms"};
  L["core.strata"] = {static_cast<double>(cycle_stages.strata), "count"};
  L["exec.group_index_ms"] = {cycle_stages.group_index * 1e3, "ms"};
  L["stats.collect_ms"] = {cycle_stages.collect * 1e3, "ms"};
  L["core.allocate_ms"] = {cycle_stages.allocate * 1e3, "ms"};
  L["sample.draw_ms"] = {cycle_stages.draw * 1e3, "ms"};
  L["sample.rows"] = {static_cast<double>(cycle_stages.rows), "count"};
  L["sample.stage_coverage"] = {coverage, "ratio"};
  L["estimate.rel_err_avg"] = {pooled.AvgError(), "ratio"};
  L["estimate.missing_groups"] = {static_cast<double>(pooled.missing_groups),
                                  "count"};
  L["estimate.exhaustive_strata_frac"] = {
      static_cast<double>(pooled.exhaustive_strata) /
          static_cast<double>(pooled.total_strata),
      "ratio"};
  L["trace.overhead_pct"] = {(Percentile(traced.cycle_cpu_ms, 0.5) /
                                  Percentile(plain.cycle_cpu_ms, 0.5) -
                              1) * 100,
                             "%"};

  PrintStageCoverage("sample.stage_coverage", coverage);
  PrintTrace("timed loop", loop_tracer, config, "loop");
  PrintTrace("stage replay", replay_tracer, config, "replay",
             {{"core", cycle_stages.stratify + cycle_stages.allocate},
              {"stats", cycle_stages.collect},
              {"sample", cycle_stages.draw}});
  return report;
}

}  // namespace perfbench
