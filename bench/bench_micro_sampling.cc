// Micro-benchmarks for the samplers: end-to-end sample-build throughput per
// method at a 1% rate, and approximate query answering.
#include <benchmark/benchmark.h>

#include "bench/bench_threading.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/cube.h"
#include "src/exec/group_index.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/senate_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"

namespace cvopt {
namespace {

const Table& BenchTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 500'000;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

QuerySpec TargetQuery() {
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  return q;
}

template <typename SamplerT>
void BM_SamplerBuild(benchmark::State& state) {
  const Table& t = BenchTable();
  SamplerT sampler;
  Rng rng(13);
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_SamplerBuild<UniformSampler>)->Name("BM_Build_Uniform");
BENCHMARK(BM_SamplerBuild<CongressSampler>)->Name("BM_Build_Congress");
BENCHMARK(BM_SamplerBuild<RlSampler>)->Name("BM_Build_RL");
BENCHMARK(BM_SamplerBuild<CvoptSampler>)->Name("BM_Build_CVOPT");

// The 4 grouping sets of a 2-attribute cube sharing two aggregates (the
// Table 4 MAMG shape): the statistics stage collects each of the two value
// streams once for the whole workload, not once per grouping set.
template <typename SamplerT>
void BM_SamplerBuildCube(benchmark::State& state) {
  const Table& t = BenchTable();
  QuerySpec base = TargetQuery();
  base.aggregates = {AggSpec::Sum("value"), AggSpec::Sum("latitude")};
  const std::vector<QuerySpec> cube = ExpandCube(base);
  SamplerT sampler;
  Rng rng(13);
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, cube, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_SamplerBuildCube<RlSampler>)->Name("BM_Build_RLCube");
BENCHMARK(BM_SamplerBuildCube<CvoptSampler>)->Name("BM_Build_CVOPTCube");

void BM_ApproxQuery(benchmark::State& state) {
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(17);
  auto sample =
      std::move(sampler.Build(t, {TargetQuery()}, t.num_rows() / 100, &rng))
          .ValueOrDie();
  const QuerySpec q = TargetQuery();
  for (auto _ : state) {
    auto result = ExecuteApprox(sample, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * sample.size());
}
BENCHMARK(BM_ApproxQuery);

// ----------------------------------------------------- thread scaling

void BM_ApproxQueryParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(17);
  auto sample =
      std::move(sampler.Build(t, {TargetQuery()}, t.num_rows() / 100, &rng))
          .ValueOrDie();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const QuerySpec q = TargetQuery();
  for (auto _ : state) {
    auto result = ExecuteApprox(sample, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * sample.size());
}
BENCHMARK(BM_ApproxQueryParallel)->Apply(ThreadArgs)->UseRealTime();

void BM_BuildCvoptParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(13);
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BuildCvoptParallel)->Name("BM_Build_CVOPTParallel")->Apply(ThreadArgs)->UseRealTime();

// The draw phase in isolation (bucket-by-stratum + per-stratum reservoir
// draws on Rng::ForStratum streams), thread-scaled: the stratification and
// allocation are prebuilt, so this measures exactly the pass that the
// splittable RNG streams parallelized.
void BM_DrawStratifiedParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  static const auto* shared = [] {
    auto strat = Stratification::Build(BenchTable(), {"country", "parameter"});
    return new std::shared_ptr<const Stratification>(
        std::make_shared<Stratification>(std::move(strat).ValueOrDie()));
  }();
  static const auto* alloc = new std::vector<uint64_t>(
      EqualAllocation((*shared)->sizes(), BenchTable().num_rows() / 100));
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(19);
  for (auto _ : state) {
    auto sample = DrawStratified(t, *shared, *alloc, "bench", &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_DrawStratifiedParallel)->Apply(ThreadArgs)->UseRealTime();

// Streaming-router row throughput: the per-row packed dense-id probe of
// the streaming sampler.
void BM_StreamingRouterRoute(benchmark::State& state) {
  const Table& t = BenchTable();
  auto cols =
      std::move(GroupIndex::Resolve(t, {"country", "parameter"})).ValueOrDie();
  for (auto _ : state) {
    StreamGroupRouter router(&t, cols);
    uint64_t acc = 0;
    for (uint32_t r = 0; r < t.num_rows(); ++r) acc += router.Route(r);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StreamingRouterRoute);

// End-to-end streaming sampler build (route + stats + reservoir + replan).
void BM_StreamingCvoptBuild(benchmark::State& state) {
  const Table& t = BenchTable();
  StreamingCvoptSampler sampler(/*replan_interval=*/50000);
  Rng rng(23);
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StreamingCvoptBuild)->Name("BM_Build_CVOPTStream");

}  // namespace
}  // namespace cvopt
