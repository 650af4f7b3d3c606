// Micro-benchmarks for the numeric substrate (google-benchmark): dense GEMM,
// sparse SpMM, GCN-normalized adjacency construction, PageRank, and row
// entropy. These are not paper experiments; they characterize the kernels
// every paper experiment runs on.

#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "memory/buffer_pool.h"
#include "memory/workspace.h"
#include "parallel/parallel_for.h"
#include "core/reliability.h"
#include "data/citation_gen.h"
#include "graph/generators.h"
#include "models/model_factory.h"
#include "nn/optimizer.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "graph/normalize.h"
#include "graph/pagerank.h"
#include "simd/simd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/random.h"
#include "util/runtime_flags.h"

namespace rdd {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.Data()[i] = static_cast<float>(rng->Gaussian());
  }
  return m;
}

void BM_DenseMatmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DenseMatmul)->Arg(64)->Arg(128)->Arg(256);

void BM_SparseSpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Graph graph = MakeErdosRenyiGraph(n, 10.0 / static_cast<double>(n), &rng);
  const SparseMatrix adj = GcnNormalizedAdjacency(graph);
  const Matrix h = RandomMatrix(n, 16, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 16);
}
BENCHMARK(BM_SparseSpMM)->Arg(1000)->Arg(4000);

/// Scoped thread-count override so sweep fixtures don't leak their setting
/// into later benchmarks.
class ThreadCountOverride {
 public:
  explicit ThreadCountOverride(int n) : saved_(parallel::NumThreads()) {
    parallel::SetNumThreads(n);
  }
  ~ThreadCountOverride() { parallel::SetNumThreads(saved_); }

 private:
  int saved_;
};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Thread-count sweeps at the shapes the acceptance bar names: GEMM at
// 512x512x512 and SpMM at Cora scale (2708 nodes, ~5% density adjacency,
// 16-dim features). Arg is the thread count; compare against Arg(1) for the
// speedup and against the pre-PR serial baseline for 1-thread overhead.

void BM_DenseMatmulThreads(benchmark::State& state) {
  ThreadCountOverride threads(static_cast<int>(state.range(0)));
  const int64_t n = 512;
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DenseMatmulThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads())
    ->UseRealTime();

void BM_SparseSpMMThreads(benchmark::State& state) {
  ThreadCountOverride threads(static_cast<int>(state.range(0)));
  const int64_t n = 2708;  // Cora node count.
  Rng rng(2);
  Graph graph = MakeErdosRenyiGraph(n, 10.0 / static_cast<double>(n), &rng);
  const SparseMatrix adj = GcnNormalizedAdjacency(graph);
  const Matrix h = RandomMatrix(n, 16, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 16);
}
BENCHMARK(BM_SparseSpMMThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads())
    ->UseRealTime();

void BM_SparseTransposeSpMMThreads(benchmark::State& state) {
  // The SpMM gradient kernel (scatter into output rows), parallelized over
  // input-row blocks with pool-backed partial outputs. Bit-identical at any
  // thread count; compare against Arg(1) for the speedup.
  ThreadCountOverride threads(static_cast<int>(state.range(0)));
  const int64_t n = 2708;  // Cora node count.
  Rng rng(2);
  Graph graph = MakeErdosRenyiGraph(n, 10.0 / static_cast<double>(n), &rng);
  const SparseMatrix adj = GcnNormalizedAdjacency(graph);
  const Matrix h = RandomMatrix(n, 16, &rng);
  memory::Workspace workspace;  // Recycle the partial buffers.
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.TransposeMultiply(h));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 16);
}
BENCHMARK(BM_SparseTransposeSpMMThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads())
    ->UseRealTime();

void BM_SoftmaxRowsThreads(benchmark::State& state) {
  ThreadCountOverride threads(static_cast<int>(state.range(0)));
  Rng rng(6);
  const Matrix logits = RandomMatrix(20000, 16, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(logits));
  }
  state.SetItemsProcessed(state.iterations() * logits.size());
}
BENCHMARK(BM_SoftmaxRowsThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(HardwareThreads())
    ->UseRealTime();

void BM_NormalizedAdjacency(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Graph graph = MakeErdosRenyiGraph(n, 10.0 / static_cast<double>(n), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GcnNormalizedAdjacency(graph));
  }
}
BENCHMARK(BM_NormalizedAdjacency)->Arg(1000)->Arg(4000);

void BM_PageRank(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Graph graph = MakeErdosRenyiGraph(n, 10.0 / static_cast<double>(n), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageRank(graph));
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(4000);

void BM_RowEntropy(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  const Matrix probs = SoftmaxRows(RandomMatrix(n, 7, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RowEntropy(probs));
  }
}
BENCHMARK(BM_RowEntropy)->Arg(10000);

void BM_GcnTrainingEpoch(benchmark::State& state) {
  // One full forward + backward + Adam step of the paper's base model on a
  // synthetic citation network of the given size.
  const int64_t n = state.range(0);
  CitationGenConfig config;
  config.num_nodes = n;
  config.num_features = 300;
  config.num_edges = n * 2;
  config.num_classes = 5;
  config.labeled_per_class = 10;
  config.val_size = n / 10;
  config.test_size = n / 5;
  const Dataset dataset = GenerateCitationNetwork(config, 6);
  const GraphContext context = GraphContext::FromDataset(dataset);
  auto model = BuildModel(context, ModelConfig{}, 1);
  Adam optimizer(model->Parameters(), 0.01f, 5e-4f);
  for (auto _ : state) {
    ModelOutput output = model->Forward(/*training=*/true);
    Variable loss = ag::SoftmaxCrossEntropy(output.logits, dataset.labels,
                                            dataset.split.train,
                                            ag::Reduction::kMean);
    loss.Backward();
    optimizer.Step();
    benchmark::DoNotOptimize(loss.value().At(0, 0));
  }
}
BENCHMARK(BM_GcnTrainingEpoch)->Arg(500)->Arg(2000);

/// Scoped override of the buffer pool's enabled flag, for pooled-vs-unpooled
/// comparisons in one process. Trims on entry and exit so each mode starts
/// from empty freelists.
class PoolModeOverride {
 public:
  explicit PoolModeOverride(bool enabled)
      : saved_(memory::BufferPool::Global().enabled()) {
    memory::BufferPool::Global().set_enabled(enabled);
    memory::BufferPool::Global().Trim();
  }
  ~PoolModeOverride() {
    memory::BufferPool::Global().set_enabled(saved_);
    memory::BufferPool::Global().Trim();
  }

 private:
  bool saved_;
};

void BM_GcnTrainingEpochPoolMode(benchmark::State& state) {
  // BM_GcnTrainingEpoch with the buffer pool toggled: second arg 1 is the
  // pooled default, 0 is the RDD_POOL_DISABLE=1 path where every tensor is
  // a fresh heap allocation. The heap_allocs_per_epoch counter is the pool's
  // miss count per iteration — ~0 pooled, hundreds unpooled — and
  // peak_live_MB is the high-water mark of outstanding tensor floats (the
  // live set), identical in both modes.
  const int64_t n = state.range(0);
  PoolModeOverride mode(state.range(1) == 1);
  memory::Workspace workspace;
  CitationGenConfig config;
  config.num_nodes = n;
  config.num_features = 300;
  config.num_edges = n * 2;
  config.num_classes = 5;
  config.labeled_per_class = 10;
  config.val_size = n / 10;
  config.test_size = n / 5;
  const Dataset dataset = GenerateCitationNetwork(config, 6);
  const GraphContext context = GraphContext::FromDataset(dataset);
  auto model = BuildModel(context, ModelConfig{}, 1);
  Adam optimizer(model->Parameters(), 0.01f, 5e-4f);
  auto run_epoch = [&] {
    ModelOutput output = model->Forward(/*training=*/true);
    Variable loss = ag::SoftmaxCrossEntropy(output.logits, dataset.labels,
                                            dataset.split.train,
                                            ag::Reduction::kMean);
    loss.Backward();
    optimizer.Step();
    benchmark::DoNotOptimize(loss.value().At(0, 0));
  };
  run_epoch();  // Warm the pool so steady-state misses are measured.
  memory::BufferPool::Global().ResetStats();
  for (auto _ : state) {
    run_epoch();
  }
  const memory::PoolStats stats = memory::Workspace::Stats();
  state.counters["heap_allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(stats.misses) /
      static_cast<double>(state.iterations()));
  state.counters["peak_live_MB"] = benchmark::Counter(
      static_cast<double>(stats.peak_live_floats) * sizeof(float) / 1e6);
}
BENCHMARK(BM_GcnTrainingEpochPoolMode)
    ->Args({500, 1})->Args({500, 0})
    ->Args({2000, 1})->Args({2000, 0});

/// Scoped metrics-enabled override so observability sweeps restore the
/// RDD_METRICS-derived default for later benchmarks.
class MetricsModeOverride {
 public:
  explicit MetricsModeOverride(bool enabled)
      : saved_(observe::MetricsEnabled()) {
    observe::SetMetricsEnabled(enabled);
  }
  ~MetricsModeOverride() { observe::SetMetricsEnabled(saved_); }

 private:
  bool saved_;
};

void BM_GcnTrainingEpochObserveMode(benchmark::State& state) {
  // The instrumentation-overhead bench behind the "<3% on a Cora-shape
  // epoch" acceptance bar (EXPERIMENTS.md "Observability overhead"). Arg 0
  // selects the citation shape (see kSweepShapes above: Cora / Citeseer /
  // Pubmed), arg 1 the observability mode: 0 = everything off (the
  // default), 1 = RDD_METRICS counters/histograms on, 2 = metrics plus an
  // active trace collecting a span per epoch. The three modes run the same
  // arithmetic — observability only reads — so any timing delta IS the
  // instrumentation cost.
  struct ObserveShape { int64_t nodes; int64_t features; };
  constexpr ObserveShape kShapes[] = {
      {2708, 1433},    // Cora
      {3327, 3703},    // Citeseer
      {19717, 500},    // Pubmed
  };
  const ObserveShape& shape = kShapes[state.range(0)];
  const int64_t mode = state.range(1);
  MetricsModeOverride metrics(mode >= 1);
  const bool trace = mode >= 2;
  if (trace) observe::StartTracing("micro_substrate_trace.json");
  memory::Workspace workspace;
  CitationGenConfig config;
  config.num_nodes = shape.nodes;
  config.num_features = shape.features;
  config.num_edges = shape.nodes * 2;
  config.num_classes = 5;
  config.labeled_per_class = 10;
  config.val_size = shape.nodes / 10;
  config.test_size = shape.nodes / 5;
  const Dataset dataset = GenerateCitationNetwork(config, 6);
  const GraphContext context = GraphContext::FromDataset(dataset);
  auto model = BuildModel(context, ModelConfig{}, 1);
  Adam optimizer(model->Parameters(), 0.01f, 5e-4f);
  for (auto _ : state) {
    observe::TraceSpan span("bench/epoch");
    ModelOutput output = model->Forward(/*training=*/true);
    Variable loss = ag::SoftmaxCrossEntropy(output.logits, dataset.labels,
                                            dataset.split.train,
                                            ag::Reduction::kMean);
    loss.Backward();
    optimizer.Step();
    benchmark::DoNotOptimize(loss.value().At(0, 0));
  }
  if (trace) observe::StopTracing();
}
BENCHMARK(BM_GcnTrainingEpochObserveMode)
    ->ArgNames({"shape", "observe"})
    ->Args({0, 0})->Args({0, 1})->Args({0, 2})
    ->Args({1, 0})->Args({1, 1})->Args({1, 2})
    ->Args({2, 0})->Args({2, 1})->Args({2, 2});

/// Scoped SIMD backend override for backend-sweep fixtures. Restores the
/// previous backend on destruction so later benchmarks see the dispatched
/// default again.
class SimdBackendOverride {
 public:
  explicit SimdBackendOverride(simd::Backend b)
      : saved_(simd::ActiveBackend()) {
    simd::SetBackend(b);
  }
  ~SimdBackendOverride() { simd::SetBackend(saved_); }

 private:
  simd::Backend saved_;
};

/// Arg 0 = forced scalar emulation, arg 1 = whatever the runtime dispatcher
/// picked at startup (AVX2 on FMA-capable x86-64, NEON on aarch64, scalar
/// otherwise). Every override restores on exit, so outside an override the
/// active backend IS the dispatched one.
simd::Backend BackendForArg(int64_t arg) {
  static const simd::Backend dispatched = simd::ActiveBackend();
  return arg == 0 ? simd::Backend::kScalar : dispatched;
}

/// Citation-benchmark shapes for the backend sweep: {nodes, features,
/// hidden} for Cora, Citeseer, and Pubmed. The GEMM is the layer-1 feature
/// transform X*W, the dominant dense cost of a GCN epoch.
struct SweepShape {
  int64_t nodes;
  int64_t features;
  int64_t hidden;
};
constexpr SweepShape kSweepShapes[] = {
    {2708, 1433, 16},   // Cora
    {3327, 3703, 6},    // Citeseer
    {19717, 500, 16},   // Pubmed
};

// Single-thread scalar-vs-dispatched sweeps; arg0 selects the backend (see
// BackendForArg), arg1 the dataset shape. The speedup table lives in
// EXPERIMENTS.md ("SIMD backend sweep").

void BM_GemmBackend(benchmark::State& state) {
  ThreadCountOverride threads(1);
  SimdBackendOverride backend(BackendForArg(state.range(0)));
  const SweepShape& s = kSweepShapes[state.range(1)];
  Rng rng(8);
  const Matrix x = RandomMatrix(s.nodes, s.features, &rng);
  const Matrix w = RandomMatrix(s.features, s.hidden, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() * s.nodes * s.features *
                          s.hidden);
}
BENCHMARK(BM_GemmBackend)
    ->ArgNames({"dispatched", "shape"})
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2});

void BM_SpmmBackend(benchmark::State& state) {
  ThreadCountOverride threads(1);
  SimdBackendOverride backend(BackendForArg(state.range(0)));
  const SweepShape& s = kSweepShapes[state.range(1)];
  Rng rng(9);
  Graph graph = MakeErdosRenyiGraph(
      s.nodes, 4.0 / static_cast<double>(s.nodes), &rng);
  const SparseMatrix adj = GcnNormalizedAdjacency(graph);
  const Matrix h = RandomMatrix(s.nodes, s.hidden, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(h));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * s.hidden);
}
BENCHMARK(BM_SpmmBackend)
    ->ArgNames({"dispatched", "shape"})
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2});

void BM_ElementwiseBackend(benchmark::State& state) {
  // Axpy (grad accumulate) on a nodes x features activation, the largest
  // elementwise operand of a training step.
  ThreadCountOverride threads(1);
  SimdBackendOverride backend(BackendForArg(state.range(0)));
  const SweepShape& s = kSweepShapes[state.range(1)];
  Rng rng(10);
  Matrix acc = RandomMatrix(s.nodes, s.features, &rng);
  const Matrix g = RandomMatrix(s.nodes, s.features, &rng);
  for (auto _ : state) {
    acc.Axpy(0.5f, g);
    benchmark::DoNotOptimize(acc.Data());
  }
  state.SetItemsProcessed(state.iterations() * acc.size());
}
BENCHMARK(BM_ElementwiseBackend)
    ->ArgNames({"dispatched", "shape"})
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2});

// ---------------------------------------------------------------------------
// Fused-chain sweeps (EXPERIMENTS.md "Operator fusion"): arg0 = 0 unfused
// composition / 1 fused driver, arg1 = shape. Fused and unfused compute the
// same bits (fusion_test pins that); the delta here is pure memory traffic.
// ---------------------------------------------------------------------------

/// Chain shapes {m, k, n}: the hidden -> classes classifier GEMM of each
/// citation dataset (the every-epoch chain), plus Cora's features -> hidden
/// layer-1 transform (the big-k regime where the epilogue is amortized).
struct ChainShape {
  int64_t m;
  int64_t k;
  int64_t n;
};
constexpr ChainShape kChainShapes[] = {
    {2708, 16, 7},      // Cora classifier
    {3327, 16, 6},      // Citeseer classifier
    {19717, 16, 3},     // Pubmed classifier
    {2708, 1433, 16},   // Cora layer-1
};

void BM_GemmBiasReluChain(benchmark::State& state) {
  ThreadCountOverride threads(1);
  const ChainShape& s = kChainShapes[state.range(1)];
  const bool fused = state.range(0) == 1;
  Rng rng(11);
  const Matrix x = RandomMatrix(s.m, s.k, &rng);
  const Matrix w = RandomMatrix(s.k, s.n, &rng);
  const Matrix bias = RandomMatrix(1, s.n, &rng);
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(MatmulBiasRelu(x, w, bias));
    } else {
      benchmark::DoNotOptimize(Relu(AddRowBroadcast(Matmul(x, w), bias)));
    }
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k * s.n);
}
BENCHMARK(BM_GemmBiasReluChain)
    ->ArgNames({"fused", "shape"})
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2})
    ->Args({0, 3})->Args({1, 3});

void BM_SpmmBiasReluChain(benchmark::State& state) {
  ThreadCountOverride threads(1);
  const ChainShape& s = kChainShapes[state.range(1)];
  const bool fused = state.range(0) == 1;
  Rng rng(12);
  Graph graph = MakeErdosRenyiGraph(
      s.m, 4.0 / static_cast<double>(s.m), &rng);
  const SparseMatrix adj = GcnNormalizedAdjacency(graph);
  const Matrix h = RandomMatrix(s.m, s.n, &rng);
  const Matrix bias = RandomMatrix(1, s.n, &rng);
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(adj.MultiplyBiasRelu(h, bias));
    } else {
      benchmark::DoNotOptimize(Relu(AddRowBroadcast(adj.Multiply(h), bias)));
    }
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * s.n);
}
BENCHMARK(BM_SpmmBiasReluChain)
    ->ArgNames({"fused", "shape"})
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2});

void BM_SoftmaxXentChain(benchmark::State& state) {
  // The supervised loss at Cora scale: 2708 x 7 logits, 140 labeled rows.
  // Unfused materializes log-softmax of ALL rows; fused touches only the
  // masked ones, forward and backward.
  ThreadCountOverride threads(1);
  flags::FuseGuard fuse(state.range(0) == 1);
  Rng rng(13);
  const Matrix z0 = RandomMatrix(2708, 7, &rng);
  std::vector<int64_t> labels(2708);
  for (int64_t& y : labels) y = rng.UniformInt(7);
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 140; ++i) indices.push_back(i * 19);
  for (auto _ : state) {
    Variable z(z0, /*requires_grad=*/true);
    Variable loss =
        ag::SoftmaxCrossEntropy(z, labels, indices, ag::Reduction::kMean);
    loss.Backward();
    benchmark::DoNotOptimize(loss.value().At(0, 0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(indices.size()) * 7);
}
BENCHMARK(BM_SoftmaxXentChain)->ArgNames({"fused"})->Arg(0)->Arg(1);

void BM_NodeReliabilityUpdate(benchmark::State& state) {
  // The per-epoch reliability refresh (Algorithm 1) RDD pays for.
  const int64_t n = state.range(0);
  Rng rng(7);
  Matrix teacher(n, 7);
  Matrix student(n, 7);
  for (int64_t i = 0; i < teacher.size(); ++i) {
    teacher.Data()[i] = static_cast<float>(rng.Gaussian());
    student.Data()[i] = static_cast<float>(rng.Gaussian());
  }
  teacher = SoftmaxRows(teacher);
  student = SoftmaxRows(student);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  std::vector<bool> mask(static_cast<size_t>(n), false);
  for (int64_t i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = rng.UniformInt(7);
    if (i % 20 == 0) mask[static_cast<size_t>(i)] = true;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeNodeReliability(
        teacher, student, labels, mask, NodeReliabilityConfig{}));
  }
}
BENCHMARK(BM_NodeReliabilityUpdate)->Arg(2708)->Arg(20000);

}  // namespace
}  // namespace rdd

// Custom main instead of BENCHMARK_MAIN(): accepts the repo-wide
// `--json <path>` convention (see bench/bench_common.h) by translating it
// into google-benchmark's --benchmark_out flags before initialization, so
// all benches share one machine-readable output interface.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string(argv[i]) == "--json") {
      storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.push_back("--benchmark_out_format=json");
      ++i;  // Skip the path operand.
    } else {
      storage.push_back(argv[i]);
    }
  }
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int translated_argc = static_cast<int>(args.size());
  benchmark::Initialize(&translated_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(translated_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
