#include "serve/predictor.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "models/model_io.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdd {

Checkpoint CheckpointFromRdd(const RddResult& result,
                             const ModelConfig& base_model,
                             const std::string& tag) {
  RDD_CHECK_EQ(result.students.size(), result.alphas.size());
  Checkpoint checkpoint;
  checkpoint.tag = tag;
  checkpoint.models.reserve(result.students.size());
  for (size_t t = 0; t < result.students.size(); ++t) {
    checkpoint.models.push_back(RecordFromModel(
        *result.students[t], base_model, result.alphas[t]));
  }
  return checkpoint;
}

Checkpoint CheckpointFromDistilled(const MlpStudent& student,
                                   const std::string& tag) {
  ModelConfig config;
  config.kind = ModelKind::kMlpStudent;
  config.num_layers = student.num_layers();
  config.hidden_dim = student.hidden_dim();
  config.dropout = student.dropout();
  Checkpoint checkpoint;
  checkpoint.tag = tag;
  checkpoint.models.push_back(RecordFromModel(student, config, 1.0));
  return checkpoint;
}

StatusOr<Predictor> Predictor::FromCheckpoint(const std::string& path,
                                              const GraphContext& context) {
  return FromCheckpoint(path, context, Options());
}

StatusOr<Predictor> Predictor::FromCheckpoint(const std::string& path,
                                              const GraphContext& context,
                                              const Options& options) {
  if (options.batch_size < 1) {
    return Status::InvalidArgument(
        StrFormat("batch_size must be >= 1, got %lld",
                  static_cast<long long>(options.batch_size)));
  }
  StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
  if (!loaded.ok()) return loaded.status();
  const Checkpoint& checkpoint = *loaded;
  if (checkpoint.models.empty()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint %s holds no models", path.c_str()));
  }

  Predictor predictor;
  predictor.tag_ = checkpoint.tag;
  predictor.options_ = options;
  predictor.num_nodes_ = context.num_nodes;
  for (const ModelRecord& record : checkpoint.models) {
    StatusOr<std::unique_ptr<GraphModel>> model =
        ModelFromRecord(record, context);
    if (!model.ok()) return model.status();
    if (record.weight <= 0.0) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint %s: model \"%s\" has non-positive weight", path.c_str(),
          record.arch.c_str()));
    }
    predictor.models_.push_back(std::move(model.value()));
    predictor.weights_.push_back(record.weight);
  }
  return predictor;
}

void Predictor::BuildTable() {
  observe::TraceSpan span("serve/build_table", num_nodes_);
  double weight_sum = 0.0;
  for (double w : weights_) weight_sum += w;
  // Weighted member average, summed in member order (deterministic at any
  // thread count, like Teacher::PredictProbs).
  for (size_t m = 0; m < models_.size(); ++m) {
    Matrix member = models_[m]->PredictProbs();
    const float scale = static_cast<float>(weights_[m] / weight_sum);
    if (m == 0) {
      table_ = std::move(member);
      float* data = table_.Data();
      for (int64_t i = 0; i < table_.size(); ++i) data[i] *= scale;
    } else {
      RDD_CHECK_EQ(member.rows(), table_.rows());
      RDD_CHECK_EQ(member.cols(), table_.cols());
      float* acc = table_.Data();
      const float* add = member.Data();
      for (int64_t i = 0; i < table_.size(); ++i) acc[i] += scale * add[i];
    }
  }
  models_.clear();
}

StatusOr<Matrix> Predictor::PredictProbs(const std::vector<int64_t>& nodes) {
  if (weights_.empty()) {
    return Status::FailedPrecondition("predictor holds no models");
  }
  for (int64_t node : nodes) {
    if (node < 0 || node >= num_nodes_) {
      return Status::InvalidArgument(
          StrFormat("query node %lld is outside [0, %lld)",
                    static_cast<long long>(node),
                    static_cast<long long>(num_nodes_)));
    }
  }
  observe::TraceSpan predict_span("serve/predict",
                                  static_cast<int64_t>(nodes.size()));
  auto& registry = observe::MetricsRegistry::Global();
  static observe::Counter& query_counter = registry.counter("serve.queries");
  static observe::Counter& batch_counter = registry.counter("serve.batches");
  static observe::Histogram& batch_ns = registry.histogram("serve.batch_ns");
  query_counter.Add(nodes.size());
  if (!models_.empty()) BuildTable();

  const int64_t total = static_cast<int64_t>(nodes.size());
  const int64_t cols = table_.cols();
  Matrix out(total, cols);
  for (int64_t begin = 0; begin < total; begin += options_.batch_size) {
    const int64_t end = std::min(total, begin + options_.batch_size);
    observe::TraceSpan batch_span("serve/batch", end - begin);
    WallTimer batch_timer;
    batch_counter.Add(1);
    for (int64_t b = begin; b < end; ++b) {
      const float* src = table_.RowData(nodes[static_cast<size_t>(b)]);
      std::copy(src, src + cols, out.RowData(b));
    }
    batch_ns.Record(
        static_cast<uint64_t>(batch_timer.ElapsedSeconds() * 1e9));
  }
  return out;
}

StatusOr<std::vector<int64_t>> Predictor::PredictLabels(
    const std::vector<int64_t>& nodes) {
  StatusOr<Matrix> probs = PredictProbs(nodes);
  if (!probs.ok()) return probs.status();
  return ArgmaxRows(*probs);
}

}  // namespace rdd
