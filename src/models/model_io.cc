#include "models/model_io.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "util/string_util.h"

namespace rdd {

namespace {

constexpr ModelKind kAllKinds[] = {
    ModelKind::kGcn,  ModelKind::kResGcn,    ModelKind::kDenseGcn,
    ModelKind::kJkNet, ModelKind::kAppnp,     ModelKind::kMlp,
    ModelKind::kGat,  ModelKind::kGraphSage, ModelKind::kMlpStudent,
};

Status MissingField(const std::string& key) {
  return Status::InvalidArgument(
      StrFormat("model record is missing field \"%s\"", key.c_str()));
}

Status GetIntField(const ModelRecord& record, const std::string& key,
                   int64_t* out) {
  if (!record.GetInt(key, out)) return MissingField(key);
  return Status::Ok();
}

}  // namespace

bool ParseModelKind(const std::string& name, ModelKind* kind) {
  for (ModelKind candidate : kAllKinds) {
    if (name == ModelKindToString(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

ModelRecord RecordFromModel(const GraphModel& model, const ModelConfig& config,
                            double weight) {
  ModelRecord record;
  record.arch = ModelKindToString(config.kind);
  record.weight = weight;
  record.SetInt("num_layers", config.num_layers);
  record.SetInt("hidden_dim", config.hidden_dim);
  record.SetDouble("dropout", config.dropout);
  record.SetInt("appnp_power_steps", config.appnp_power_steps);
  record.SetDouble("appnp_teleport", config.appnp_teleport);
  record.SetInt("gat_heads", config.gat_heads);
  // Graph dimensions, recorded so a load against the wrong dataset fails
  // with a clear error instead of a shape mismatch deep in a forward pass.
  record.SetInt("feature_dim", model.context().feature_dim);
  record.SetInt("num_classes", model.context().num_classes);
  const std::vector<Variable>& params = model.Parameters();
  record.tensors.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    record.tensors.push_back(NamedTensor{
        StrFormat("param.%zu", i), params[i].value()});
  }
  return record;
}

StatusOr<std::unique_ptr<GraphModel>> ModelFromRecord(
    const ModelRecord& record, const GraphContext& context) {
  ModelConfig config;
  if (!ParseModelKind(record.arch, &config.kind)) {
    return Status::InvalidArgument(StrFormat(
        "model record names unknown architecture \"%s\"",
        record.arch.c_str()));
  }
  RDD_RETURN_IF_ERROR(GetIntField(record, "num_layers", &config.num_layers));
  RDD_RETURN_IF_ERROR(GetIntField(record, "hidden_dim", &config.hidden_dim));
  double dropout = 0.0;
  if (!record.GetDouble("dropout", &dropout)) return MissingField("dropout");
  config.dropout = static_cast<float>(dropout);
  RDD_RETURN_IF_ERROR(
      GetIntField(record, "appnp_power_steps", &config.appnp_power_steps));
  double teleport = 0.0;
  if (!record.GetDouble("appnp_teleport", &teleport)) {
    return MissingField("appnp_teleport");
  }
  config.appnp_teleport = static_cast<float>(teleport);
  RDD_RETURN_IF_ERROR(GetIntField(record, "gat_heads", &config.gat_heads));
  if (config.num_layers < 1 || config.num_layers > 64 ||
      config.hidden_dim < 1 || config.hidden_dim > (1 << 16) ||
      config.gat_heads < 1 || config.gat_heads > 256 ||
      config.appnp_power_steps < 1 || config.appnp_power_steps > 1024) {
    return Status::InvalidArgument(StrFormat(
        "model record \"%s\" has out-of-range hyperparameters",
        record.arch.c_str()));
  }
  int64_t feature_dim = 0;
  int64_t num_classes = 0;
  RDD_RETURN_IF_ERROR(GetIntField(record, "feature_dim", &feature_dim));
  RDD_RETURN_IF_ERROR(GetIntField(record, "num_classes", &num_classes));
  if (feature_dim != context.feature_dim ||
      num_classes != context.num_classes) {
    return Status::InvalidArgument(StrFormat(
        "model record was trained on a %lld-feature / %lld-class graph but "
        "the loaded dataset has %lld features / %lld classes",
        static_cast<long long>(feature_dim),
        static_cast<long long>(num_classes),
        static_cast<long long>(context.feature_dim),
        static_cast<long long>(context.num_classes)));
  }

  // Seed is irrelevant: every freshly initialized value is overwritten.
  std::unique_ptr<GraphModel> model = BuildModel(context, config, /*seed=*/0);
  const std::vector<Variable>& params = model->Parameters();
  if (params.size() != record.tensors.size()) {
    return Status::InvalidArgument(StrFormat(
        "model record \"%s\" has %zu tensors but the architecture has %zu "
        "parameters",
        record.arch.c_str(), record.tensors.size(), params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& stored = record.tensors[i].value;
    // Variable is a shared handle, so a by-value copy of the const
    // reference aliases the same parameter storage.
    Variable param = params[i];
    const Matrix& current = param.value();
    if (stored.rows() != current.rows() || stored.cols() != current.cols()) {
      return Status::InvalidArgument(StrFormat(
          "tensor \"%s\" is %lld x %lld but parameter %zu of \"%s\" is "
          "%lld x %lld",
          record.tensors[i].name.c_str(),
          static_cast<long long>(stored.rows()),
          static_cast<long long>(stored.cols()), i, record.arch.c_str(),
          static_cast<long long>(current.rows()),
          static_cast<long long>(current.cols())));
    }
    *param.mutable_value() = stored;
  }
  return model;
}

}  // namespace rdd
