#include "models/mlp_student.h"

#include "autograd/ops.h"
#include "util/logging.h"

namespace rdd {

MlpStudent::MlpStudent(GraphContext context, int64_t num_layers,
                       int64_t hidden_dim, float dropout, uint64_t seed)
    : GraphModel(std::move(context), seed),
      hidden_dim_(hidden_dim),
      dropout_(dropout) {
  RDD_CHECK_GE(num_layers, 1);
  RDD_CHECK_GT(hidden_dim, 0);
  int64_t in_dim = context_.feature_dim;
  for (int64_t l = 0; l < num_layers; ++l) {
    const int64_t out_dim =
        l + 1 == num_layers ? context_.num_classes : hidden_dim;
    layers_.push_back(std::make_unique<Linear>(in_dim, out_dim, &rng_));
    RegisterChild(*layers_.back());
    in_dim = out_dim;
  }
}

ModelOutput MlpStudent::Forward(const GraphView& view, bool training) {
  // Hidden-layer outputs go through ReLU (before dropout), so the
  // activation rides each layer forward as a fusible tail; the last layer
  // stays linear.
  const size_t last = layers_.size() - 1;
  Variable h = last == 0
                   ? layers_[0]->ForwardSparse(view.features.get())
                   : layers_[0]->ForwardSparseRelu(view.features.get());
  for (size_t l = 1; l < layers_.size(); ++l) {
    h = ag::Dropout(h, dropout_, training, &rng_);
    h = l == last ? layers_[l]->Forward(h) : layers_[l]->ForwardRelu(h);
  }
  return ModelOutput{h, h};
}

}  // namespace rdd
