#include "data/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/citation_gen.h"
#include "models/mlp_student.h"
#include "models/model_factory.h"
#include "models/model_io.h"

namespace rdd {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset TinyDataset(uint64_t seed) {
  CitationGenConfig config;
  config.num_nodes = 60;
  config.num_features = 20;
  config.num_edges = 150;
  config.num_classes = 3;
  config.labeled_per_class = 4;
  config.val_size = 10;
  config.test_size = 15;
  return GenerateCitationNetwork(config, seed);
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// A two-member checkpoint (GCN + MLP-Student) over the tiny dataset.
Checkpoint SampleCheckpoint(const GraphContext& context) {
  ModelConfig gcn_config;
  gcn_config.kind = ModelKind::kGcn;
  gcn_config.hidden_dim = 8;
  auto gcn = BuildModel(context, gcn_config, /*seed=*/7);

  ModelConfig mlp_config;
  mlp_config.kind = ModelKind::kMlpStudent;
  mlp_config.num_layers = 2;
  mlp_config.hidden_dim = 12;
  auto mlp = BuildModel(context, mlp_config, /*seed=*/8);

  Checkpoint checkpoint;
  checkpoint.tag = "checkpoint-test";
  checkpoint.models.push_back(RecordFromModel(*gcn, gcn_config, 0.7));
  checkpoint.models.push_back(RecordFromModel(*mlp, mlp_config, 0.3));
  return checkpoint;
}

TEST(CheckpointTest, SaveLoadSaveIsByteIdentical) {
  const Dataset dataset = TinyDataset(1);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const Checkpoint original = SampleCheckpoint(context);

  const std::string path_a = TempPath("ckpt_a.rddc");
  const std::string path_b = TempPath("ckpt_b.rddc");
  ASSERT_TRUE(SaveCheckpoint(original, path_a).ok());
  StatusOr<Checkpoint> loaded = LoadCheckpoint(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(SaveCheckpoint(*loaded, path_b).ok());

  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CheckpointTest, RoundTripPreservesRecords) {
  const Dataset dataset = TinyDataset(2);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const Checkpoint original = SampleCheckpoint(context);
  const std::string path = TempPath("ckpt_fields.rddc");
  ASSERT_TRUE(SaveCheckpoint(original, path).ok());

  StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->models.size(), original.models.size());
  EXPECT_EQ(loaded->tag, original.tag);
  for (size_t m = 0; m < original.models.size(); ++m) {
    const ModelRecord& want = original.models[m];
    const ModelRecord& got = loaded->models[m];
    EXPECT_EQ(got.arch, want.arch);
    EXPECT_EQ(got.weight, want.weight);
    EXPECT_EQ(got.ints, want.ints);
    EXPECT_EQ(got.doubles, want.doubles);
    ASSERT_EQ(got.tensors.size(), want.tensors.size());
    for (size_t t = 0; t < want.tensors.size(); ++t) {
      EXPECT_EQ(got.tensors[t].name, want.tensors[t].name);
      const Matrix& a = want.tensors[t].value;
      const Matrix& b = got.tensors[t].value;
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      for (int64_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.Data()[i], b.Data()[i]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadedModelInfersBitIdentically) {
  const Dataset dataset = TinyDataset(3);
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, /*num_layers=*/2, /*hidden_dim=*/12,
                     /*dropout=*/0.5f, /*seed=*/11);
  ModelConfig config;
  config.kind = ModelKind::kMlpStudent;
  config.num_layers = 2;
  config.hidden_dim = 12;

  const ModelRecord record = RecordFromModel(student, config, 1.0);
  const std::string path = TempPath("ckpt_infer.rddc");
  Checkpoint checkpoint;
  checkpoint.tag = "infer";
  checkpoint.models.push_back(record);
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  StatusOr<std::unique_ptr<GraphModel>> rebuilt =
      ModelFromRecord(loaded->models[0], context);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  // Same evaluation forward on original and rebuilt model -> exact
  // equality.
  auto* rebuilt_mlp = dynamic_cast<MlpStudent*>(rebuilt->get());
  ASSERT_NE(rebuilt_mlp, nullptr);
  const Matrix want = student.Forward(/*training=*/false).logits.value();
  const Matrix got = rebuilt_mlp->Forward(/*training=*/false).logits.value();
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.Data()[i], got.Data()[i]) << "at flat index " << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, NotACheckpointIsInvalidArgument) {
  const std::string path = TempPath("ckpt_garbage.rddc");
  WriteFileBytes(path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l',
                        'd', '!', '!', '!', '!', '!'});
  StatusOr<Checkpoint> result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  StatusOr<Checkpoint> result =
      LoadCheckpoint(TempPath("ckpt_missing.rddc"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CheckpointTest, WrongVersionIsInvalidArgument) {
  const Dataset dataset = TinyDataset(4);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::string path = TempPath("ckpt_version.rddc");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(context), path).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  // Header layout: 8-byte magic, 1 endianness byte, 4-byte version.
  bytes[9] = 0xEE;
  WriteFileBytes(path, bytes);
  StatusOr<Checkpoint> result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, ForeignEndiannessIsInvalidArgument) {
  const Dataset dataset = TinyDataset(5);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::string path = TempPath("ckpt_endian.rddc");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(context), path).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  // Flip the endianness marker to the other byte order's value.
  bytes[8] = bytes[8] == 1 ? 2 : 1;
  WriteFileBytes(path, bytes);
  StatusOr<Checkpoint> result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("endian"), std::string::npos)
      << result.status().message();

  // A fully byte-swapped file (magic written on a foreign-endian machine)
  // is also diagnosed as an endianness problem, not "not a checkpoint".
  std::vector<unsigned char> swapped = ReadFileBytes(path);
  bytes = ReadFileBytes(path);
  for (int i = 0; i < 8; ++i) swapped[i] = bytes[7 - i];
  swapped[8] = bytes[8];
  WriteFileBytes(path, swapped);
  result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("endian"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, EveryPrefixTruncationFailsCleanly) {
  const Dataset dataset = TinyDataset(6);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::string full_path = TempPath("ckpt_full.rddc");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(context), full_path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(full_path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string prefix_path = TempPath("ckpt_prefix.rddc");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(prefix_path, std::vector<unsigned char>(
                                    bytes.begin(), bytes.begin() + len));
    StatusOr<Checkpoint> result = LoadCheckpoint(prefix_path);
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << len << " bytes: " << result.status().ToString();
  }
  std::remove(full_path.c_str());
  std::remove(prefix_path.c_str());
}

TEST(CheckpointTest, HostileLengthFieldIsInvalidArgument) {
  const Dataset dataset = TinyDataset(7);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::string path = TempPath("ckpt_hostile.rddc");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(context), path).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  // The first field after the 13-byte header is the tag's uint64 length.
  // Claim ~16 exabytes; the bounded reader must reject it without ever
  // attempting the allocation.
  for (int i = 0; i < 8; ++i) bytes[13 + i] = 0xFF;
  WriteFileBytes(path, bytes);
  StatusOr<Checkpoint> result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingBytesAreInvalidArgument) {
  const Dataset dataset = TinyDataset(8);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const std::string path = TempPath("ckpt_trailing.rddc");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(context), path).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  bytes.push_back(0xAB);
  WriteFileBytes(path, bytes);
  StatusOr<Checkpoint> result = LoadCheckpoint(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, DimensionMismatchIsInvalidArgument) {
  const Dataset dataset = TinyDataset(9);
  const GraphContext context = GraphContext::FromDataset(dataset);
  const Checkpoint checkpoint = SampleCheckpoint(context);

  CitationGenConfig other_config;
  other_config.num_nodes = 50;
  other_config.num_features = 33;  // Different feature_dim.
  other_config.num_edges = 120;
  other_config.num_classes = 3;
  other_config.labeled_per_class = 4;
  other_config.val_size = 10;
  other_config.test_size = 10;
  const Dataset other = GenerateCitationNetwork(other_config, 10);
  const GraphContext other_context = GraphContext::FromDataset(other);

  StatusOr<std::unique_ptr<GraphModel>> result =
      ModelFromRecord(checkpoint.models[0], other_context);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("features"), std::string::npos)
      << result.status().message();
}

TEST(CheckpointTest, UnknownArchitectureIsInvalidArgument) {
  const Dataset dataset = TinyDataset(11);
  const GraphContext context = GraphContext::FromDataset(dataset);
  Checkpoint checkpoint = SampleCheckpoint(context);
  checkpoint.models[0].arch = "NotARealModel";
  StatusOr<std::unique_ptr<GraphModel>> result =
      ModelFromRecord(checkpoint.models[0], context);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelKindTest, ParseRoundTripsEveryKind) {
  for (ModelKind kind :
       {ModelKind::kGcn, ModelKind::kResGcn, ModelKind::kDenseGcn,
        ModelKind::kJkNet, ModelKind::kAppnp, ModelKind::kMlp, ModelKind::kGat,
        ModelKind::kGraphSage, ModelKind::kMlpStudent}) {
    ModelKind parsed;
    ASSERT_TRUE(ParseModelKind(ModelKindToString(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  ModelKind parsed;
  EXPECT_FALSE(ParseModelKind("NotARealModel", &parsed));
  EXPECT_FALSE(ParseModelKind("", &parsed));
}

}  // namespace
}  // namespace rdd
