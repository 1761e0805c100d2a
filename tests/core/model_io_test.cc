// Model persistence, both formats. SaveModel/LoadModel (text) and
// SaveModelBinary/LoadModelBinary: bit-exact round trips of trained
// models (including numerical-attribute Gaussians and the Θ shard
// stamp), cross-format equivalence, and clean Status errors — never
// crashes — on truncated or corrupt files, bad magic, checksum
// mismatches and unsupported versions.
#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "core/engine.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// RAII deleter so failed assertions do not leak files between runs.
class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Model TrainPlantedModel() {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 301);
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(302);
  auto fit = Engine::Fit(fixture.dataset, options);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  return std::move(fit).value().model;
}

void ExpectBitExact(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  EXPECT_EQ(a.theta_shards, b.theta_shards);
  EXPECT_EQ(a.theta.data(), b.theta.data());  // exact double equality
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.link_types, b.link_types);
  EXPECT_EQ(a.objective, b.objective);
  ASSERT_EQ(a.components.size(), b.components.size());
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t i = 0; i < a.components.size(); ++i) {
    EXPECT_EQ(a.attributes[i].name, b.attributes[i].name);
    EXPECT_EQ(a.attributes[i].kind, b.attributes[i].kind);
    EXPECT_EQ(a.attributes[i].vocab_size, b.attributes[i].vocab_size);
    ASSERT_EQ(a.components[i].kind(), b.components[i].kind());
    if (a.components[i].kind() == AttributeKind::kCategorical) {
      EXPECT_EQ(a.components[i].beta().data(), b.components[i].beta().data());
    } else {
      for (size_t k = 0; k < a.num_clusters(); ++k) {
        const auto& ga = a.components[i].gaussian(static_cast<ClusterId>(k));
        const auto& gb = b.components[i].gaussian(static_cast<ClusterId>(k));
        EXPECT_EQ(ga.mean(), gb.mean());
        EXPECT_EQ(ga.variance(), gb.variance());
      }
    }
  }
}

TEST(ModelIoTest, RoundTripIsBitExactOnPlantedFixture) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_roundtrip.model"));
  ASSERT_TRUE(SaveModel(model, file.path()).ok());
  auto loaded = LoadModel(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
}

TEST(ModelIoTest, RoundTripPreservesGaussianComponents) {
  // Hand-build a model with a numerical attribute to cover the gaussian
  // records (the planted fixture is categorical-only).
  Model model;
  model.theta = Matrix(3, 2);
  model.theta(0, 0) = 0.25;
  model.theta(0, 1) = 0.75;
  model.theta(1, 0) = 1.0 / 3.0;  // not exactly representable in decimal
  model.theta(1, 1) = 2.0 / 3.0;
  model.theta(2, 0) = 1e-12;
  model.theta(2, 1) = 1.0 - 1e-12;
  model.gamma = {0.1, 14.46};
  model.link_types = {"tt", "tp"};
  model.objective = -123.456789012345678;
  model.attributes.push_back({"temperature", AttributeKind::kNumerical, 0});
  model.components.push_back(AttributeComponents::Numerical(
      {GaussianDistribution(-7.25, 0.3333333333333333),
       GaussianDistribution(31.0, 2.718281828459045)}));
  ASSERT_TRUE(model.Validate().ok());

  ScopedFile file(TempPath("genclus_model_gaussian.model"));
  ASSERT_TRUE(SaveModel(model, file.path()).ok());
  auto loaded = LoadModel(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
}

TEST(ModelIoTest, SaveRejectsInvalidModel) {
  Model model;  // K = 0: fails Validate
  ScopedFile file(TempPath("genclus_model_invalid.model"));
  Status s = SaveModel(model, file.path());
  EXPECT_FALSE(s.ok());
}

TEST(ModelIoTest, LoadFailsCleanlyOnMissingFile) {
  auto loaded = LoadModel(TempPath("genclus_model_does_not_exist.model"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, LoadFailsCleanlyOnTruncatedFile) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_truncated.model"));
  ASSERT_TRUE(SaveModel(model, file.path()).ok());

  // Drop the trailing 40% of the file: beta rows (and possibly theta rows)
  // go missing. Loading must fail with IoError, not crash or return a
  // partial model.
  std::ifstream in(file.path());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string contents = buffer.str();
  in.close();
  std::ofstream out(file.path(), std::ios::trunc);
  out << contents.substr(0, contents.size() * 3 / 5);
  out.close();

  auto loaded = LoadModel(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, LoadFailsCleanlyOnCorruptNumericFields) {
  const char* kCorruptFiles[] = {
      // Malformed theta value.
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\n"
      "theta 0 0.5 banana\n",
      // Gamma is not a number.
      "genclus_model 1\nclusters 2\nnodes 0\nobjective 0\n"
      "link_type tt NaNish\n",
      // Negative variance.
      "genclus_model 1\nclusters 2\nnodes 0\nobjective 0\n"
      "attribute numerical temp\ngaussian 0 1.0 -2.0\n",
      // Theta row out of range.
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\n"
      "theta 7 0.5 0.5\n",
      // Unknown record.
      "genclus_model 1\nclusters 2\nnodes 0\nobjective 0\nwhatever 1\n",
      // Beta without a categorical attribute.
      "genclus_model 1\nclusters 2\nnodes 0\nobjective 0\nbeta 0 1.0\n",
      // Missing header.
      "clusters 2\nnodes 0\nobjective 0\n",
      // Re-declared nodes header after theta was sized (would move the
      // bounds check past the allocated buffer).
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\n"
      "theta 0 0.5 0.5\nnodes 5\ntheta 3 0.5 0.5\n",
      // Re-declared clusters header.
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\nclusters 4\n",
      // Non-finite theta values parse as doubles but must be rejected.
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\n"
      "theta 0 nan nan\n",
      "genclus_model 1\nclusters 2\nnodes 1\nobjective 0\n"
      "theta 0 inf 0.5\n",
      // Counts whose buffers could never be filled from a file this small
      // (2^62 clusters, nodes or terms) are rejected before sizing.
      "genclus_model 1\nclusters 4611686018427387904\nnodes 0\n"
      "objective 0\nattribute numerical x\n",
      "genclus_model 1\nclusters 2\nnodes 4611686018427387904\n"
      "objective 0\ntheta 0 0.5 0.5\n",
      "genclus_model 1\nclusters 2\nnodes 0\nobjective 0\n"
      "attribute categorical t 4611686018427387904\n",
  };
  for (const char* contents : kCorruptFiles) {
    ScopedFile file(TempPath("genclus_model_corrupt.model"));
    std::ofstream out(file.path(), std::ios::trunc);
    out << contents;
    out.close();
    auto loaded = LoadModel(file.path());
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt file:\n" << contents;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << contents;
  }
}

TEST(ModelIoTest, LoadRejectsUnsupportedVersion) {
  ScopedFile file(TempPath("genclus_model_version.model"));
  std::ofstream out(file.path(), std::ios::trunc);
  out << "genclus_model 99\nclusters 2\nnodes 0\nobjective 0\n";
  out.close();
  auto loaded = LoadModel(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, TextRoundTripPreservesThetaShardStamp) {
  Model model = TrainPlantedModel();
  model.theta_shards = 3;
  ScopedFile file(TempPath("genclus_model_shards.model"));
  ASSERT_TRUE(SaveModel(model, file.path()).ok());
  auto loaded = LoadModel(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->theta_shards, 3u);
}

// ---------------------------------------------------------------------------
// Binary format.

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ModelIoBinaryTest, RoundTripIsBitExactOnPlantedFixture) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_roundtrip.bin"));
  Status saved = SaveModelBinary(model, file.path());
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
}

TEST(ModelIoBinaryTest, RoundTripPreservesGaussiansAndShardStamp) {
  Model model;
  model.theta = Matrix(5, 2);
  for (size_t v = 0; v < 5; ++v) {
    model.theta(v, 0) = 1.0 / (3.0 + static_cast<double>(v));
    model.theta(v, 1) = 1.0 - model.theta(v, 0);
  }
  model.theta_shards = 2;  // Θ persists per shard: two blocks here
  model.gamma = {0.1, 14.46};
  model.link_types = {"tt", "tp"};
  model.objective = -123.456789012345678;
  model.attributes.push_back({"temperature", AttributeKind::kNumerical, 0});
  model.components.push_back(AttributeComponents::Numerical(
      {GaussianDistribution(-7.25, 0.3333333333333333),
       GaussianDistribution(31.0, 2.718281828459045)}));
  ASSERT_TRUE(model.Validate().ok());

  ScopedFile file(TempPath("genclus_model_gaussian.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
  EXPECT_EQ(loaded->theta_shards, 2u);
}

TEST(ModelIoBinaryTest, BinaryAndTextRoundTripsAgreeBitwise) {
  // Cross-format equivalence: the same model through either format loads
  // back to bitwise-identical parameters.
  Model model = TrainPlantedModel();
  model.theta_shards = 2;
  ScopedFile text_file(TempPath("genclus_model_cross.model"));
  ScopedFile binary_file(TempPath("genclus_model_cross.bin"));
  ASSERT_TRUE(SaveModel(model, text_file.path()).ok());
  ASSERT_TRUE(SaveModelBinary(model, binary_file.path()).ok());
  auto from_text = LoadModel(text_file.path());
  auto from_binary = LoadModelBinary(binary_file.path());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  ExpectBitExact(*from_text, *from_binary);
}

TEST(ModelIoBinaryTest, SaveRejectsInvalidModel) {
  Model model;  // K = 0: fails Validate
  ScopedFile file(TempPath("genclus_model_invalid.bin"));
  EXPECT_FALSE(SaveModelBinary(model, file.path()).ok());
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnMissingFile) {
  auto loaded = LoadModelBinary(TempPath("genclus_model_missing.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnTruncation) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_truncated.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  const std::string full = ReadFileBytes(file.path());
  // Every truncation point must fail cleanly — inside the header, inside
  // the sections, and mid-Θ.
  for (size_t keep : {size_t{0}, size_t{8}, size_t{63}, size_t{64},
                      size_t{100}, full.size() / 2, full.size() - 1}) {
    WriteFileBytes(file.path(), full.substr(0, keep));
    auto loaded = LoadModelBinary(file.path());
    ASSERT_FALSE(loaded.ok()) << "accepted truncation at " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << keep;
  }
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnCorruptPayload) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_corrupt.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  ASSERT_GT(bytes.size(), 200u);
  // Flip one payload byte: the checksum must catch it before any parsing.
  bytes[150] = static_cast<char>(bytes[150] ^ 0x5a);
  WriteFileBytes(file.path(), bytes);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(ModelIoBinaryTest, LoadRejectsGaussianCountBeyondThePayload) {
  // A well-formed container (valid checksum) whose header declares 2^62
  // clusters, no nodes and one numerical attribute: the Gaussian rows
  // cannot fit in the payload, so the load must fail before sizing them.
  std::string payload;
  auto append = [&payload](const auto& value) {
    payload.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(0.0);              // objective
  append(uint64_t{0});      // link types
  append(uint64_t{1});      // attributes
  append(uint8_t{1});       // kind: numerical
  append(uint32_t{1});      // name length
  payload.push_back('x');   // name
  append(uint64_t{0});      // vocabulary (none for numerical)
  uint64_t checksum = 14695981039346656037ull;  // FNV-1a 64
  for (unsigned char byte : payload) {
    checksum ^= byte;
    checksum *= 1099511628211ull;
  }
  std::string bytes = "GENCLUSB";
  auto append_header = [&bytes](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_header(uint32_t{1});                        // version
  append_header(uint32_t{0});                        // flags
  append_header(static_cast<uint64_t>(payload.size()));
  append_header(checksum);
  append_header(uint64_t{0});                        // nodes
  append_header(uint64_t{1} << 62);                  // clusters
  append_header(uint64_t{1});                        // theta shards
  bytes.resize(64, '\0');
  bytes += payload;

  ScopedFile file(TempPath("genclus_model_huge_k.bin"));
  WriteFileBytes(file.path(), bytes);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("exceeds the file"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoBinaryTest, LoadRejectsBadMagicAndVersionAndTextFile) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_header.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  const std::string good = ReadFileBytes(file.path());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFileBytes(file.path(), bad_magic);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);

  // The version lives in the (un-checksummed) header, so a bumped version
  // is reported as such, not as corruption.
  std::string bad_version = good;
  bad_version[8] = 99;
  WriteFileBytes(file.path(), bad_version);
  loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);

  // A text model handed to the binary loader is a clean bad-magic error,
  // and vice versa a binary file fails the text parser cleanly.
  ScopedFile text_file(TempPath("genclus_model_header.model"));
  ASSERT_TRUE(SaveModel(model, text_file.path()).ok());
  EXPECT_FALSE(LoadModelBinary(text_file.path()).ok());
  WriteFileBytes(file.path(), good);
  EXPECT_FALSE(LoadModel(file.path()).ok());
}

TEST(ModelIoBinaryTest, FingerprintMatchesContainerChecksum) {
  // Model::Fingerprint is DEFINED as the binary container's payload
  // checksum, computed without touching the filesystem: the u64 at
  // header bytes 24..31 of a fresh save must equal it exactly.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_fingerprint.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  std::ifstream in(file.path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  in.seekg(24);
  uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  ASSERT_TRUE(in.good());
  EXPECT_EQ(model.Fingerprint(), stored);

  // Stable across copies and round-trips; sensitive to any content bit.
  const Model copy = model;
  EXPECT_EQ(copy.Fingerprint(), model.Fingerprint());
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Fingerprint(), model.Fingerprint());
  Model perturbed = model;
  perturbed.theta(0, 0) = perturbed.theta(0, 0) * (1.0 + 1e-12);
  EXPECT_NE(perturbed.Fingerprint(), model.Fingerprint());
}

TEST(ModelIoTest, SuccessfulSavesLeaveNoTempDebris) {
  // Saves commit through a sibling .tmp + rename; on success the temp
  // must be gone and only the target remain.
  const Model model = TrainPlantedModel();
  ScopedFile text(TempPath("genclus_model_atomic.model"));
  ScopedFile binary(TempPath("genclus_model_atomic.bin"));
  ASSERT_TRUE(SaveModel(model, text.path()).ok());
  ASSERT_TRUE(SaveModelBinary(model, binary.path()).ok());
  EXPECT_TRUE(std::filesystem::exists(text.path()));
  EXPECT_TRUE(std::filesystem::exists(binary.path()));
  EXPECT_FALSE(std::filesystem::exists(text.path() + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(binary.path() + ".tmp"));
}

#if defined(GENCLUS_FAILPOINTS)
TEST(ModelIoTest, InjectedSaveCrashLeavesPreviousFileIntact) {
  // "model_io.save" simulates a crash mid-write: the save fails, but the
  // previously committed file must survive byte-for-byte — the whole
  // point of the write-to-temp + rename protocol.
  const Model model = TrainPlantedModel();
  for (const bool binary : {false, true}) {
    ScopedFile file(TempPath(binary ? "genclus_model_crash.bin"
                                    : "genclus_model_crash.model"));
    ScopedFile debris(file.path() + ".tmp");
    auto save = [&](const Model& m) {
      return binary ? SaveModelBinary(m, file.path())
                    : SaveModel(m, file.path());
    };
    ASSERT_TRUE(save(model).ok());
    const std::string committed = ReadFileBytes(file.path());

    Failpoints::Arm("model_io.save", {.max_fires = 1});
    const Status crashed = save(model);
    Failpoints::DisarmAll();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.code(), StatusCode::kIoError);
    // Target intact; the half-written temp is the only residue.
    EXPECT_EQ(ReadFileBytes(file.path()), committed);

    // And the survivor still loads.
    if (binary) {
      EXPECT_TRUE(LoadModelBinary(file.path()).ok());
    } else {
      EXPECT_TRUE(LoadModel(file.path()).ok());
    }
  }
}

TEST(ModelIoTest, InjectedLoadTruncationFailsCleanly) {
  // "model_io.load" halves the in-memory file image: every downstream
  // bounds check must turn that into a clean IoError, never a crash.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_load_trunc.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  Failpoints::Arm("model_io.load", {.max_fires = 1});
  auto loaded = LoadModelBinary(file.path());
  Failpoints::DisarmAll();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}
#endif

}  // namespace
}  // namespace genclus
