// Pins the exact proof bytes for a fixed model/layout/seed recipe. The hot
// kernels (MSM, FFT, field mul) have several equivalent implementations and
// parallel schedules; all of them are algebraically exact, so any change that
// alters the bytes is a real behavior change, not a rounding difference. If
// this test fails after an intentional protocol change, regenerate the hash
// (the failure message prints it) and update kGoldenSha256.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/transcript/sha256.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace {

constexpr char kGoldenSha256[] =
    "82268f6e6b00ab2caa8ddfe9256ca4efc3c0e186834c357d1c6d21b6c83069f1";
// The same recipe under the IPA backend.
constexpr char kGoldenIpaSha256[] =
    "1130b109e89be0d62617af33ad69827b938654d9d80f135ffd6ec0551514a944";

std::string HexDigest(const std::vector<uint8_t>& bytes) {
  const auto digest = Sha256::Hash(bytes.data(), bytes.size());
  std::string out;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(DeterminismTest, GoldenProofBytes) {
  const Model model = MakeMnistCnn();
  const PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  options.setup_seed = 42;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 77), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  ASSERT_TRUE(Verify(compiled, proof));

  EXPECT_EQ(proof.bytes.size(), 5245u);
  EXPECT_EQ(HexDigest(proof.bytes), kGoldenSha256);

  // Proving twice from the same inputs must be bit-identical (no scheduling
  // or iteration-order dependence leaks into the transcript).
  const ZkmlProof proof2 = Prove(compiled, input);
  EXPECT_EQ(proof2.bytes, proof.bytes);
}

TEST(DeterminismTest, GoldenIpaProofBytes) {
  const Model model = MakeMnistCnn();
  const PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  ZkmlOptions options;
  options.backend = PcsKind::kIpa;
  options.setup_seed = 42;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 77), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  ASSERT_TRUE(Verify(compiled, proof));

  EXPECT_EQ(proof.bytes.size(), 6695u);
  EXPECT_EQ(HexDigest(proof.bytes), kGoldenIpaSha256);
  const ZkmlProof proof2 = Prove(compiled, input);
  EXPECT_EQ(proof2.bytes, proof.bytes);
}

}  // namespace
}  // namespace zkml
