// Output-digest golden: the SHA-256 of the CSV and JSONL that small serial
// campaigns write, pinned as constants.  Every other byte-identity test
// compares two runs of the same build, so a change that moves the output
// bytes the same way on every backend passes them all; this test compares
// against bytes written by an earlier build.  A perf change that must not
// move output keeps these digests; a change that moves output on purpose
// re-pins them, and `verify --all` judges the new output.
//
// The scenarios cover the state machinery a perf change is most likely to
// disturb: m = 10^5 populations (large-population-sweep), withholding
// releases and still-pending rewards (withhold-grid), population metrics
// (pareto-population), both C-PoS epoch paths (fig5d: P = 32 draws slot
// counts, P = 1 draws slots), the multi-miner game (table1), the chain
// family's gamma/delay/orphan/reorg columns (propagation-delay-sweep), a
// mixed-family grid (hetero-cost-mix) and NEO, which runs PoW's stepping
// loop under its own name (committee).  VerdictDigestTest pins the verdict
// CSV and JSONL that VerifyCampaign writes for fig5d and hetero-cost-mix
// the same way.

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "crypto/sha256.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenario_spec.hpp"
#include "verify/verdict_sink.hpp"
#include "verify/verification_plan.hpp"

namespace fairchain {
namespace {

struct PinnedCampaign {
  const char* scenario;
  std::uint64_t replications;
  std::uint64_t steps;
  const char* csv_sha256;
  const char* jsonl_sha256;
};

// Names the campaign in failure messages instead of dumping its bytes.
void PrintTo(const PinnedCampaign& pinned, std::ostream* out) {
  *out << pinned.scenario << " (" << pinned.replications << " reps x "
       << pinned.steps << " steps)";
}

// gtest parameter names allow only [A-Za-z0-9_].
std::string TestName(std::string scenario) {
  for (char& c : scenario) {
    if (c == '-') c = '_';
  }
  return scenario;
}

class OutputDigestTest : public ::testing::TestWithParam<PinnedCampaign> {};

TEST_P(OutputDigestTest, SerialCampaignBytesMatchPinnedDigests) {
  const PinnedCampaign& pinned = GetParam();
  sim::ScenarioSpec spec =
      sim::ScenarioRegistry::BuiltIn().Get(pinned.scenario);
  spec.replications = pinned.replications;
  spec.steps = pinned.steps;
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink<sim::CampaignRow> csv(csv_out);
  sim::JsonlSink<sim::CampaignRow> jsonl(jsonl_out);
  const core::SerialBackend serial;
  sim::CampaignOptions options;
  options.backend = &serial;
  sim::CampaignRunner(options).Run(spec, {&csv, &jsonl});
  ASSERT_FALSE(csv_out.str().empty());
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256Digest(csv_out.str())),
            pinned.csv_sha256)
      << pinned.scenario << " CSV bytes moved";
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256Digest(jsonl_out.str())),
            pinned.jsonl_sha256)
      << pinned.scenario << " JSONL bytes moved";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, OutputDigestTest,
    ::testing::Values(
        PinnedCampaign{
            "large-population-sweep", 8, 300,
            "f6a6e458e263926ca5df78d5121a89aa2b899a2580106fb7096fc94e3ab4177d",
            "d982f961ead3a3bda913fc16966036274a5d85eec6e1f74c804b980d723302a5"},
        PinnedCampaign{
            "withhold-grid", 8, 1200,
            "004a3613c35cac8f654349e72ed13f1c767c7a87f3a31e56bd9d6e81f022349a",
            "26b9e40042b096ce085d1111e2b5dd5d6284b015d26f9383c0a84a5739a1aba2"},
        PinnedCampaign{
            "pareto-population", 8, 300,
            "825558536313d806badf1ee2195f59c47673549d2f29d8b449b4a28f8cdee1d3",
            "2172b38d73b1d88675e8b11a001d84609e012b6adbba2e160256ca88468d77b7"},
        PinnedCampaign{
            "fig5d", 8, 300,
            "107a5b3c98388b904e7785e7e290d63ab1b93be03a5f34167792e739d5eed659",
            "9dc2a73b7b7c2857b2fc0819a9a88b4711a5b058dcdfb4823706d3d8c3370136"},
        PinnedCampaign{
            "table1", 8, 300,
            "4db3b000667cd1ef10b6d49bae44277dbfb720183b6b6de50653cbfa0004fec9",
            "1b942a7e23dd667b4176d56e9f3a11e0a358e75850f2c8fd8ffa04f1835e7c43"},
        PinnedCampaign{
            "propagation-delay-sweep", 8, 300,
            "1b2929908ea38421d1f93e4f059accfb08f976d1f5719cb389bca67cdcbe4c6e",
            "d166d0b983408bbe1730662a85d0a22580b51c501b2f76ca5c97f5f93e54ab53"},
        PinnedCampaign{
            "hetero-cost-mix", 8, 300,
            "e0ca62d8d973fae64620daa9146e37315a0da9bbcf8f2d6a721e4e9c9cacab1d",
            "d5998c57bd82f51c4ec8f5a5a973357bccaedb35233f32699a0343e493ca4770"},
        PinnedCampaign{
            "committee", 8, 300,
            "16a2aeff17019153af5cbc0cf86cd88a0464ec503a5949ab7a584f4b5a97dc30",
            "4aa90dfa38ec8e978a7dd3b5153c92d32ce14cabc7d93087aaacb76896e4d045"}),
    [](const ::testing::TestParamInfo<PinnedCampaign>& param) {
      return TestName(param.param.scenario);
    });

class VerdictDigestTest : public ::testing::TestWithParam<PinnedCampaign> {};

TEST_P(VerdictDigestTest, SerialVerdictBytesMatchPinnedDigests) {
  const PinnedCampaign& pinned = GetParam();
  sim::ScenarioSpec spec =
      sim::ScenarioRegistry::BuiltIn().Get(pinned.scenario);
  spec.replications = pinned.replications;
  spec.steps = pinned.steps;
  const verify::VerificationPlan plan(spec);
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink<verify::VerdictRow> csv(csv_out);
  sim::JsonlSink<verify::VerdictRow> jsonl(jsonl_out);
  const core::SerialBackend serial;
  verify::VerificationOptions options;
  options.campaign.backend = &serial;
  verify::VerifyCampaign(plan, options, {&csv, &jsonl});
  ASSERT_FALSE(csv_out.str().empty());
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256Digest(csv_out.str())),
            pinned.csv_sha256)
      << pinned.scenario << " verdict CSV bytes moved";
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256Digest(jsonl_out.str())),
            pinned.jsonl_sha256)
      << pinned.scenario << " verdict JSONL bytes moved";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, VerdictDigestTest,
    ::testing::Values(
        PinnedCampaign{
            "fig5d", 60, 240,
            "aae1fe8527854773314fe7043dec98663eb3e16a7eedfb5d6cc774618bd3f6cf",
            "0b689cae84fd9532bcf849716785b498a25ba85dfe6a7207cea61a3a3729513c"},
        PinnedCampaign{
            "hetero-cost-mix", 60, 240,
            "deb5078b000dc9aa57ff487fb4e67eeeea3881cd557c644735e3bd96192974e8",
            "e8939721a9974edec6ae3dc1aea54304799eb60c6e9cfaf698eef7f8b0f1912c"}),
    [](const ::testing::TestParamInfo<PinnedCampaign>& param) {
      return TestName(param.param.scenario);
    });

}  // namespace
}  // namespace fairchain
