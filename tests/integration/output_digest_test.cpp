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
// counts, P = 1 draws slots) and the multi-miner game (table1).

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

class OutputDigestTest : public ::testing::TestWithParam<PinnedCampaign> {};

TEST_P(OutputDigestTest, SerialCampaignBytesMatchPinnedDigests) {
  const PinnedCampaign& pinned = GetParam();
  sim::ScenarioSpec spec =
      sim::ScenarioRegistry::BuiltIn().Get(pinned.scenario);
  spec.replications = pinned.replications;
  spec.steps = pinned.steps;
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink csv(csv_out);
  sim::JsonlSink jsonl(jsonl_out);
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
            "1b942a7e23dd667b4176d56e9f3a11e0a358e75850f2c8fd8ffa04f1835e7c43"}),
    [](const ::testing::TestParamInfo<PinnedCampaign>& param) {
      std::string name = param.param.scenario;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fairchain
