// Fixed-seed fuzz smoke: tier-1 exercises the generator -> harness ->
// shrinker path on a bounded budget. The campaign artifact must be a
// pure function of (seed, budget) — byte-identical across runs and
// thread counts — and the default-seed smoke budget must be ALL GREEN.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "crypto/sha256.hpp"
#include "fuzz/campaign.hpp"
#include "support/bytes.hpp"

namespace cyc::fuzz {
namespace {

CampaignOptions smoke_options(unsigned threads = 0) {
  CampaignOptions options;
  options.seed = 1;
  options.budget = 25;
  options.threads = threads;
  return options;
}

TEST(FuzzSmoke, DefaultSeedBudgetAllGreen) {
  const CampaignResult result = run_campaign(smoke_options());
  EXPECT_EQ(result.specs_run, 25u);
  EXPECT_GE(result.points_run, result.specs_run);
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "spec " << failure.index << " red on "
                  << failure.shrunk.invariant << ": "
                  << failure.violations.front().detail << "\nshrunk repro: "
                  << failure.shrunk.spec.to_json_text();
  }
  EXPECT_TRUE(result.all_green());
}

TEST(FuzzSmoke, ArtifactByteIdenticalAcrossRunsAndThreads) {
  const CampaignOptions options = smoke_options();
  const std::string a = campaign_json(options, run_campaign(options));
  const std::string b = campaign_json(options, run_campaign(options));
  const std::string c =
      campaign_json(options, run_campaign(smoke_options(/*threads=*/1)));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a.find("\"harness\":\"scenario_fuzz\""), std::string::npos);
  EXPECT_NE(a.find("\"all_green\":true"), std::string::npos);
  // Pinned bytes: any change to the sampling bounds, the draw order or a
  // verdict moves this digest, so a refactor of the generator must keep
  // drawing the same 25 specs with the same outcomes.
  const crypto::Digest digest = crypto::sha256(bytes_of(a));
  EXPECT_EQ(to_hex(BytesView(digest.data(), digest.size())),
            "0ab59b3af9f6071dbf4213651b51ec261a3023ac08c449ad2ea90b149d6e9cdf");
}

TEST(FuzzSmoke, FailureCorpusRoundTripsThroughSpecFiles) {
  // Fabricate a failure (the campaign itself is green) to exercise the
  // corpus writer + replay parse path end to end.
  CampaignResult result;
  result.specs_run = 1;
  FuzzFailure failure;
  failure.index = 0;
  rng::Stream rng(11);
  failure.original = generate_spec(rng);
  failure.original.name = "fuzz/s11-0";
  failure.violations.push_back({"synthetic", 1, "planted"});
  failure.shrunk.spec = failure.original;
  failure.shrunk.spec.name = "fuzz/s11-0/synthetic";
  failure.shrunk.invariant = "synthetic";
  result.failures.push_back(failure);

  const auto dir = std::filesystem::temp_directory_path() / "cyc_fuzz_corpus";
  std::filesystem::remove_all(dir);
  const auto paths = write_failure_corpus(result, dir.string());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("s11-0-synthetic.json"), std::string::npos);

  std::ifstream in(paths[0], std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto replayed = harness::ScenarioSpec::from_json_text(text);
  EXPECT_EQ(replayed.name, "fuzz/s11-0/synthetic");
  EXPECT_EQ(replayed.to_json_text(), failure.shrunk.spec.to_json_text());
  std::filesystem::remove_all(dir);

  // A green result writes nothing (and creates no directory).
  const CampaignResult green;
  EXPECT_TRUE(write_failure_corpus(green, (dir / "sub").string()).empty());
  EXPECT_FALSE(std::filesystem::exists(dir / "sub"));
}

}  // namespace
}  // namespace cyc::fuzz
