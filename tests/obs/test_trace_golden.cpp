// Golden trace digests: the SHA-256 of Observer::export_json() for three
// fixed runs, pinned across commits. test_determinism only compares a
// trace with itself inside one build; this test catches a refactor that
// moves any trace byte (span args, counter tracks, metrics keys or
// values). A deliberate trace change updates the digests below and says
// so in CHANGES.md.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "obs/observer.hpp"
#include "protocol/engine.hpp"

namespace cyc {
namespace {

constexpr const char* kHonestSmallDigest =
    "ff7ff49bb99646d78ce574a55e823a0726284b2d38c26486feae0b09a2715d82";
constexpr const char* kLossyWanDigest =
    "df2041041185454e68bec2f3a35da15f7b9e2b86109146a3917eccb0b5133daf";
constexpr const char* kForcedCorruptLeadersDigest =
    "ef336cdaa6908f9177ff41763d30170c77c52816be0ba0608c43d128734acdeb";

std::string trace_digest(const obs::Observer& observer) {
  const std::string doc = observer.export_json();
  const crypto::Digest d = crypto::sha256(BytesView(
      reinterpret_cast<const std::uint8_t*>(doc.data()), doc.size()));
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(TraceGolden, HonestSmallFixture) {
  protocol::Params params;
  params.m = 3;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.25;
  params.users = 60;
  params.seed = 7;

  // The verify cache is thread-local: start cold so the hit / miss
  // counters in the trace do not depend on earlier tests.
  crypto::verify_cache::clear();
  protocol::Engine engine(params, protocol::AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);
  for (int r = 0; r < 3; ++r) (void)engine.run_round();

  EXPECT_EQ(trace_digest(observer), kHonestSmallDigest);
}

TEST(TraceGolden, LossyWanCorpus) {
  const auto path =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "corpus" /
      "lossy-wan.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const auto spec = harness::ScenarioSpec::from_json_text(text.str());
  ASSERT_FALSE(spec.seeds.empty());

  obs::Observer observer;
  const auto outcome =
      harness::run_scenario(spec, spec.seeds.front(), &observer);
  EXPECT_TRUE(outcome.violations.empty());

  EXPECT_EQ(trace_digest(observer), kLossyWanDigest);
}

// Every round-1 leader is corrupt (equivocator, commit-forger, crash and
// concealer, in committee order), so the pinned trace runs through
// accusation, conviction, re-selection and each replacement leader's
// redo of its predecessor's duties (all four committees recover).
TEST(TraceGolden, ForcedCorruptLeaders) {
  protocol::Params params;
  params.m = 4;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.5;
  params.users = 80;
  params.seed = 11;
  protocol::AdversaryConfig adversary;
  adversary.forced_corrupt_leader_fraction = 1.0;

  crypto::verify_cache::clear();
  protocol::Engine engine(params, adversary);
  obs::Observer observer;
  engine.attach_observer(&observer);
  const protocol::RoundReport first = engine.run_round();
  EXPECT_GE(first.recoveries, 1u);
  for (int r = 1; r < 3; ++r) (void)engine.run_round();

  EXPECT_EQ(trace_digest(observer), kForcedCorruptLeadersDigest);
}

}  // namespace
}  // namespace cyc
