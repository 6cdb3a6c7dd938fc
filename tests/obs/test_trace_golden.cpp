// Golden trace digests: the SHA-256 of Observer::export_json() for three
// fixed runs, pinned across commits. test_determinism only compares a
// trace with itself inside one build; this test catches a refactor that
// moves any trace byte (span args, counter tracks, metrics keys or
// values). A deliberate trace change updates the digests below and says
// so in CHANGES.md. EveryEventKindIsEmitted checks that those three runs
// and three corpus specs reach every row of obs::kEvents, so no pinned
// event can go missing unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "obs/engine_trace.hpp"
#include "obs/observer.hpp"
#include "protocol/engine.hpp"

namespace cyc {
namespace {

constexpr const char* kHonestSmallDigest =
    "2c2f07a5ee0e2f43ea6f90841e7169635951e8d736458d264462766d069b0d52";
constexpr const char* kLossyWanDigest =
    "1675f5f501ec117fc0c2475bc1f23cc2e9fa701918f84021ab4ea8c778e4f9a8";
constexpr const char* kForcedCorruptLeadersDigest =
    "e5d8b1d91beff00d8b118b1211500c7c2b92a8a4b52c06ff93db648ee1a18645";

std::string trace_digest(const std::string& doc) {
  const crypto::Digest d = crypto::sha256(BytesView(
      reinterpret_cast<const std::uint8_t*>(doc.data()), doc.size()));
  return to_hex(BytesView(d.data(), d.size()));
}

// Three closed-loop rounds of an honest m=3 engine.
std::string honest_small_trace() {
  protocol::Params params;
  params.m = 3;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 10;
  params.cross_shard_fraction = 0.25;
  params.users = 60;
  params.seed = 7;

  protocol::Engine engine(params, protocol::AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);
  for (int r = 0; r < 3; ++r) (void)engine.run_round();
  return observer.export_json();
}

// The first seed of tests/corpus/<name>.json, which must run clean.
std::string corpus_trace(const std::string& name) {
  const auto path =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "corpus" /
      (name + ".json");
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const auto spec = harness::ScenarioSpec::from_json_text(text.str());
  EXPECT_FALSE(spec.seeds.empty());

  obs::Observer observer;
  const auto outcome =
      harness::run_scenario(spec, spec.seeds.front(), &observer);
  EXPECT_TRUE(outcome.violations.empty()) << name;
  return observer.export_json();
}

// Every round-1 leader is corrupt (equivocator, commit-forger, crash and
// concealer, in committee order), so the trace runs through accusation,
// conviction, re-selection and each replacement leader's redo of its
// predecessor's duties (all four committees recover).
std::string forced_corrupt_leaders_trace() {
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

  protocol::Engine engine(params, adversary);
  obs::Observer observer;
  engine.attach_observer(&observer);
  const protocol::RoundReport first = engine.run_round();
  EXPECT_GE(first.recoveries, 1u);
  for (int r = 1; r < 3; ++r) (void)engine.run_round();
  return observer.export_json();
}

TEST(TraceGolden, HonestSmallFixture) {
  EXPECT_EQ(trace_digest(honest_small_trace()), kHonestSmallDigest);
}

TEST(TraceGolden, LossyWanCorpus) {
  EXPECT_EQ(trace_digest(corpus_trace("lossy-wan")), kLossyWanDigest);
}

TEST(TraceGolden, ForcedCorruptLeaders) {
  EXPECT_EQ(trace_digest(forced_corrupt_leaders_trace()),
            kForcedCorruptLeadersDigest);
}

// A node restarted after a crash but kept in a blackout: no referee
// hears its catch-up requests, so its retry budget expires.
std::string exhausted_catchup_trace() {
  protocol::Params params;
  params.m = 2;
  params.c = 9;
  params.lambda = 3;
  params.referee_size = 5;
  params.txs_per_committee = 8;
  params.invalid_fraction = 0.0;
  params.users = 40;
  params.seed = 2;

  protocol::Engine engine(params, protocol::AdversaryConfig{});
  obs::Observer observer;
  engine.attach_observer(&observer);
  const net::NodeId victim = 4;
  engine.corrupt(victim, protocol::Behavior::kCrash);
  for (int r = 0; r < 2; ++r) (void)engine.run_round();
  engine.restart(victim);
  engine.blackout(victim, engine.round(), 100);
  for (std::uint32_t r = 0; r <= protocol::kMaxCatchupRounds; ++r) {
    (void)engine.run_round();
  }
  return observer.export_json();
}

// The pinned fixtures never sever a committee, restart a node or cross an
// epoch, so three corpus specs and an exhausted catch-up stand in for
// those events.
TEST(TraceGolden, EveryEventKindIsEmitted) {
  const std::vector<std::string> traces = {
      honest_small_trace(),           corpus_trace("lossy-wan"),
      forced_corrupt_leaders_trace(), corpus_trace("partition-heal"),
      corpus_trace("crash-restart"),  corpus_trace("skew-rebalance"),
      exhausted_catchup_trace()};
  for (const obs::EventSpec& event : obs::kEvents) {
    // An instant by its name; a counter-only event by its registry key.
    std::string needle = "\"";
    if (event.name.empty()) {
      needle.append(event.counter).append("\":");
    } else {
      needle.append("name\":\"").append(event.name).append("\"");
    }
    const bool emitted =
        std::any_of(traces.begin(), traces.end(), [&](const std::string& t) {
          return t.find(needle) != std::string::npos;
        });
    EXPECT_TRUE(emitted) << needle << " is in no fixture's trace";
  }
}

}  // namespace
}  // namespace cyc
