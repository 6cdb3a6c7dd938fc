#include "fuzz/campaign.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "harness/runner.hpp"
#include "support/parallel.hpp"

namespace cyc::fuzz {

namespace {

/// Campaign spec names: fuzz/s<seed>-<index>, stable across runs.
std::string spec_name(std::uint64_t seed, std::size_t index) {
  return "fuzz/s" + std::to_string(seed) + "-" + std::to_string(index);
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  // Generation is sequential and index-forked: spec i depends only on
  // (seed, i), never on how many tries spec i-1 consumed.
  const rng::Stream root(options.seed);
  std::vector<harness::ScenarioSpec> specs;
  specs.reserve(options.budget);
  for (std::size_t i = 0; i < options.budget; ++i) {
    rng::Stream stream = root.fork(static_cast<std::uint64_t>(i));
    harness::ScenarioSpec spec = generate_spec(stream);
    spec.name = spec_name(options.seed, i);
    specs.push_back(std::move(spec));
  }

  // The campaign verdict and the shrink predicate share one oracle, so
  // "the shrunk repro reproduces the campaign failure" holds by
  // construction.
  const Oracle oracle = default_oracle();
  const std::vector<std::vector<harness::Violation>> runs =
      support::parallel_sweep(
          specs.size(), [&](std::size_t i) { return oracle(specs[i]); },
          options.threads);

  CampaignResult result;
  result.specs_run = specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.points_run += specs[i].seeds.size();
    if (runs[i].empty()) continue;
    FuzzFailure failure;
    failure.index = i;
    failure.original = specs[i];
    failure.violations = runs[i];
    const std::string& invariant = failure.violations.front().invariant;
    failure.shrunk = shrink(specs[i], invariant, oracle, options.shrink);
    // Self-describing repro: the spec name carries the red identifier.
    failure.shrunk.spec.name = specs[i].name + "/" + invariant;
    result.failures.push_back(std::move(failure));
  }
  return result;
}

std::string campaign_json(const CampaignOptions& options,
                          const CampaignResult& result) {
  support::JsonWriter json;
  json.begin_object();
  json.field("harness", "scenario_fuzz");
  json.field("seed", options.seed);
  json.field("budget", static_cast<std::uint64_t>(options.budget));
  json.field("max_corrupt_fraction", kMaxCorruptFraction);
  json.field("max_committee_failure", kMaxCommitteeFailure);
  json.field("specs_run", static_cast<std::uint64_t>(result.specs_run));
  json.field("points_run", static_cast<std::uint64_t>(result.points_run));
  json.field("failures", static_cast<std::uint64_t>(result.failures.size()));
  json.field("all_green", result.all_green());
  json.key("failing_specs");
  json.begin_array();
  for (const auto& failure : result.failures) {
    json.begin_object();
    json.field("index", static_cast<std::uint64_t>(failure.index));
    json.field("invariant", failure.shrunk.invariant);
    json.field("violations",
               static_cast<std::uint64_t>(failure.violations.size()));
    json.key("first_violation");
    json.begin_object();
    json.field("invariant", failure.violations.front().invariant);
    json.field("round", failure.violations.front().round);
    json.field("detail", failure.violations.front().detail);
    json.end_object();
    json.field("shrink_attempts",
               static_cast<std::uint64_t>(failure.shrunk.attempts));
    json.field("shrink_accepted",
               static_cast<std::uint64_t>(failure.shrunk.accepted));
    json.field("shrink_exhausted", failure.shrunk.exhausted);
    json.field("events_before",
               static_cast<std::uint64_t>(failure.original.events.size()));
    json.field("events_after",
               static_cast<std::uint64_t>(failure.shrunk.spec.events.size()));
    json.key("original");
    failure.original.to_json(json);
    json.key("shrunk");
    failure.shrunk.spec.to_json(json);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::vector<std::string> write_failure_corpus(const CampaignResult& result,
                                              const std::string& dir) {
  std::vector<std::string> paths;
  if (result.failures.empty()) return paths;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("fuzz: cannot create corpus directory " + dir +
                             ": " + ec.message());
  }
  for (const auto& failure : result.failures) {
    // fuzz/s1-17/epoch-handoff-continuity -> s1-17-epoch-handoff-continuity
    std::string stem = failure.shrunk.spec.name;
    if (stem.rfind("fuzz/", 0) == 0) stem = stem.substr(5);
    for (char& c : stem) {
      if (c == '/' || c == ' ') c = '-';
    }
    const std::string path =
        (std::filesystem::path(dir) / (stem + ".json")).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("fuzz: cannot write " + path);
    out << failure.shrunk.spec.to_json_text() << '\n';
    if (!out.flush()) throw std::runtime_error("fuzz: cannot write " + path);
    paths.push_back(path);
  }
  return paths;
}

}  // namespace cyc::fuzz
