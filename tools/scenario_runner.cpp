// scenario_runner — execute a scenario matrix and check every protocol
// invariant on every round of every (scenario, seed) point.
//
//   scenario_runner [--out FILE] [--spec FILE] [--threads N]
//                   [--engine-threads N] [--print] [--trace DIR]
//                   [--trace-wall]
//
// With no --spec, runs the built-in bounded default matrix (3 adversary
// mixes x 2 delay regimes x 2 cross-shard fractions x 2 capacity skews
// plus mid-run churn, committee-shape, high-invalid-fraction,
// fault-fabric (partition/heal, crash-restart, lossy wide-area links)
// and multi-epoch scenarios = 32 scenarios, 3 seeds each = 96 points).
// --spec FILE loads a JSON scenario list (one object, an array, or
// {"scenarios": [...]}); multi-epoch scenarios set "epochs" /
// "churn_rate" (see src/epoch/README.md). The JSON artifact goes to
// --out (default bench/out/SCENARIOS.json; the directory is created if
// missing); it is a pure function of the matrix, so repeated runs are
// byte-identical.
//
// --engine-threads N sets the PoW-search worker count
// (EngineOptions::engine_threads) on every scenario (default 1 = sequential
// reference path). The knob is execution-only: artifacts are
// byte-identical for every N, which scripts/run_checks.sh verifies.
//
// --trace DIR additionally writes one Chrome trace_event JSON file per
// (scenario, seed) point into DIR (created if missing) — simulated-time
// spans + metrics, loadable in Perfetto, themselves byte-identical
// across runs and thread counts. --trace-wall (requires --trace)
// attaches wall-clock args for profiling; such traces are excluded from
// determinism comparisons.
//
// Exit status: 0 when every invariant held on every point, 1 on any
// violation, 2 on usage / input errors.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "harness/runner.hpp"

using namespace cyc;

namespace {

constexpr const char* kTool = "scenario_runner";

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out FILE] [--spec FILE] [--threads N]"
               " [--engine-threads N] [--print] [--trace DIR]"
               " [--trace-wall]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "bench/out/SCENARIOS.json";
  std::string spec_path;
  unsigned threads = 0;
  std::uint64_t engine_threads = 1;
  bool print_artifact = false;
  std::string trace_dir;
  bool trace_wall = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!cli::parse_threads(kTool, "--threads", argv[++i], threads)) {
        return 2;
      }
    } else if (arg == "--engine-threads" && i + 1 < argc) {
      if (!cli::parse_positive_u64(kTool, "--engine-threads", argv[++i],
                                   engine_threads)) {
        return 2;
      }
      if (engine_threads > 0xffffffffull) {
        std::fprintf(stderr,
                     "%s: --engine-threads expects a positive 32-bit "
                     "integer\n",
                     kTool);
        return 2;
      }
    } else if (arg == "--print") {
      print_artifact = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_dir = argv[++i];
      if (!cli::ensure_output_dir(kTool, "--trace", trace_dir)) return 2;
    } else if (arg == "--trace-wall") {
      trace_wall = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Fail fast with a diagnostic — never run a half-loaded matrix or leave
  // an empty artifact behind on a bad --spec.
  std::vector<harness::ScenarioSpec> scenarios;
  if (spec_path.empty()) {
    scenarios = harness::default_matrix();
  } else {
    std::error_code ec;
    if (std::filesystem::is_directory(spec_path, ec)) {
      std::fprintf(stderr,
                   "scenario_runner: --spec %s is a directory, expected a "
                   "JSON scenario file\n",
                   spec_path.c_str());
      return 2;
    }
    errno = 0;
    std::ifstream in(spec_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "scenario_runner: cannot read --spec %s: %s\n",
                   spec_path.c_str(),
                   errno != 0 ? std::strerror(errno) : "open failed");
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) {
      std::fprintf(stderr, "scenario_runner: I/O error reading --spec %s\n",
                   spec_path.c_str());
      return 2;
    }
    try {
      scenarios = harness::ScenarioSpec::list_from_json(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario_runner: invalid --spec %s: %s\n",
                   spec_path.c_str(), e.what());
      return 2;
    }
  }

  // Execution-only knob: never serialized into the artifact, so the
  // outputs stay comparable across engine-thread counts.
  for (auto& spec : scenarios) {
    spec.options.engine_threads = static_cast<unsigned>(engine_threads);
  }

  if (trace_wall && trace_dir.empty()) {
    std::fprintf(stderr, "scenario_runner: --trace-wall requires --trace\n");
    return 2;
  }
  harness::TraceOptions trace_options;
  if (!trace_dir.empty()) {
    // Validated and created up front by cli::ensure_output_dir.
    trace_options.dir = trace_dir;
    trace_options.wall_clock = trace_wall;
  }

  const harness::MatrixResult result = harness::run_matrix(
      scenarios, threads, trace_dir.empty() ? nullptr : &trace_options);

  std::printf("=== Scenario matrix: %zu scenarios, %zu points ===\n",
              scenarios.size(), result.outcomes.size());
  std::printf("%-34s %-6s %-10s %-9s %-10s %-10s\n", "scenario", "seed",
              "committed", "offered", "recover", "verdict");
  for (const auto& o : result.outcomes) {
    std::printf("%-34s %-6llu %-10llu %-9llu %-10llu %s\n",
                o.scenario.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(o.committed),
                static_cast<unsigned long long>(o.offered),
                static_cast<unsigned long long>(o.recoveries),
                o.violations.empty() ? "ok" : "VIOLATION");
    for (const auto& v : o.violations) {
      std::printf("    [%s] round %llu: %s\n", v.invariant.c_str(),
                  static_cast<unsigned long long>(v.round), v.detail.c_str());
    }
  }
  std::printf("\ninvariant violations: %zu across %zu points -> %s\n",
              result.total_violations(), result.outcomes.size(),
              result.all_green() ? "ALL GREEN" : "FAILED");

  const std::string artifact = harness::matrix_json(scenarios, result);
  if (print_artifact) std::printf("%s\n", artifact.c_str());
  if (!out_path.empty()) {
    const auto parent = std::filesystem::path(out_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);  // best effort
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "scenario_runner: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    out << artifact << '\n';
    std::printf("artifact: %s\n", out_path.c_str());
  }
  if (!trace_dir.empty()) {
    std::printf("traces: %s (%zu files)\n", trace_dir.c_str(),
                result.outcomes.size());
  }

  return result.all_green() ? 0 : 1;
}
