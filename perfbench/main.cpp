// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Runs one workload in this process for about --seconds of host time and
// prints a human-readable summary followed, as the last line of stdout, by
// one JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics, all taken from untraced rounds; --trace 1
// adds a traced episode (obs::Observer with wall clock, benchmark spans,
// ledger / crypto / net replays) and reports the per-layer metrics. With
// --out the traced run's Chrome trace plus the benchmark's own spans are
// written to <dir>. Any failed correctness or determinism gate exits 1
// without a result line. See perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "support/json.hpp"
#include "support/math.hpp"

using namespace cyc;
using namespace cyc::perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Deterministic totals of a set of episodes (the first pass of a run, or
/// one traced episode).
struct Totals {
  std::uint64_t rounds = 0;
  std::uint64_t committed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t refused = 0;
  std::uint64_t invalid = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t peak_backlog = 0;
  std::uint64_t source_shortfall = 0;
  std::array<std::uint64_t, kPhaseSlots> msgs{};
  std::array<std::uint64_t, kPhaseSlots> bytes{};
  std::vector<double> latencies;  ///< refused transactions as +inf

  void add(const Episode& ep) {
    for (const RoundCounters& rc : ep.counters) {
      rounds += 1;
      committed += rc.committed;
      submitted += rc.submitted;
      refused += rc.refused;
      invalid += rc.invalid_committed;
      recoveries += rc.recoveries;
      peak_backlog = std::max(peak_backlog, rc.backlog);
      for (std::size_t p = 0; p < kPhaseSlots; ++p) {
        msgs[p] += rc.phase_msgs[p];
        bytes[p] += rc.phase_bytes[p];
      }
      latencies.insert(latencies.end(), rc.latencies.begin(),
                       rc.latencies.end());
    }
    if (!ep.counters.empty()) {
      source_shortfall += ep.counters.back().source_shortfall;
    }
  }
  std::uint64_t total_msgs() const {
    return std::accumulate(msgs.begin(), msgs.end(), std::uint64_t{0});
  }
  std::uint64_t total_bytes() const {
    return std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
  }
  double per_round(double v) const { return rounds ? v / rounds : 0.0; }
  double tx_fail_ratio() const {
    return submitted ? static_cast<double>(refused + invalid) / submitted : 0.0;
  }
};

void require_same(const Episode& a, const Episode& b, const std::string& what) {
  const std::size_t n = std::min(a.counters.size(), b.counters.size());
  for (std::size_t r = 0; r < n; ++r) {
    if (!(a.counters[r] == b.counters[r])) {
      throw GateFailure("determinism: " + what + " differs from the first run "
                        "of seed " + std::to_string(a.seed) + " in round " +
                        std::to_string(r + 1));
    }
  }
}

// --- result line ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      throw GateFailure("metric " + m.name + " is not finite");
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// --- traced episode --------------------------------------------------------

const std::vector<net::Phase>& protocol_phases() {
  static const std::vector<net::Phase> phases = {
      net::Phase::kCommitteeConfig, net::Phase::kSemiCommit,
      net::Phase::kIntraConsensus,  net::Phase::kInterConsensus,
      net::Phase::kReputation,      net::Phase::kSelection,
      net::Phase::kBlock};
  return phases;
}

struct PhaseWall {
  std::map<std::string, double> phase_ms;  ///< summed over rounds
  double round_span_ms = 0;                ///< traced round spans, summed
};

/// Per-phase wall time from the protocol track's B/E pairs (wall_us args).
PhaseWall phase_wall(const std::string& chrome_json) {
  PhaseWall out;
  const support::JsonValue doc = support::JsonValue::parse(chrome_json);
  const support::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) throw GateFailure("trace has no traceEvents");
  struct Open {
    std::string name;
    double wall_us;
  };
  std::vector<Open> stack;
  for (const support::JsonValue& ev : events->as_array()) {
    if (ev.number_or("tid", -1) != obs::kTrackProtocol) continue;
    const std::string ph = ev.string_or("ph", "");
    if (ph != "B" && ph != "E") continue;
    const support::JsonValue* args = ev.find("args");
    const double wall = args ? args->number_or("wall_us", -1) : -1;
    if (wall < 0) throw GateFailure("trace event without wall_us");
    if (ph == "B") {
      stack.push_back({ev.string_or("name", ""), wall});
      continue;
    }
    if (stack.empty()) throw GateFailure("unbalanced protocol-track span");
    const Open open = stack.back();
    stack.pop_back();
    const double ms = (wall - open.wall_us) * 1e-3;
    if (open.name.rfind("round ", 0) == 0) {
      out.round_span_ms += ms;
    } else {
      out.phase_ms[open.name] += ms;
    }
  }
  return out;
}

void write_trace(const std::string& dir, const Args& args,
                 const obs::Observer& observer, const SpanLog& spans) {
  std::filesystem::create_directories(dir);
  const std::string path = (std::filesystem::path(dir) /
                            (args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json"))
                               .string();
  const std::string json = observer.trace.to_chrome_json(
      [&](support::JsonWriter& w) {
        w.key("metrics");
        observer.metrics.to_json(w);
        w.key("benchSpans");
        w.begin_array();
        for (const Span& s : spans.spans()) {
          w.begin_object();
          w.field("name", s.name);
          w.field("episode", s.episode);
          w.field("round", s.round);
          w.field("start_us", s.start_us);
          w.field("dur_us", s.dur_us);
          w.end_object();
        }
        w.end_array();
      });
  std::ofstream out(path);
  out << json << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("trace: %s\n", path.c_str());
}

int run(const Args& args) {
  const Workload workload = make_workload(args.workload);
  const auto origin = Clock::now();
  const std::size_t k = workload.episode_seeds;

  // --- timed, untraced episodes ---
  // The run cycles through k episode seeds until the time budget is
  // spent, with at least one repeat. The episode expected to be the last
  // keeps its blocks for the ledger replay gate, which runs after the
  // peak-RSS reading so the mirror never counts as workload memory.
  std::vector<Episode> first_pass;
  std::vector<double> round_ms, setup_s, episode_ms;
  std::vector<double> seed0_round_ms;  ///< untraced twin of the traced episode
  std::uint64_t attempted = 0, failed = 0, arrivals_in_recovery = 0;
  double rss_mb = 0;
  LedgerReplay gate_replay;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_between(origin, Clock::now()) / 1e3;
    const double expected = episode_ms.empty() ? 0 : median(episode_ms) / 1e3;
    const bool last = i >= k && elapsed + expected >= args.seconds;
    EpisodeOptions opt;
    opt.index = i;
    if (last) {
      opt.at_end = [&](const protocol::Engine& engine,
                       const std::vector<ledger::Block>& blocks,
                       const std::vector<epoch::EpochHandoff>& handoffs) {
        rss_mb = peak_rss_mb();
        gate_replay = replay_ledger(engine, blocks, handoffs, nullptr, i);
      };
    }
    const auto e0 = Clock::now();
    Episode ep = run_episode(workload, episode_seed(args.seed, i % k), opt);
    episode_ms.push_back(ms_between(e0, Clock::now()));
    setup_s.push_back(ep.setup_s);
    for (const RoundTiming& t : ep.timings) {
      round_ms.push_back(t.wall_ms);
      if (i % k == 0) seed0_round_ms.push_back(t.wall_ms);
    }
    for (const RoundCounters& rc : ep.counters) {
      attempted += rc.submitted;
      failed += rc.refused + rc.invalid_committed;
    }
    if (i < k) {
      arrivals_in_recovery += ep.arrivals_during_recovery;
      first_pass.push_back(std::move(ep));
    } else {
      require_same(first_pass[i % k], ep, "a repeated episode");
    }
    if (last) break;
  }

  Totals totals;
  for (const Episode& ep : first_pass) totals.add(ep);

  if (workload.cross_thread_check) {
    EpisodeOptions opt;
    opt.max_rounds = 1;
    opt.engine_threads = 1;
    const Episode single = run_episode(workload, first_pass[0].seed, opt);
    require_same(first_pass[0], single, "engine_threads 1");
  }

  const double round_wall_ms = median(round_ms);
  const double committed_per_round = totals.per_round(totals.committed);
  const math::SortedSample latency([&] {
    std::vector<double> l = totals.latencies;
    l.insert(l.end(), totals.refused, INFINITY);
    return l;
  }());
  const std::size_t n = round_ms.size();
  const double tail_q = n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 0.0;
  std::printf("workload %s seed %llu: %zu episodes (%zu seeds), %zu rounds "
              "timed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              setup_s.size(), k, n);
  std::printf("  round wall: median %.3f ms, p%.0f %.3f ms (%zu samples); "
              "setup median %.4f s\n",
              round_wall_ms, tail_q * 100,
              math::SortedSample(round_ms).percentile(tail_q), n,
              median(setup_s));
  std::printf("  committed/round %.2f, submitted %llu, refused %llu, "
              "arrivals during leader replacement %llu\n",
              committed_per_round,
              static_cast<unsigned long long>(totals.submitted),
              static_cast<unsigned long long>(totals.refused),
              static_cast<unsigned long long>(arrivals_in_recovery));
  std::printf("  ledger gate: %llu blocks / %llu txs replayed, digests match\n",
              static_cast<unsigned long long>(gate_replay.blocks),
              static_cast<unsigned long long>(gate_replay.txs));

  if (args.trace == 0) {
    const double committed = static_cast<double>(totals.committed);
    print_result(
        attempted, failed,
        {{"setup_s", median(setup_s), "s"},
         {"round_wall_ms", round_wall_ms, "ms"},
         {"sim_tx_per_s", committed_per_round / (round_wall_ms / 1e3), "1/s"},
         {"peak_rss_mb", rss_mb, "MiB"},
         {"committed_per_round", committed_per_round, "tx"},
         {"msgs_per_tx", totals.total_msgs() / committed, "msg/tx"},
         {"bytes_per_tx", totals.total_bytes() / committed, "B/tx"},
         {"commit_latency_p50", latency.percentile(0.50), "delta"},
         {"commit_latency_p99", latency.percentile(0.99), "delta"}});
    return 0;
  }

  // --- traced episode: per-layer metrics ---
  obs::Observer observer(std::size_t{1} << 24);
  observer.trace.enable_wall_clock();
  SpanLog spans(origin);
  LedgerReplay replay;
  EpisodeOptions opt;
  opt.index = 0;
  opt.observer = &observer;
  opt.spans = &spans;
  opt.at_end = [&](const protocol::Engine& engine,
                   const std::vector<ledger::Block>& blocks,
                   const std::vector<epoch::EpochHandoff>& handoffs) {
    replay = replay_ledger(engine, blocks, handoffs, &spans, 0);
  };
  const Episode traced = run_episode(workload, first_pass[0].seed, opt);
  require_same(first_pass[0], traced, "the traced episode");
  Totals t;
  t.add(traced);
  const double rounds = static_cast<double>(t.rounds);

  const PhaseWall walls = phase_wall(observer.trace.to_chrome_json());
  double phase_sum = 0;
  for (const auto& [name, ms] : walls.phase_ms) phase_sum += ms;
  double run_round_ms = 0, boundary_ms = 0, check_ms = 0;
  std::size_t boundaries = 0;
  std::vector<double> traced_round_ms;
  for (const RoundTiming& rt : traced.timings) {
    run_round_ms += rt.run_round_ms;
    boundary_ms += rt.boundary_ms;
    boundaries += rt.boundary_ms > 0 ? 1 : 0;
    check_ms += rt.check_ms;
    traced_round_ms.push_back(rt.wall_ms);
  }
  const double engine_ms = run_round_ms - boundary_ms;
  const double unattributed_ms = engine_ms - phase_sum;
  std::printf("  traced: phases %.2f ms + unattributed %.2f ms = run_round "
              "%.2f ms; traced round spans %.2f ms\n",
              phase_sum, unattributed_ms, engine_ms, walls.round_span_ms);
  if (unattributed_ms < 0 ||
      std::fabs(walls.round_span_ms - phase_sum) > 0.05 * engine_ms) {
    throw GateFailure("traced phases do not tile the round span");
  }
  if (observer.trace.dropped() != 0) {
    throw GateFailure("trace ring dropped " +
                      std::to_string(observer.trace.dropped()) + " events");
  }

  const CryptoTiming crypto_t = time_crypto(args.seed, &spans);
  std::array<std::uint64_t, kPhaseSlots> msgs_per_round{}, bytes_per_round{};
  for (std::size_t p = 0; p < kPhaseSlots; ++p) {
    msgs_per_round[p] = t.msgs[p] / t.rounds;
    bytes_per_round[p] = t.bytes[p] / t.rounds;
  }
  const double dispatch_us = time_dispatch_us_per_msg(
      workload.params.universe(), msgs_per_round, bytes_per_round, args.seed,
      &spans);

  std::vector<Metric> metrics;
  for (net::Phase phase : protocol_phases()) {
    const std::string name(net::phase_name(phase));
    const auto it = walls.phase_ms.find(name);
    metrics.push_back({"protocol.phase_wall_ms." + name,
                       it == walls.phase_ms.end() ? 0.0 : it->second / rounds,
                       "ms"});
  }
  metrics.push_back({"protocol.unattributed_wall_ms", unattributed_ms / rounds, "ms"});
  for (net::Phase phase : protocol_phases()) {
    const auto p = static_cast<std::size_t>(phase);
    metrics.push_back({"protocol.phase_msgs." + std::string(net::phase_name(phase)),
                       t.per_round(static_cast<double>(t.msgs[p])), "msg"});
  }
  for (net::Phase phase : protocol_phases()) {
    const auto p = static_cast<std::size_t>(phase);
    metrics.push_back({"protocol.phase_bytes." + std::string(net::phase_name(phase)),
                       t.per_round(static_cast<double>(t.bytes[p])), "B"});
  }
  const LayerCounters& lc = traced.layers;
  const double verifies = static_cast<double>(lc.verify_hits + lc.verify_misses);
  metrics.insert(
      metrics.end(),
      {{"protocol.recoveries_per_round", t.per_round(t.recoveries), "count"},
       {"net.payload_allocs_per_round", lc.payload_allocs / rounds, "count"},
       {"net.payload_mb_per_round", lc.payload_bytes / rounds / 1e6, "MB"},
       {"net.dispatch_us_per_msg", dispatch_us, "us"},
       {"crypto.verify_misses_per_round", lc.verify_misses / rounds, "count"},
       {"crypto.verify_hit_ratio", verifies > 0 ? lc.verify_hits / verifies : 0.0,
        "ratio"},
       {"crypto.sign_us", crypto_t.sign_us, "us"},
       {"crypto.verify_us", crypto_t.verify_us, "us"},
       {"consensus.certs_per_round", lc.certs / rounds, "count"},
       {"ledger.block_serde_us", replay.block_serde_us, "us"},
       {"ledger.verify_tx_us", replay.verify_tx_us, "us"},
       {"ledger.utxo_apply_us", replay.utxo_apply_us, "us"},
       {"ledger.mempool_peak_backlog", static_cast<double>(t.peak_backlog), "tx"},
       {"ledger.source_shortfall", static_cast<double>(t.source_shortfall), "tx"},
       {"tx_fail_ratio", totals.tx_fail_ratio(), "ratio"},
       {"epoch.boundary_ms", boundaries ? boundary_ms / boundaries : 0.0, "ms"},
       {"epoch.migrated_outputs", static_cast<double>(lc.migrated_outputs), "count"},
       {"harness.check_ms_per_round", check_ms / rounds, "ms"},
       {"obs.trace_overhead_ratio", median(traced_round_ms) / median(seed0_round_ms),
        "ratio"},
       {"obs.dropped_events", static_cast<double>(observer.trace.dropped()),
        "count"}});
  if (!args.out.empty()) write_trace(args.out, args, observer, spans);
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const GateFailure& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: FAILED GATE: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
  }
  return 1;
}
