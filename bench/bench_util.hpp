// Shared helpers for the macro benchmarks: per-phase traffic totals and
// the BENCH_*.json artifact convention.
//
// Artifact contract: every ported bench writes
//   bench/out/BENCH_<name>.json   (or the path given as argv[1])
// with its parameters and per-sweep-point protocol numbers (committed
// transactions, messages, bytes, simulated latencies). Every field is a
// pure function of the code and the fixed seeds, so two runs of a bench
// produce byte-identical artifacts and scripts/run_benches.sh gates on
// exactly that. Host time is not a protocol number: the sweep points
// share one pool, so a clock here would measure contention. Wall-clock
// figures come from perfbench, which times one workload at a time.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "protocol/report.hpp"
#include "support/json.hpp"

namespace cyc::bench {

/// Accumulate one round's per-phase traffic, summed over roles (every
/// node holds exactly one role per round, so the role sum covers each
/// node once). `totals` is indexed by net::Phase.
inline void add_phase_totals(std::vector<net::Counter>& totals,
                             const protocol::RoundReport& round) {
  totals.resize(static_cast<std::size_t>(net::Phase::kCount));
  for (const auto& [role, per_phase] : round.traffic_by_role_phase) {
    const std::size_t n =
        per_phase.size() < totals.size() ? per_phase.size() : totals.size();
    for (std::size_t p = 0; p < n; ++p) totals[p] += per_phase[p];
  }
}

/// Per-phase traffic totals of one round / a whole run.
inline std::vector<net::Counter> phase_totals(
    const protocol::RoundReport& round) {
  std::vector<net::Counter> totals;
  add_phase_totals(totals, round);
  return totals;
}
inline std::vector<net::Counter> phase_totals(
    const protocol::RunReport& report) {
  std::vector<net::Counter> totals;
  for (const auto& round : report.rounds) add_phase_totals(totals, round);
  return totals;
}

/// Emit the "phases" breakdown section: one object per phase that saw
/// traffic.
inline void write_phase_breakdown(support::JsonWriter& json,
                                  const std::vector<net::Counter>& totals) {
  json.key("phases");
  json.begin_array();
  for (std::size_t p = 0; p < totals.size(); ++p) {
    const net::Counter& c = totals[p];
    if (c.msgs_sent == 0 && c.msgs_recv == 0) continue;
    json.begin_object();
    json.field("phase", std::string(net::phase_name(static_cast<net::Phase>(p))));
    json.field("msgs_sent", c.msgs_sent);
    json.field("bytes_sent", c.bytes_sent);
    json.field("msgs_recv", c.msgs_recv);
    json.field("bytes_recv", c.bytes_recv);
    json.end_object();
  }
  json.end_array();
}

/// Write the artifact. `name` is the bench name without the BENCH_ prefix
/// (e.g. "throughput_scalability"); argv[1], when present, overrides the
/// output path entirely.
inline void write_artifact(const std::string& name,
                           const support::JsonWriter& json, int argc,
                           char** argv) {
  std::filesystem::path path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = std::filesystem::path("bench") / "out" / ("BENCH_" + name + ".json");
  }
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "\nerror: cannot write artifact to '%s'\n",
                 path.string().c_str());
    return;
  }
  out << json.str() << "\n";
  std::printf("\nartifact: %s\n", path.string().c_str());
}

}  // namespace cyc::bench
