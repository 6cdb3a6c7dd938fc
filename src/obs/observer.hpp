// Observer: the tracer + metrics bundle an Engine records into.
//
// One Observer per engine (attach via Engine::attach_observer); only the
// engine writes into it, single-threaded, per the simulator contract. export_json() renders one Perfetto-loadable
// document: the Chrome trace with the metrics registry attached as a
// top-level "metrics" field (unknown top-level keys are ignored by
// trace viewers, so one file serves both consumers).
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cyc::obs {

struct Observer {
  Tracer trace;
  Registry metrics;

  explicit Observer(std::size_t trace_capacity = Tracer::kDefaultCapacity)
      : trace(trace_capacity) {}

  /// Chrome trace JSON with "metrics" embedded.
  std::string export_json() const;
};

/// Write export_json() to `path` (truncating). Throws std::runtime_error
/// with the strerror detail on failure.
void write_trace_file(const std::string& path, const Observer& observer);

}  // namespace cyc::obs
