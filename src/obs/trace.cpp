#include "obs/trace.hpp"

#include <chrono>
#include <cmath>

namespace cyc::obs {

namespace {

/// Args values are logically integers most of the time (message counts,
/// byte totals, node ids). Emit those as JSON integers so the artifact
/// never depends on printf float formatting for exact counters.
void write_arg_value(support::JsonWriter& json, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    json.value(static_cast<std::int64_t>(v));
  } else {
    json.value(v);
  }
}

void write_args(support::JsonWriter& json, const Tracer::Args& args,
                double wall_us) {
  json.key("args");
  json.begin_object();
  for (const auto& [k, v] : args) {
    json.key(k);
    write_arg_value(json, v);
  }
  if (wall_us >= 0.0) json.field("wall_us", wall_us);
  json.end_object();
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void Tracer::enable_wall_clock() {
  wall_clock_ = true;
  wall_epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

double Tracer::wall_now_us() const {
  if (!wall_clock_) return -1.0;
  const auto now = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return static_cast<double>(now - wall_epoch_ns_) * 1e-3;
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

void Tracer::push(Event ev) {
  ev.wall_us = wall_now_us();
  events_.push_back(std::move(ev));
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

void Tracer::begin(std::uint32_t track, std::string name, std::string category,
                   double ts) {
  push(Event{Type::kBegin, track, ts, std::move(name), std::move(category),
             {}});
}

void Tracer::end(std::uint32_t track, double ts, Args args) {
  push(Event{Type::kEnd, track, ts, {}, {}, std::move(args)});
}

void Tracer::instant(std::uint32_t track, std::string name,
                     std::string category, double ts, Args args) {
  push(Event{Type::kInstant, track, ts, std::move(name), std::move(category),
             std::move(args)});
}

void Tracer::counter(std::uint32_t track, std::string name, double ts,
                     Args series) {
  push(Event{Type::kCounter, track, ts, std::move(name), {},
             std::move(series)});
}

void Tracer::clear() {
  events_.clear();
  dropped_ = 0;
}

std::string Tracer::to_chrome_json(
    const std::function<void(support::JsonWriter&)>& extra) const {
  support::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("traceEvents");
  json.begin_array();
  // Metadata first: one process, one named thread per track.
  auto metadata = [&](std::uint64_t tid, const char* name, const char* key,
                      const auto& value) {
    json.begin_object();
    json.field("ph", "M");
    json.field("pid", 0);
    json.field("tid", tid);
    json.field("name", name);
    json.key("args");
    json.begin_object();
    json.field(key, value);
    json.end_object();
    json.end_object();
  };
  metadata(0, "process_name", "name", "cycledger");
  for (const auto& [track, name] : track_names_) {
    metadata(track, "thread_name", "name", name);
    // sort_index keeps tracks in id order regardless of first-event time.
    metadata(track, "thread_sort_index", "sort_index",
             static_cast<std::uint64_t>(track));
  }
  // Chrome trace phase of each event type, in Type order.
  static constexpr const char* kPhase[] = {"B", "E", "i", "C"};
  for (const auto& ev : events_) {
    json.begin_object();
    json.field("ph", kPhase[static_cast<std::size_t>(ev.type)]);
    json.field("pid", 0);
    json.field("tid", static_cast<std::uint64_t>(ev.track));
    // 1 simulated Delta-unit = 1 ms; "ts" is in microseconds.
    json.field("ts", ev.ts * 1000.0);
    if (!ev.name.empty()) json.field("name", ev.name);
    if (!ev.category.empty()) json.field("cat", ev.category);
    if (ev.type == Type::kInstant) json.field("s", "t");
    if (!ev.args.empty() || ev.wall_us >= 0.0) {
      write_args(json, ev.args, ev.wall_us);
    }
    json.end_object();
  }
  json.end_array();
  json.field("droppedEvents", dropped_);
  if (extra) extra(json);
  json.end_object();
  return json.str();
}

}  // namespace cyc::obs
