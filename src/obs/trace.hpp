// Deterministic span/event tracer (Chrome trace_event JSON, Perfetto).
//
// Timestamps are **simulated time** (net::Time, units of Delta), so a
// trace is a pure function of (spec, seed): byte-identical across runs,
// hosts and thread counts. An opt-in wall-clock mode attaches real
// elapsed microseconds as an extra arg for profiling — artifacts with
// wall-clock args are excluded from determinism comparisons by
// construction (the mode is never enabled on compared paths).
//
// Span model (see src/obs/README.md): every event lives on a *track*
// (exported as a Chrome tid under one pid). Track 0 carries the
// protocol's round → phase span stack plus instant protocol events;
// tracks kTrackCommitteeBase + k mirror the phase schedule per
// committee with that committee's traffic attached as args. B/E events
// on one track nest by timestamp order, exactly like Chrome's own
// duration events.
//
// The buffer is a bounded ring: when full, the *oldest* events are
// dropped (and counted), keeping the tail of a long run — the part a
// failure triage needs — intact. Eviction is per *event*, not per
// span: a span's B event can be evicted while its E survives, leaving
// a dangling E in the Chrome JSON (viewers tolerate it; the paired B
// is exactly what droppedEvents accounts for). Filling the ring to
// exactly `capacity` drops nothing; droppedEvents counts evictions
// only, never the events still buffered.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace cyc::obs {

/// Well-known tracks. Committee k draws on kTrackCommitteeBase + k.
inline constexpr std::uint32_t kTrackProtocol = 0;
inline constexpr std::uint32_t kTrackNet = 1;
inline constexpr std::uint32_t kTrackMempool = 2;
inline constexpr std::uint32_t kTrackCommitteeBase = 16;

class Tracer {
 public:
  /// Numeric event args (counter values, ids, sizes). Integral values
  /// are exported as JSON integers, everything else via the artifact
  /// "%.10g" convention.
  using Args = std::vector<std::pair<std::string, double>>;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Attach real elapsed time (µs since construction) to every
  /// subsequent event as a "wall_us" arg. Off by default; never enable
  /// on a path whose artifact is byte-compared.
  void enable_wall_clock();

  /// Human-readable track label (Chrome thread_name metadata).
  void set_track_name(std::uint32_t track, std::string name);

  /// Open a duration span on `track` at simulated time `ts`.
  void begin(std::uint32_t track, std::string name, std::string category,
             double ts);
  /// Close the innermost open span on `track`; `args` attach to the
  /// closing event (Perfetto merges them into the slice).
  void end(std::uint32_t track, double ts, Args args = {});
  /// Zero-duration event (thread-scoped instant).
  void instant(std::uint32_t track, std::string name, std::string category,
               double ts, Args args = {});
  /// Counter sample: Perfetto renders one stacked series per arg key.
  void counter(std::uint32_t track, std::string name, double ts, Args series);

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events evicted from the ring so far.
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Render the Chrome trace_event document:
  ///   {"displayTimeUnit":"ms","traceEvents":[...], ...extra}
  /// `extra`, when given, writes additional top-level fields (Perfetto
  /// ignores unknown keys). Simulated time maps 1 Delta-unit = 1 ms.
  std::string to_chrome_json(
      const std::function<void(support::JsonWriter&)>& extra = {}) const;

 private:
  enum class Type : std::uint8_t { kBegin, kEnd, kInstant, kCounter };

  struct Event {
    Type type;
    std::uint32_t track;
    double ts;
    std::string name;      // empty on kEnd
    std::string category;  // empty on kEnd / kCounter
    Args args;
    double wall_us = -1.0;  // < 0: wall clock disabled at record time
  };

  void push(Event ev);
  double wall_now_us() const;

  std::size_t capacity_;
  std::deque<Event> events_;
  std::map<std::uint32_t, std::string> track_names_;
  std::uint64_t dropped_ = 0;
  bool wall_clock_ = false;
  std::uint64_t wall_epoch_ns_ = 0;  // steady_clock at enable time
};

}  // namespace cyc::obs
