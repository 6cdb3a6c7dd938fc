#include "harness/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <limits>
#include <stdexcept>

namespace cyc::harness {

namespace {

using protocol::Behavior;
using support::JsonValue;
using support::JsonWriter;

constexpr std::array<Behavior, 10> kAllBehaviors = {
    Behavior::kHonest,       Behavior::kCrash,       Behavior::kEquivocator,
    Behavior::kCommitForger, Behavior::kConcealer,   Behavior::kInverseVoter,
    Behavior::kRandomVoter,  Behavior::kLazyVoter,   Behavior::kImitator,
    Behavior::kFramer,
};

// --- Field lists ------------------------------------------------------------
//
// Every struct a spec carries states its JSON keys once, in encoding
// order. JsonOut (to_json) and JsonIn (from_json) walk the same list, so
// the two directions cannot drift apart. `io.when(on)` opens a group the
// writer emits only while `on` holds; the reader always accepts it. A key
// marked kRequired must be present when reading.

constexpr bool kRequired = true;

/// Matches T and const T, so one list serves the writer and the reader.
template <class Self, class T>
concept Is = std::same_as<std::remove_const_t<Self>, T>;

void fields(auto& io, Is<protocol::Params> auto& p) {
  io("m", p.m);
  io("c", p.c);
  io("lambda", p.lambda);
  io("referee_size", p.referee_size);
  io("txs_per_committee", p.txs_per_committee);
  io("cross_shard_fraction", p.cross_shard_fraction);
  io("invalid_fraction", p.invalid_fraction);
  io("users", p.users);
  // The open-loop source is inert at rate 0 and zipf_s / mempool_cap mean
  // nothing without it, so closed-loop specs omit the group.
  if (io.when(p.arrival_rate > 0.0)) {
    io("arrival_rate", p.arrival_rate);
    io("zipf_s", p.zipf_s);
    io("mempool_cap", p.mempool_cap);
  }
  if (io.when(p.rebalance)) {
    io("rebalance", p.rebalance);
    io("rebalance_moves", p.rebalance_moves);
    io("rebalance_split_budget", p.rebalance_split_budget);
  }
  io("capacity_min", p.capacity_min);
  io("capacity_max", p.capacity_max);
  io("standby", p.standby);
  io("seed", p.seed);
  io("delta", p.delays.delta);
  io("gamma", p.delays.gamma);
  io("jitter", p.delays.jitter);
  if (io.when(p.faults.any())) {
    io("fault_drop", p.faults.drop);
    io("fault_duplicate", p.faults.duplicate);
    io("fault_reorder", p.faults.reorder);
  }
  io("config_duration", p.config_duration);
  io("semicommit_duration", p.semicommit_duration);
  io("intra_duration", p.intra_duration);
  io("inter_duration", p.inter_duration);
  io("reputation_duration", p.reputation_duration);
  io("selection_duration", p.selection_duration);
  io("block_duration", p.block_duration);
}

void fields(auto& io, Is<protocol::AdversaryConfig::Weight> auto& e) {
  io("behavior", e.behavior, kRequired);
  io("weight", e.weight);
}

void fields(auto& io, Is<protocol::AdversaryConfig> auto& a) {
  io("corrupt_fraction", a.corrupt_fraction);
  io("forced_corrupt_leader_fraction", a.forced_corrupt_leader_fraction);
  io("mix", a.mix);
}

// engine_threads is an execution knob, not protocol state: never listed.
void fields(auto& io, Is<protocol::EngineOptions> auto& o) {
  io("recovery_enabled", o.recovery_enabled);
  io("reputation_leader_selection", o.reputation_leader_selection);
  io("extension_precommunication", o.extension_precommunication);
  io("extension_parallel_blocks", o.extension_parallel_blocks);
}

void fields(auto& io, Is<ScenarioSpec> auto& s) {
  io("name", s.name);
  io("params", s.params);
  io("adversary", s.adversary);
  io("options", s.options);
  io("rounds", s.rounds);
  io("epochs", s.epochs);
  io("churn_rate", s.churn_rate);
  io("seeds", s.seeds);
  io("events", s.events);
}

// --- Walkers ----------------------------------------------------------------

[[noreturn]] void fail_field(std::string_view key, std::string_view what) {
  throw std::runtime_error("scenario: field '" + std::string(key) + "' " +
                           std::string(what));
}

// Checked double -> unsigned conversion: a negative, out-of-range or
// fractional number in a spec is a user error worth a diagnostic, and
// casting a negative double to an unsigned type is undefined behaviour.
template <std::unsigned_integral T>
T checked_uint(double value, std::string_view key) {
  if (value < 0.0 ||
      value >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    fail_field(key, sizeof(T) == 4 ? "must fit in an unsigned 32-bit integer"
                                   : "must be a non-negative integer");
  }
  if (value != std::floor(value)) fail_field(key, "must be an integer");
  return static_cast<T>(value);
}

void event_to_json(JsonWriter& w, const ScenarioEvent& ev);
ScenarioEvent event_from_json(const JsonValue& v);

class JsonOut {
 public:
  explicit JsonOut(JsonWriter& w) : w_(w) {}
  static bool when(bool on) { return on; }
  void operator()(std::string_view key, const auto& value, bool = false) {
    w_.key(key);
    write(value);
  }

  void write(Behavior b) { w_.value(behavior_token(b)); }
  void write(const ScenarioEvent& ev) { event_to_json(w_, ev); }
  template <class T>
  void write(const std::vector<T>& items) {
    w_.begin_array();
    for (const T& item : items) write(item);
    w_.end_array();
  }
  template <class T>
  void write(const T& v) {
    if constexpr (requires { w_.value(v); }) {
      w_.value(v);  // numbers, booleans, strings
    } else {
      w_.begin_object();
      fields(*this, v);
      w_.end_object();
    }
  }

 private:
  JsonWriter& w_;
};

/// Reads one JSON object. Absent keys keep the target's current value; a
/// present key must hold its field's type, and finish() rejects any key
/// the walked list did not name.
class JsonIn {
 public:
  JsonIn(const JsonValue& object, std::string_view key) : object_(object) {
    if (!object.is_object()) fail_field(key, "must be an object");
  }
  static bool when(bool) { return true; }
  void operator()(std::string_view key, auto& out, bool required = false) {
    known_.push_back(key);
    if (const JsonValue* v = object_.find(key)) {
      read(*v, key, out);
    } else if (required) {
      throw std::runtime_error("scenario: missing key '" + std::string(key) +
                               "'");
    }
  }
  void finish() const {
    for (const auto& [key, value] : object_.as_object()) {
      if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
        throw std::runtime_error("scenario: unknown key '" + key + "'");
      }
    }
  }

  static void read(const JsonValue& v, std::string_view key,
                   std::string& out) {
    if (!v.is_string()) fail_field(key, "must be a string");
    out = v.as_string();
  }
  static void read(const JsonValue& v, std::string_view key, bool& out) {
    if (!v.is_bool()) fail_field(key, "must be a boolean");
    out = v.as_bool();
  }
  static void read(const JsonValue& v, std::string_view key, double& out) {
    if (!v.is_number()) fail_field(key, "must be a number");
    out = v.as_number();
  }
  template <std::unsigned_integral T>
  static void read(const JsonValue& v, std::string_view key, T& out) {
    double number = 0.0;
    read(v, key, number);
    out = checked_uint<T>(number, key);
  }
  static void read(const JsonValue& v, std::string_view key, Behavior& out) {
    std::string token;
    read(v, key, token);
    if (!behavior_from_token(token, out)) {
      throw std::runtime_error("scenario: unknown behavior '" + token + "'");
    }
  }
  static void read(const JsonValue& v, std::string_view, ScenarioEvent& out) {
    out = event_from_json(v);
  }
  template <class T>
  static void read(const JsonValue& v, std::string_view key,
                   std::vector<T>& out) {
    if (!v.is_array()) fail_field(key, "must be an array");
    out.clear();
    for (const JsonValue& entry : v.as_array()) {
      read(entry, key, out.emplace_back());
    }
  }
  static void read(const JsonValue& v, std::string_view key, auto& out) {
    JsonIn in(v, key);
    fields(in, out);
    in.finish();
  }

 private:
  const JsonValue& object_;
  std::vector<std::string_view> known_;
};

// --- Events -----------------------------------------------------------------
//
// Events keep a hand-written codec: the keys they carry depend on their
// kind and target.

constexpr std::pair<ScenarioEvent::Kind, std::string_view> kEventKinds[] = {
    {ScenarioEvent::Kind::kCorrupt, "corrupt"},
    {ScenarioEvent::Kind::kCrash, "crash"},
    {ScenarioEvent::Kind::kRestart, "restart"},
    {ScenarioEvent::Kind::kPartition, "partition"},
    {ScenarioEvent::Kind::kHeal, "heal"},
    {ScenarioEvent::Kind::kBlackout, "blackout"},
};
constexpr std::pair<ScenarioEvent::Target, std::string_view> kEventTargets[] = {
    {ScenarioEvent::Target::kNode, "node"},
    {ScenarioEvent::Target::kLeaderOf, "leader-of"},
    {ScenarioEvent::Target::kRefereeAt, "referee-at"},
    {ScenarioEvent::Target::kCommittee, "committee"},
};

template <class E, std::size_t N>
std::string_view token_of(const std::pair<E, std::string_view> (&table)[N],
                          E value) {
  for (const auto& [e, token] : table) {
    if (e == value) return token;
  }
  return table[0].second;
}

template <class E, std::size_t N>
E from_token(const std::pair<E, std::string_view> (&table)[N],
             std::string_view token, std::string_view what) {
  for (const auto& [e, t] : table) {
    if (t == token) return e;
  }
  throw std::runtime_error("scenario: unknown event " + std::string(what) +
                           " '" + std::string(token) + "'");
}

void event_to_json(JsonWriter& w, const ScenarioEvent& ev) {
  // Omit-when-default keeps legacy (corrupt-only) specs byte-identical
  // to their pre-fault-fabric encoding.
  w.begin_object();
  w.field("round", ev.round);
  if (ev.kind != ScenarioEvent::Kind::kCorrupt) {
    w.field("kind", token_of(kEventKinds, ev.kind));
  }
  w.field("target", token_of(kEventTargets, ev.target));
  if (ev.target == ScenarioEvent::Target::kNode) {
    w.field("node", ev.node);
  } else {
    w.field("committee", ev.committee);
  }
  if (ev.kind == ScenarioEvent::Kind::kCorrupt) {
    w.field("behavior", behavior_token(ev.behavior));
  }
  if (ev.kind == ScenarioEvent::Kind::kPartition ||
      ev.kind == ScenarioEvent::Kind::kBlackout) {
    w.field("duration", ev.duration);
  }
  w.end_object();
}

ScenarioEvent event_from_json(const JsonValue& v) {
  ScenarioEvent ev;
  std::string kind = "corrupt";
  std::string target = "node";
  net::NodeId node = ev.node;
  std::uint32_t committee = ev.committee;
  JsonIn in(v, "events");
  in("round", ev.round);
  in("kind", kind);
  in("target", target);
  in("node", node);
  in("committee", committee);
  in("behavior", ev.behavior);
  in("duration", ev.duration);
  in.finish();
  ev.kind = from_token(kEventKinds, kind, "kind");
  ev.target = from_token(kEventTargets, target, "target");
  // Only the id the target uses is kept; the writer emits only that one.
  if (ev.target == ScenarioEvent::Target::kNode) {
    ev.node = node;
  } else {
    ev.committee = committee;
  }
  if (ev.duration == 0) {
    throw std::runtime_error("scenario: event duration must be > 0");
  }
  return ev;
}

}  // namespace

std::string_view behavior_token(Behavior b) {
  return protocol::behavior_name(b);
}

bool behavior_from_token(std::string_view token, Behavior& out) {
  for (Behavior b : kAllBehaviors) {
    if (protocol::behavior_name(b) == token) {
      out = b;
      return true;
    }
  }
  return false;
}

ScenarioSpec ScenarioSpec::from_json(const JsonValue& v) {
  if (!v.is_object()) {
    throw std::runtime_error("scenario: expected a JSON object");
  }
  ScenarioSpec spec;
  JsonIn::read(v, "scenario", spec);
  if (spec.params.arrival_rate > 0.0 && spec.params.mempool_cap == 0) {
    // A zero-capacity mempool silently drops every open-loop arrival —
    // reject the spec instead of running a vacuous experiment.
    throw std::runtime_error(
        "scenario: mempool_cap must be > 0 when arrival_rate > 0 (a "
        "zero-capacity mempool drops every arrival)");
  }
  if (spec.rounds == 0) throw std::runtime_error("scenario: rounds must be > 0");
  if (spec.epochs == 0) throw std::runtime_error("scenario: epochs must be > 0");
  if (spec.churn_rate < 0.0 || spec.churn_rate > 1.0) {
    throw std::runtime_error("scenario: churn_rate must be in [0, 1]");
  }
  if (spec.seeds.empty()) {
    throw std::runtime_error("scenario: seeds must be non-empty");
  }
  return spec;
}

std::vector<ScenarioSpec> ScenarioSpec::list_from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  std::vector<ScenarioSpec> specs;
  if (doc.is_array()) {
    for (const auto& entry : doc.as_array()) specs.push_back(from_json(entry));
  } else if (const JsonValue* list = doc.find("scenarios")) {
    for (const auto& entry : list->as_array()) specs.push_back(from_json(entry));
  } else {
    specs.push_back(from_json(doc));
  }
  if (specs.empty()) throw std::runtime_error("scenario: empty scenario list");
  return specs;
}

void ScenarioSpec::to_json(JsonWriter& w) const { JsonOut(w).write(*this); }

std::string ScenarioSpec::to_json_text() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

ScenarioSpec ScenarioSpec::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

std::vector<ScenarioSpec> build_matrix(const MatrixAxes& axes) {
  auto adversaries = axes.adversaries;
  if (adversaries.empty()) adversaries.push_back({"honest", {}});
  auto delays = axes.delays;
  if (delays.empty()) delays.push_back({"base", axes.base.delays});
  auto cross = axes.cross_shard_fractions;
  if (cross.empty()) cross.push_back(axes.base.cross_shard_fraction);
  auto capacities = axes.capacities;
  if (capacities.empty()) {
    capacities.push_back({axes.base.capacity_min, axes.base.capacity_max});
  }
  // The newer axes keep legacy scenario names stable: an empty axis
  // contributes the base value and no name segment.
  const bool shapes_swept = !axes.committee_shapes.empty();
  auto shapes = axes.committee_shapes;
  if (shapes.empty()) shapes.push_back({axes.base.m, axes.base.c});
  const bool invalid_swept = !axes.invalid_fractions.empty();
  auto invalids = axes.invalid_fractions;
  if (invalids.empty()) invalids.push_back(axes.base.invalid_fraction);
  const bool epochs_swept = !axes.epoch_points.empty();
  auto epoch_points = axes.epoch_points;
  if (epoch_points.empty()) epoch_points.push_back({1, 0.0});
  const bool rebalance_swept = !axes.rebalance_modes.empty();
  auto rebalances = axes.rebalance_modes;
  if (rebalances.empty()) rebalances.push_back(axes.base.rebalance);

  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };

  std::vector<ScenarioSpec> out;
  for (const auto& [adv_name, adv] : adversaries) {
    for (const auto& [delay_name, delay] : delays) {
      for (const double frac : cross) {
        for (const auto& [cap_min, cap_max] : capacities) {
          for (const auto& [m, c] : shapes) {
            for (const double invalid : invalids) {
              for (const auto& [epochs, churn] : epoch_points) {
                for (const bool rebalance : rebalances) {
                  ScenarioSpec spec;
                  spec.params = axes.base;
                  spec.params.delays = delay;
                  spec.params.cross_shard_fraction = frac;
                  spec.params.capacity_min = cap_min;
                  spec.params.capacity_max = cap_max;
                  spec.params.m = m;
                  spec.params.c = c;
                  spec.params.invalid_fraction = invalid;
                  spec.params.rebalance = rebalance;
                  spec.adversary = adv;
                  spec.options = axes.options;
                  spec.rounds = axes.rounds;
                  spec.epochs = epochs;
                  spec.churn_rate = churn;
                  spec.seeds = axes.seeds;
                  spec.name = adv_name + "/" + delay_name + "/x" + fmt(frac) +
                              "/cap" + std::to_string(cap_min) + "-" +
                              std::to_string(cap_max);
                  if (shapes_swept) {
                    spec.name += "/m" + std::to_string(m) + "c" +
                                 std::to_string(c);
                  }
                  if (invalid_swept) spec.name += "/inv" + fmt(invalid);
                  if (epochs_swept) {
                    spec.name += "/e" + std::to_string(epochs) + "ch" +
                                 fmt(churn);
                  }
                  if (rebalance_swept) {
                    spec.name += rebalance ? "/rebal" : "/static";
                  }
                  out.push_back(std::move(spec));
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<ScenarioSpec> default_matrix() {
  MatrixAxes axes;
  axes.base.m = 3;
  axes.base.c = 9;
  axes.base.lambda = 3;
  axes.base.referee_size = 5;
  axes.base.txs_per_committee = 10;
  axes.base.invalid_fraction = 0.1;
  axes.base.users = 20 * axes.base.m;
  // ROADMAP growth: 3 rounds (reputation-ranked re-selection gets a
  // full cycle on every crossed point) and a third seed per scenario.
  axes.rounds = 3;
  axes.seeds = {1, 2, 3};

  // Adversary axis: honest baseline, misvoting members, and the leader
  // attacks that force the impeachment / recovery path.
  protocol::AdversaryConfig voters;
  voters.corrupt_fraction = 0.25;
  voters.mix = {{protocol::Behavior::kInverseVoter, 1.0},
                {protocol::Behavior::kRandomVoter, 1.0},
                {protocol::Behavior::kLazyVoter, 1.0}};
  protocol::AdversaryConfig leaders;
  leaders.corrupt_fraction = 0.15;
  leaders.forced_corrupt_leader_fraction = 0.67;
  leaders.mix = {{protocol::Behavior::kCrash, 1.0},
                 {protocol::Behavior::kEquivocator, 1.0},
                 {protocol::Behavior::kCommitForger, 1.0},
                 {protocol::Behavior::kConcealer, 1.0}};
  axes.adversaries = {
      {"honest", {}}, {"voters", voters}, {"leaders", leaders}};

  // Delay axis: the paper's default regime and a slower, jitterier
  // partial-sync regime (delivery reordering on non-key links).
  net::DelayModel lan;  // delta 1, gamma 5, jitter 1
  net::DelayModel jittery;
  jittery.delta = 1.0;
  jittery.gamma = 7.0;
  jittery.jitter = 3.0;
  axes.delays = {{"lan", lan}, {"jittery", jittery}};

  axes.cross_shard_fractions = {0.1, 0.4};
  // 4..16 straddles the 10-tx list length, so skewed nodes actually vote
  // Unknown on list tails (uniform 64 never does).
  axes.capacities = {{64, 64}, {4, 16}};
  std::vector<ScenarioSpec> matrix = build_matrix(axes);

  // Mid-run churn scenarios on top of the crossed axes: corruption
  // requested while the run is in flight (effective one round later,
  // §III-C), hitting a committee leader and a referee seat.
  {
    // An equivocating leader (crash would sit out the next selection and
    // never regain a role; equivocators stay active, keep their
    // reputation rank, and get re-selected — then caught).
    ScenarioSpec churn;
    churn.name = "churn/leader-equivocate";
    churn.params = axes.base;
    churn.rounds = 3;
    churn.seeds = axes.seeds;
    churn.events.push_back({1, ScenarioEvent::Target::kLeaderOf, 0, 0,
                            protocol::Behavior::kEquivocator});
    matrix.push_back(churn);

    ScenarioSpec referee_churn;
    referee_churn.name = "churn/referee-crash";
    referee_churn.params = axes.base;
    referee_churn.rounds = 3;
    referee_churn.seeds = axes.seeds;
    referee_churn.events.push_back({1, ScenarioEvent::Target::kRefereeAt, 0, 0,
                                    protocol::Behavior::kCrash});
    referee_churn.events.push_back({2, ScenarioEvent::Target::kRefereeAt, 0, 1,
                                    protocol::Behavior::kCrash});
    matrix.push_back(referee_churn);
  }

  // Committee-shape point: more, smaller committees than the base shape
  // (the c/m axis ROADMAP listed as unswept) — committee configuration,
  // sortition spread and the cross-shard mesh all scale with m.
  {
    ScenarioSpec shape;
    shape.name = "shape/m4c6";
    shape.params = axes.base;
    shape.params.m = 4;
    shape.params.c = 6;
    shape.params.lambda = 2;
    shape.params.users = 20 * shape.params.m;
    shape.rounds = 2;
    shape.seeds = axes.seeds;
    matrix.push_back(shape);
  }

  // High invalid-fraction point: a third of the offered workload is
  // ground-truth invalid, so the §IV-G drop path (and with it flow
  // conservation at dropped > 0) is exercised, not just the happy path.
  {
    ScenarioSpec invalid;
    invalid.name = "invalid/x0.3";
    invalid.params = axes.base;
    invalid.params.invalid_fraction = 0.3;
    invalid.rounds = 2;
    invalid.seeds = axes.seeds;
    matrix.push_back(invalid);
  }

  // Fault-fabric scenarios (tentpole): a committee partitioned below
  // quorum then healed, a crash -> restart -> referee catch-up lifecycle,
  // and probabilistic loss on the wide-area links. All must stay green:
  // the invariant checker parks commit-or-recover for severed / lossy
  // points but keeps every safety check armed.
  {
    ScenarioSpec partition;
    partition.name = "faults/partition-heal";
    partition.params = axes.base;
    partition.rounds = 4;
    partition.seeds = axes.seeds;
    ScenarioEvent cut;
    cut.round = 2;
    cut.kind = ScenarioEvent::Kind::kPartition;
    cut.target = ScenarioEvent::Target::kCommittee;
    cut.committee = 0;
    cut.duration = 2;  // would cover rounds 2-3...
    partition.events.push_back(cut);
    ScenarioEvent heal;
    heal.round = 3;  // ...but an explicit heal closes it after round 2
    heal.kind = ScenarioEvent::Kind::kHeal;
    partition.events.push_back(heal);
    matrix.push_back(partition);

    ScenarioSpec restart;
    restart.name = "faults/crash-restart";
    restart.params = axes.base;
    restart.rounds = 4;
    restart.seeds = axes.seeds;
    ScenarioEvent crash;
    crash.round = 1;
    crash.kind = ScenarioEvent::Kind::kCrash;
    crash.target = ScenarioEvent::Target::kNode;
    crash.node = 13;
    restart.events.push_back(crash);
    ScenarioEvent back;
    back.round = 3;
    back.kind = ScenarioEvent::Kind::kRestart;
    back.target = ScenarioEvent::Target::kNode;
    back.node = 13;
    restart.events.push_back(back);
    matrix.push_back(restart);

    ScenarioSpec lossy;
    lossy.name = "faults/lossy-wan";
    lossy.params = axes.base;
    lossy.params.faults.drop = 0.1;
    lossy.params.faults.duplicate = 0.05;
    lossy.params.faults.reorder = 0.3;
    lossy.rounds = 3;
    lossy.seeds = axes.seeds;
    matrix.push_back(lossy);
  }

  // Multi-epoch point: three epochs with PoW identity churn across a
  // standby pool, under the default matrix's misvoting adversary mix —
  // every boundary is audited via its EpochHandoff (continuity, tx
  // preservation, reputation conservation, honest-majority committees).
  {
    ScenarioSpec epochs;
    epochs.name = "epoch/churn0.2";
    epochs.params = axes.base;
    epochs.params.standby = 8;
    epochs.rounds = 2;
    epochs.epochs = 3;
    epochs.churn_rate = 0.2;
    epochs.adversary = voters;
    epochs.seeds = axes.seeds;
    matrix.push_back(epochs);
  }

  // Bounded open-loop point: Poisson/Zipf sustained traffic at ~83% of
  // nominal capacity with a small per-shard mempool, exercising the
  // admission / drain / latency-stamping path under the tier-1 gate.
  {
    ScenarioSpec load;
    load.name = "load/openloop";
    load.params = axes.base;
    load.params.arrival_rate = 0.15;
    load.params.zipf_s = 1.1;
    load.params.mempool_cap = 24;
    load.rounds = 3;
    load.seeds = axes.seeds;
    matrix.push_back(load);
  }
  return matrix;
}

}  // namespace cyc::harness
