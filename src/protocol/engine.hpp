// The CycLedger round engine (§IV).
//
// The engine owns the simulated network, the node states and the
// authoritative ledger, and drives the seven phases of a round:
//   committee configuration -> semi-commitment exchange -> intra-committee
//   consensus -> inter-committee consensus -> reputation updating ->
//   referee/leader/partial-set selection -> block generation/propagation,
// with the leader re-selection (recovery) procedure armed throughout.
//
// Honest node logic runs purely on messages delivered by the simulator;
// the engine only uses global knowledge for (a) transport, (b) genesis
// setup, and (c) measurements. Misbehaving nodes follow their Behavior.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/engine.hpp"
#include "ledger/arrivals.hpp"
#include "ledger/block.hpp"
#include "ledger/mempool.hpp"
#include "ledger/routed_block.hpp"
#include "ledger/validator.hpp"
#include "ledger/workload.hpp"
#include "net/simnet.hpp"
#include "obs/engine_trace.hpp"
#include "protocol/adversary.hpp"
#include "protocol/params.hpp"
#include "protocol/payloads.hpp"
#include "protocol/report.hpp"
#include "protocol/reputation.hpp"
#include "protocol/roles.hpp"
#include "protocol/semicommit.hpp"
#include "protocol/sortition.hpp"
#include "protocol/witness.hpp"

namespace cyc::protocol {

/// Extra reputation granted to an unconvicted leader (§VII-A: "leaders
/// obtain some extra reputation as a bonus for their hard work"). Set
/// above a perfect member score (1.0) so that serving as leader never
/// pays worse than voting.
inline constexpr double kLeaderBonus = 1.25;
/// Reputation credit for referee-committee service. The paper defers
/// C_R's update to the next round's referees (§IV-G); we apply the flat
/// credit at round end, which preserves the incentive ordering.
inline constexpr double kRefereeCredit = 1.0;
/// Safety valve on repeated recoveries in one committee and round.
inline constexpr std::uint32_t kMaxRecoveriesPerCommittee = 4;
/// Crash-recovery: how many consecutive rounds a restarted node keeps
/// retrying the referee catch-up before it gives up and re-crashes.
inline constexpr std::uint32_t kMaxCatchupRounds = 4;

struct EngineOptions {
  /// Disable the recovery procedure: committees with a faulty leader lose
  /// the round (the RapidChain-like baseline behaviour of Table I).
  bool recovery_enabled = true;
  /// Select leaders by reputation rank (§IV-F). When false, leaders are
  /// drawn uniformly (ablation for E12).
  bool reputation_leader_selection = true;
  /// §VIII-A extension: leaders pre-filter cross-shard lists by asking
  /// the destination leader which transactions are valid, excluding
  /// low-value (invalid) transactions before the expensive two-committee
  /// consensus.
  bool extension_precommunication = false;
  /// §VIII-B extension: parallelized block generation — the referee
  /// committee only issues per-committee permissions; each leader
  /// broadcasts its own sub-block, removing the O(mn) broadcast burden
  /// from C_R.
  bool extension_parallel_blocks = false;
  /// Worker threads for the PoW search of the selection phase, the one
  /// stage of the round that runs on a pool; every other stage runs
  /// inline on the engine thread. The solutions are sent on the engine
  /// thread in node order, so every artifact is byte-identical across
  /// thread counts. 1 = fully sequential reference path. Deliberately NOT
  /// serialized by ScenarioSpec::to_json: an execution knob, not
  /// protocol state.
  unsigned engine_threads = 1;
};

/// State digest a restarted node must reproduce before rejoining: the
/// chain tip hash bound to every shard's UTXO digest. Referees serve it
/// during catch-up; the restarted node adopts the majority answer.
crypto::Digest catchup_state_digest(
    const crypto::Digest& tip_hash,
    const std::vector<ledger::UtxoStore>& shards);

/// Mid-run reconfiguration request (epoch boundary, §IV-F / src/epoch/).
/// The engine re-draws every role over `members` with the supplied epoch
/// randomness — leaders by reputation rank (or the uniform ablation),
/// referees / partial sets by the role-hash lottery, commons by
/// cryptographic sortition — without touching the chain, the per-shard
/// UTXO views, the Remaining TX List or any node's reputation.
struct Reconfiguration {
  std::uint64_t epoch = 0;              ///< epoch being entered (audit only)
  std::vector<net::NodeId> members;     ///< new enrolled membership
  crypto::Digest randomness{};          ///< epoch randomness R^e
};

/// Per-round transaction flow accounting (§IV-G conservation). Every
/// unique transaction offered in a round's TXLists ends in exactly one
/// bucket: it reached a certified committee result (`settled`), it was
/// valid but unpacked and moved to the Remaining TX List (`carried`), or
/// it was ground-truth invalid and dropped (`dropped`) — so
/// offered == settled + carried + dropped. `foreign` counts result
/// transactions that were never offered (forgeries; must stay 0).
struct RoundFlow {
  std::uint64_t offered = 0;    ///< unique txs in this round's lists
  std::uint64_t settled = 0;    ///< offered txs inside certified results
  std::uint64_t committed = 0;  ///< txs that reached block B^r
  std::uint64_t carried = 0;    ///< Remaining TX List for the next round
  std::uint64_t dropped = 0;    ///< ground-truth invalid, dropped
  std::uint64_t foreign = 0;    ///< result txs absent from every list
};

/// A §VIII-B sub-block as its permitted leader released it: committee
/// `committee`'s part of B^r, in block order.
struct SubBlock {
  std::uint32_t committee = 0;
  std::vector<ledger::Transaction> txs;
  net::NodeId leader = net::kNoNode;  ///< who released it
};

class Engine {
 public:
  Engine(Params params, AdversaryConfig adversary, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run one full round; returns its report.
  RoundReport run_round();

  /// Run several rounds and collect the run report.
  RunReport run(std::size_t rounds);

  // --- introspection (tests & experiments) ---
  const Params& params() const { return params_; }
  const EngineOptions& options() const { return options_; }
  const RoundAssignment& assignment() const { return assign_; }
  std::uint64_t round() const { return round_; }
  double reputation(net::NodeId id) const { return nodes_[id].reputation; }
  double reward(net::NodeId id) const { return nodes_[id].reward; }
  Behavior behavior_of(net::NodeId id) const { return nodes_[id].behavior; }
  std::uint32_t capacity_of(net::NodeId id) const {
    return nodes_[id].capacity;
  }
  const net::SimNet& net() const { return *net_; }
  const std::vector<ledger::UtxoStore>& shard_state() const {
    return shard_state_;
  }
  /// The chain of blocks produced so far (one per completed round).
  const ledger::Chain& chain() const { return chain_; }
  const crypto::Digest& randomness() const { return randomness_; }
  std::size_t node_count() const { return nodes_.size(); }

  // --- harness introspection (invariant checking, §III-C/§IV audits) ---
  /// Leader re-selection events of the most recently completed round.
  const std::vector<RecoveryEvent>& recovery_log() const {
    return recovery_log_;
  }
  /// Transaction flow conservation counters of the last completed round.
  const RoundFlow& last_flow() const { return last_flow_; }
  /// Role assignment the last completed round *started* with (recovery
  /// may have replaced leaders mid-round; `assignment()` already points
  /// at the next round after run_round returns).
  const RoundAssignment& last_assignment() const { return last_assign_; }
  /// The full block B^r of the last completed round: the body phase_block
  /// assembled and C_R released (the chain itself only retains headers).
  const ledger::Block& last_block() const { return last_block_; }
  /// The semi-commitment `id` holds for committee `k` in the current or
  /// last completed round — accepted from SEMI_COM (a referee) or relayed
  /// by the referees (a key member) — or nullptr.
  const crypto::Digest* semicommitment(net::NodeId id, std::uint32_t k) const {
    return nodes_[id].round.commitments.find(k);
  }
  /// Sub-blocks the permitted leaders released in the last completed
  /// round (§VIII-B; empty unless extension_parallel_blocks is on).
  const std::vector<SubBlock>& released_subblocks() const {
    return released_subblocks_;
  }
  /// Leaders convicted by the referee committee in the last round.
  const std::set<net::NodeId>& convicted_leaders() const {
    return convicted_leaders_;
  }
  /// Remaining TX List size currently queued for the next round.
  std::size_t carryover_size() const { return carryover_.size(); }
  /// Whether `id`'s corruption was in effect during `round`.
  bool misbehaved(net::NodeId id, std::uint64_t round) const {
    return nodes_[id].misbehaves(round);
  }
  /// Whether `id` was responsive (not crashed) during `round`.
  bool active(net::NodeId id, std::uint64_t round) const {
    return nodes_[id].is_active(round);
  }
  /// Whether the fault schedule impaired `id`'s connectivity during
  /// `round` (blackout window, or membership in a partition island).
  /// Evicting an unreachable-but-honest leader is correct protocol
  /// behaviour, so the recovery invariants consult this.
  bool impaired(net::NodeId id, std::uint64_t round) const;
  /// Node `id`'s own-shard UTXO view in the last round it took part in:
  /// its committee's round-start snapshot, or the successor it adopted
  /// from a released block. Members that received the same blocks on the
  /// same base share one view object; referees and standby identities
  /// hold an empty store. A view shares its store's base table, so a
  /// snapshot costs the shard's changes since its last fold, not the
  /// shard (see ledger/utxo.hpp). Valid once the first round has started.
  const ledger::UtxoStore& member_view(net::NodeId id) const {
    return *nodes_[id].utxo;
  }
  /// Fault-injection hook for the scenario harness: mutable access to the
  /// authoritative per-shard UTXO views, so tests can corrupt a shard
  /// state and assert the invariant checker notices. Not used by the
  /// protocol itself.
  std::vector<ledger::UtxoStore>& shard_state_mut() { return shard_state_; }
  /// Test hook: mutable access to the simulated network, so tests can
  /// inject forged traffic. Not used by the protocol.
  net::SimNet& net_mut() { return *net_; }

  /// Whether `id` is currently enrolled (an active member, as opposed to
  /// a standby / retired identity that sits out every round).
  bool enrolled(net::NodeId id) const { return nodes_[id].enrolled; }
  /// Currently enrolled membership, in node-id order.
  std::vector<net::NodeId> members() const;
  const crypto::PublicKey& public_key(net::NodeId id) const {
    return nodes_[id].keys.pk;
  }
  /// The Remaining TX List queued for the next round (§IV-G) — the
  /// cross-epoch handoff audits its content, not just its size.
  const std::vector<ledger::Transaction>& carryover() const {
    return carryover_;
  }

  /// Whether the open-loop sustained-traffic source is driving the
  /// workload (Params::arrival_rate > 0); the closed-loop fixed batch
  /// otherwise, byte-identical to the pre-open-loop engine.
  bool open_loop() const { return params_.arrival_rate > 0.0; }
  /// Per-shard mempools (empty vector in closed-loop mode).
  const std::vector<ledger::ShardMempool>& mempools() const {
    return mempools_;
  }
  /// End of the last generated arrival window in simulated time (the
  /// commit stamp every transaction in that round's block receives).
  double open_loop_clock() const { return openloop_clock_; }

  /// Epoch-scoped account→shard map (identity until a rebalance re-homes
  /// accounts). Shared with the workload generator and every UTXO store;
  /// immutable once installed — boundaries swap the pointer.
  const std::shared_ptr<const ledger::ShardMap>& shard_map() const {
    return shard_map_;
  }
  /// The workload generator (ground truth + account roster); the mutable
  /// overload is a test hook for forging generator/map desyncs.
  const ledger::WorkloadGenerator& workload() const { return *workload_; }
  ledger::WorkloadGenerator& workload_mut() { return *workload_; }

  /// Per-shard load statistics frozen at the most recent epoch boundary
  /// (the rebalance planner input). Empty unless Params::rebalance.
  const ledger::ShardLoadWindow& last_rebalance_window() const {
    return frozen_window_;
  }
  /// Freeze the accumulating load window (epoch boundary; the epoch
  /// manager calls this before planning the re-draw).
  void roll_rebalance_window();
  /// Install the successor account→shard map: migrate every re-homed
  /// UTXO between shard stores, re-bucket the mempool backlog, and
  /// re-home the workload generator. Returns the number of migrated
  /// outputs (recorded in the handoff's RebalancePlan for audit).
  std::uint64_t apply_rebalance(std::shared_ptr<const ledger::ShardMap> next,
                                const std::vector<ledger::AccountMove>& moves);

  /// Corrupt a node at the start of the current round; the behaviour
  /// takes effect one round later (mildly-adaptive adversary, §III-C).
  void corrupt(net::NodeId id, Behavior behavior);

  /// Restart a crashed node: it comes back honest but inactive, spends
  /// the next round(s) catching up from the referees, and rejoins once a
  /// majority of them corroborate the same state digest. No-op unless
  /// the node is currently crashed.
  void restart(net::NodeId id);
  /// Cut `island` from the rest of the network for rounds
  /// [from_round, heal_round).
  void partition(std::vector<net::NodeId> island, std::uint64_t from_round,
                 std::uint64_t heal_round);
  /// Silence one node entirely for rounds [from_round, until_round).
  void blackout(net::NodeId id, std::uint64_t from_round,
                std::uint64_t until_round);
  /// Heal every partition still open at `round`; returns how many closed.
  std::uint64_t heal(std::uint64_t round);

  /// Epoch-boundary entry point: install a new membership set and re-draw
  /// every role from the epoch randomness, keeping all ledger state.
  /// Call between rounds only. Throws std::invalid_argument when the
  /// membership is too small to fill the referee committee and m
  /// committees, repeats ids, or names unknown nodes.
  void reconfigure(const Reconfiguration& reconfig);

  /// Attach a tracing/metrics observer (nullptr detaches). What it
  /// records is decided in src/obs/engine_trace.*: the engine only marks
  /// round and phase boundaries and emits typed obs::Events. Everything
  /// is keyed on simulated time and engine-local state, so a traced
  /// run's artifact is a pure function of (params, adversary, options),
  /// and a detached engine pays one null check per hook, keeping every
  /// artifact byte-identical. The observer must outlive the engine (or
  /// be detached first).
  void attach_observer(obs::Observer* observer);

 private:
  /// Per-committee slots indexed by committee id, for state that every
  /// relayed semi-commitment writes: one index instead of a tree walk.
  template <typename T>
  class PerCommittee {
   public:
    /// The value stored for committee k, or nullptr.
    const T* find(std::uint32_t k) const {
      return k < slots_.size() && slots_[k] ? &*slots_[k] : nullptr;
    }
    bool contains(std::uint32_t k) const { return find(k) != nullptr; }
    void set(std::uint32_t k, const T& value) {
      if (k >= slots_.size()) slots_.resize(k + 1);
      slots_[k] = value;
    }
    /// Number of committees with a stored value.
    std::size_t size() const {
      std::size_t n = 0;
      for (const auto& slot : slots_) n += slot.has_value();
      return n;
    }
    /// (committee, value) pairs in ascending committee order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::uint32_t k = 0; k < slots_.size(); ++k) {
        if (slots_[k]) fn(k, *slots_[k]);
      }
    }

   private:
    std::vector<std::optional<T>> slots_;
  };

  /// Which of a committee's two lists a leader duty concerns: the
  /// intra-shard TXList (§IV-C) or the cross-shard one (§IV-D).
  enum class ListKind : std::uint8_t { kIntra, kCross };
  /// What a certified result handed to the referee committee carries: an
  /// intra decision (§IV-C), a cross-shard result (§IV-D) or a score list
  /// (§IV-E). The order is the block order of a committee's results.
  enum class ResultKind : std::uint8_t { kIntra, kCross, kScore };
  /// A referee-held result: its kind and origin committee (the committee
  /// itself for intra and score results, the sender for a cross result).
  using ResultKey = std::pair<ResultKind, std::uint32_t>;

  // ---- per-node state ----
  struct NodeState {
    net::NodeId id = net::kNoNode;
    crypto::KeyPair keys;
    double reputation = 0.0;
    double reward = 0.0;
    std::uint32_t capacity = 0;
    Behavior behavior = Behavior::kHonest;
    std::uint64_t corrupted_at = ~0ull;
    /// Active member of the current epoch; standby / retired identities
    /// keep their keys and reputation but take part in nothing.
    bool enrolled = true;

    // this round's seat
    Role role = Role::kCommon;
    std::int64_t committee = -1;
    SortitionTicket ticket;
    /// Own-shard view, immutable and shared: every member of committee k
    /// starts the round on the same snapshot, and adopting a released
    /// block swaps the pointer to a (memoized) successor view. Snapshot
    /// and successor are plain store copies: they share the base table
    /// and copy only the delta, so a successor costs its block slice
    /// plus that delta.
    std::shared_ptr<const ledger::UtxoStore> utxo;

    /// What a member or referee learns and decides during one round;
    /// start_round_state resets it as one value.
    struct Round {
      std::vector<crypto::PublicKey> member_list;  // S of Alg. 2
      std::set<std::uint64_t> known_pks;           // dedup for S
      // Algorithm 3 instances, keyed by sn.
      std::map<std::uint64_t, consensus::LeaderInstance> lead;
      std::map<std::uint64_t, consensus::MemberInstance> member;
      std::map<std::uint64_t, consensus::QuorumCert> certs;
      // Accepted semi-commitments: from SEMI_COM (referees, which also
      // keep the member lists) and the referees' relayed digests (key
      // members). A referee relays what it accepted in one batch at the
      // flush and anything accepted later on its own.
      PerCommittee<crypto::Digest> commitments;
      PerCommittee<std::vector<crypto::PublicKey>> lists;
      bool semicommits_flushed = false;
      // Partial members: certified cross lists sent to their committee
      // (the 2*Gamma rule of Lemma 7), and every member: origins whose
      // cross-in consensus the leader engaged.
      std::map<std::uint32_t, Bytes> cross_hints;
      std::set<std::uint32_t> cross_seen_propose;
      bool leader_sent_txlist = false;  // our leader's TXList arrived
      // impeachment
      std::optional<Accusation> pending_accusation;
      std::vector<crypto::SignedMessage> impeach_approvals;
      bool accused_this_round = false;
      bool sent_prosecution = false;
    } round;

    // crash-recovery catch-up (restart())
    bool catching_up = false;      ///< restarted; not yet rejoined
    std::uint32_t catchup_attempts = 0;
    bool catchup_adopted = false;  ///< majority digest adopted this round
    crypto::Digest adopted_digest{};
    /// Referee replies tallied by digest; a digest is adopted once a
    /// majority of distinct referees vouch for it.
    std::map<crypto::Digest, std::set<net::NodeId>> catchup_tally;

    bool is_active(std::uint64_t round) const {
      return !catching_up &&
             !(behavior == Behavior::kCrash && corrupted_at < round);
    }
    bool misbehaves(std::uint64_t round) const {
      return behavior != Behavior::kHonest && corrupted_at < round;
    }
  };

  /// A leader's tally of the votes on one list.
  struct VoteTally {
    std::map<net::NodeId, VoteVector> votes;  // verified, by voter
    // Signed votes parked on arrival; their signatures are checked in one
    // schnorr::verify_batch at the tally deadline instead of one at a
    // time. All arrivals per voter are kept (not just the newest) so a
    // forged message claiming a voter's key cannot displace that voter's
    // genuine vote — at flush the last *valid* arrival wins, which is
    // exactly what per-arrival verification used to produce.
    std::map<net::NodeId, std::vector<crypto::SignedMessage>> pending;
    VoteVector decision;  // tally result
    /// Set `decision` over `dimension` transactions: Yes where more than
    /// half of the committee voted Yes.
    void decide(std::size_t dimension, std::size_t committee_size);
  };

  // ---- round-scoped engine state ----
  struct CommitteeRound {
    net::NodeId current_leader = net::kNoNode;
    std::uint32_t attempt = 0;      // leaders replaced so far this round
    bool leader_convicted = false;  // guard against double conviction
    std::vector<ledger::Transaction> intra_list;
    std::vector<ledger::Transaction> cross_list;
    /// Duties of whoever leads the committee right now. Recovery hands
    /// them to the replacement as a fresh value (install_new_leader).
    struct LeaderDuties {
      VoteTally intra;
      VoteTally cross;
      std::map<std::uint32_t, Bytes> cross_in;  // origin -> accepted request
      std::set<std::uint32_t> cross_done;       // origins answered
    } duties;
    // Leader-side cross requests awaiting certification.
    std::map<std::uint32_t, Bytes> pending_cross_out;  // dest -> request
    net::NodeId pending_new_leader = net::kNoNode;
    // Referee-side: accepted results, one entry per (kind, origin) in
    // block order. Results multicast to the whole referee committee; each
    // referee verifies independently and acks when its verified payload
    // matches the stored bytes. An entry exists only once a verified
    // payload is stored. A result is only *used* (block assembly, commit
    // accounting, score application) once a majority of referees ack —
    // so a result that reached just a minority island of a partitioned
    // C_R can never straddle the cut.
    struct RefereeResult {
      Bytes payload;  // IntraDecision, CrossResultMsg or ScoreListMsg
      std::set<net::NodeId> acks;
    };
    std::map<ResultKey, RefereeResult> results;

    std::vector<ledger::Transaction>& list(ListKind kind) {
      return kind == ListKind::kIntra ? intra_list : cross_list;
    }
    VoteTally& tally(ListKind kind) {
      return kind == ListKind::kIntra ? duties.intra : duties.cross;
    }
    bool acked_by(const ResultKey& key, net::NodeId referee) const {
      const auto it = results.find(key);
      return it != results.end() && it->second.acks.contains(referee);
    }
    /// A referee's verified `payload` for `key`: stored if it is the
    /// first, acked if it matches the stored bytes, and never acked if it
    /// conflicts with them.
    void store_and_ack(const ResultKey& key, const Bytes& payload,
                       net::NodeId referee) {
      auto it = results.find(key);
      if (it == results.end()) {
        it = results.emplace(key, RefereeResult{payload, {}}).first;
      } else if (it->second.payload != payload) {
        return;
      }
      it->second.acks.insert(referee);
    }
  };

  // Decoded payloads beyond the wire structs (net::Message::decoded).
  // A PROPOSE or ECHO: its (scope, sn) route and the wire its tag names,
  // with the lazy receiver-independent Alg. 3 verdicts.
  struct ConsensusFanout {
    std::uint32_t scope = 0;
    std::uint64_t sn = 0;
    std::optional<consensus::ReceivedPropose> propose;
    std::optional<consensus::ReceivedEcho> echo;
  };
  // A TX_LIST and the transactions its leader signed.
  struct ReceivedTxList {
    wire::TxListMsg list;
    std::vector<ledger::Transaction> txs;
  };
  // An INTRA decision or SCORE_REPORT list certified by its committee,
  // and the committee the result names.
  struct ReceivedResult {
    wire::CertifiedResult result;
    bool scores = false;  // decoded as a score list
    std::uint32_t committee = 0;
  };
  // A released block, routed once under the epoch's shard map, memoizing
  // base view -> successor. The memo holds each base view it is keyed
  // by, so that address stays unique.
  struct ReleasedBlock {
    std::uint64_t round = 0;  // the round whose B^r this is (or is part of)
    ledger::RoutedBlock routed;
    struct Step {
      std::shared_ptr<const ledger::UtxoStore> base;
      std::shared_ptr<const ledger::UtxoStore> next;
    };
    std::unordered_map<const ledger::UtxoStore*, Step> successors;
  };

  // ---- setup ----
  void build_nodes();
  void assign_genesis_roles();
  void link_classifier_install();
  void start_round_state();

  // ---- phases ----
  void phase_config(net::Time at);
  void phase_semicommit(net::Time at);
  void phase_intra(net::Time at);
  void phase_inter(net::Time at);
  void phase_reputation(net::Time at);
  void phase_selection(net::Time at);
  void phase_block(net::Time at);

  // ---- message handling ----
  void dispatch(NodeState& self, const net::Message& msg, net::Time now);
  void on_config(NodeState& self, const net::Message& msg);
  void on_member_list(NodeState& self, const net::Message& msg);
  void on_member(NodeState& self, const net::Message& msg);
  /// Multicast PROPOSE / ECHO.
  void on_consensus_msg(NodeState& self, const net::Message& msg,
                        net::Time now);
  void on_confirm(NodeState& self, const net::Message& msg);
  void on_semicommit(NodeState& self, const net::Message& msg, net::Time now);
  void on_semicommit_ack(NodeState& self, const net::Message& msg);
  /// kBlockPermit (§VIII-B): a referee seat permits the leader, who
  /// broadcasts its committee's sub-block at most once per round.
  void on_block_permit(NodeState& self, const net::Message& msg);
  void on_txlist(NodeState& self, const net::Message& msg);
  void on_vote(NodeState& self, const net::Message& msg);
  void on_cross_txlist(NodeState& self, const net::Message& msg);
  void on_cross_hint(NodeState& self, const net::Message& msg, net::Time now);
  void on_cross_result(NodeState& self, const net::Message& msg);
  void on_accuse(NodeState& self, const net::Message& msg);
  void on_impeach_vote(NodeState& self, const net::Message& msg);
  void on_prosecute(NodeState& self, const net::Message& msg, net::Time now);
  void on_new_leader(NodeState& self, const net::Message& msg);
  /// kIntraResult / kScoreReport: a referee verifies a committee's
  /// certified decision or score list and acks the stored bytes.
  void on_committee_result(NodeState& self, const net::Message& msg);
  void on_catchup_request(NodeState& self, const net::Message& msg);
  void on_catchup_reply(NodeState& self, const net::Message& msg);
  /// kBlock from a referee seat / §VIII-B kSubBlock from a leader that
  /// released one this round: a member adopts its view's successor
  /// under the released (sub-)block of the current round, decoding and
  /// routing each payload once and deriving each distinct successor once.
  void on_block(NodeState& self, const net::Message& msg);

  // ---- helpers ----
  NodeState& node(net::NodeId id) { return nodes_[id]; }
  std::vector<net::NodeId> committee_members(std::uint32_t k) const;
  net::NodeId node_of_pk(const crypto::PublicKey& pk) const;
  net::NodeId designated_referee(std::uint64_t sn) const;
  /// Whether `id` holds a referee seat this round.
  bool referee_seat(net::NodeId id) const;
  /// Whether `leader` released a §VIII-B sub-block this round.
  bool released_subblock(net::NodeId leader) const;
  /// Whether `self` takes part in consensus instances of `scope`:
  /// committee members in their own committee's, referees in the referee
  /// scope's.
  bool in_scope(const NodeState& self, std::uint32_t scope) const {
    return scope == params_.m
               ? self.role == Role::kReferee
               : self.committee == static_cast<std::int64_t>(scope);
  }
  /// Send one shared buffer from `from` to every referee seat, in seat
  /// order (a referee sending also sends to itself).
  void send_to_referees(net::NodeId from, net::Tag tag,
                        const net::PayloadPtr& payload);
  /// Send one shared buffer from `from` to every other node, in id order.
  void send_to_all(net::NodeId from, net::Tag tag,
                   const net::PayloadPtr& payload);
  /// Whether a referee seat can talk to the majority of its committee
  /// this round (not blacked out, on the referee-majority island).
  bool referee_reachable(net::NodeId id) const;
  /// Majority-of-referees ack gate for stored results.
  bool referee_quorum(const std::set<net::NodeId>& acks) const {
    return acks.size() * 2 > assign_.referees.size();
  }
  /// Recompute, for every committee, whether an active partition /
  /// blackout schedule severs it from quorum this round.
  void compute_severed();
  /// Any node currently inside a blackout window?
  bool has_active_blackout() const;
  /// Open-loop half of start_round_state: generate this round's arrival
  /// window, admit into the mempools, and drain each committee's list
  /// budget (txs_per_committee minus its §IV-G carryover share).
  void openloop_ingest(std::vector<ledger::Transaction>& batch);
  crypto::PublicKey expected_instance_leader(std::uint32_t scope,
                                             std::uint64_t sn) const;
  std::vector<net::NodeId> instance_peers(std::uint32_t scope) const;
  /// Scope `scope`'s member keys this round (committee k's, or C_R's for
  /// m): the one roster every Alg. 3 instance of the scope counts over.
  const std::vector<crypto::PublicKey>& roster(std::uint32_t scope) const {
    return rosters_[scope];
  }

  /// Consensus plumbing: wrap + send wires for instance (scope, sn).
  void send_consensus(net::NodeId from, const std::vector<net::NodeId>& to,
                      net::Tag tag, std::uint32_t scope, std::uint64_t sn,
                      const Bytes& wire);
  void leader_start_instance(NodeState& self, std::uint32_t scope,
                             std::uint64_t sn, Bytes message);
  void process_member_output(NodeState& self, std::uint32_t scope,
                             std::uint64_t sn, consensus::MemberOutput out,
                             net::Time now);
  void on_cert(NodeState& self, std::uint32_t scope, std::uint64_t sn,
               const consensus::QuorumCert& cert);

  /// Voting logic: an honest node's vote on a list given its UTXO view
  /// and capacity; misbehaving voters per Behavior.
  VoteVector compute_vote(NodeState& self,
                          const std::vector<ledger::Transaction>& txs);

  /// Batch-verify the parked votes and move the valid ones into
  /// `tally.votes`.
  void leader_flush_votes(VoteTally& tally);

  /// Recovery.
  void begin_accusation(NodeState& accuser, std::uint32_t k,
                        WitnessKind kind, Bytes witness, net::Time now);
  bool referee_corroborates_timeout(const NodeState& referee,
                                    const Accusation& accusation) const;
  void referee_convict(NodeState& referee, const Accusation& accusation,
                       net::Time now, const Bytes& impeachment);
  void announce_new_leader(NodeState& referee, std::uint32_t k);
  void install_new_leader(std::uint32_t k, net::NodeId new_leader,
                          net::Time now);
  void redo_leader_duties(std::uint32_t k, net::Time now);

  /// Leader duties per phase, for one committee: the phase drivers loop
  /// over them and recovery's redo calls them for the new leader.
  /// Sign and send committee k's semi-commitment (Alg. 4).
  void leader_send_semicommit(NodeState& leader, std::uint32_t k);
  /// A referee's relay of accepted semi-commitments to every key member
  /// of every committee (Alg. 4), as one shared buffer.
  void relay_semicommits(net::NodeId referee,
                         const wire::SemiCommitBatch& batch);
  /// Multicast committee k's `kind` list, vote on it and schedule the
  /// tally; the §VIII-A pre-filter runs first for a cross list.
  void leader_start_list(std::uint32_t k, ListKind kind, net::Time now);
  /// Certified cross list `req` (encoded as `request`) at its destination.
  void leader_handle_cross_in(NodeState& leader,
                              const wire::CrossTxListMsg& req,
                              const Bytes& request);
  void leader_send_scores(std::uint32_t k);

  /// Apply score reports that have gathered a referee-majority ack into
  /// pending_scores_ (idempotent; run before selection and finalize).
  void adopt_quorum_scores();
  /// End-of-round: block assembly, ledger application, reputation.
  void finalize_round(RoundReport& report);
  /// §IV-F selection: beacon + next-round roles; runs during the
  /// selection phase so the block can reference the next assignment.
  void compute_selection();
  /// Shared role draw (§IV-F) over an explicit participant list: leaders
  /// by `reputation_of` rank (or shuffled by `uniform_leaders` for the
  /// E12 ablation), referees / partial sets by the role-hash lottery,
  /// everyone else by cryptographic sortition (which also refreshes the
  /// nodes' membership tickets for `next_round`). Used by the per-round
  /// selection and by reconfigure().
  template <typename RepFn>
  RoundAssignment draw_assignment(const std::vector<net::NodeId>& participants,
                                  std::uint64_t next_round,
                                  const crypto::Digest& randomness,
                                  RepFn&& reputation_of,
                                  rng::Stream* uniform_leaders);
  double storage_proxy(const NodeState& n) const;

  /// The one phase marker, called first by every phase driver: label
  /// subsequent traffic with `phase` (net_->phase() is the engine's
  /// current phase) and move the trace's phase span.
  void enter_phase(net::Phase phase, net::Time at);
  /// Record `event` about `committee` (obs::kNoCommittee for none) with
  /// its arg values, in obs::kEvents order; a null check when no
  /// observer is attached.
  template <typename... Args>
  void emit(obs::Event event, net::Time at, std::uint32_t committee,
            Args... args) {
    if (obs_) obs_->emit(event, at, committee, {static_cast<double>(args)...});
  }

  // ---- data ----
  Params params_;
  AdversaryConfig adversary_;
  EngineOptions options_;
  rng::Stream rng_;
  std::unique_ptr<net::SimNet> net_;
  std::vector<NodeState> nodes_;
  std::map<std::uint64_t, net::NodeId> pk_index_;
  RoundAssignment assign_;
  RoundAssignment next_assign_;
  crypto::Digest randomness_{};
  crypto::Digest next_randomness_{};
  std::unique_ptr<ledger::WorkloadGenerator> workload_;
  // Open-loop traffic (all inert when params_.arrival_rate == 0): the
  // Poisson/Zipf source, the bounded per-shard mempools the engine
  // drains each round, arrival timestamps of every in-flight admitted
  // transaction (erased on commit / ground-truth drop), and the arrival
  // clock — the end of the last generated window, advanced by the
  // nominal round duration each round so windows tile simulated time.
  std::unique_ptr<ledger::OpenLoopSource> openloop_;
  std::vector<ledger::ShardMempool> mempools_;
  std::unordered_map<ledger::TxId, double, ledger::TxIdHash> arrival_times_;
  double openloop_clock_ = 0.0;
  std::uint64_t openloop_exhausted_ = 0;  ///< source exhausted() last seen
  OpenLoopRoundStats openloop_round_;
  // Adaptive sharding (all inert when params_.rebalance is off): the
  // epoch's account→shard map, the load window accumulating over the
  // current epoch, and the window frozen at the last boundary.
  std::shared_ptr<const ledger::ShardMap> shard_map_;
  ledger::ShardLoadWindow load_window_;
  ledger::ShardLoadWindow frozen_window_;
  std::vector<ledger::UtxoStore> shard_state_;
  ledger::Chain chain_;
  ledger::Block last_block_;       // full body of the newest chain block
  // B^r of the current round, assembled once by phase_block from the
  // referee-quorum results in block order. The kBlock proposal, the
  // §VIII-B sub-blocks and finalize_round all read it, so every member
  // view that adopts it ends the round equal to the chain.
  struct RoundBlock {
    ledger::Block block;
    /// Every acked result, empty ones too (produced_output and the leader
    /// bonus read them), and the transactions it kept: txs[begin, end).
    struct Result {
      std::uint32_t committee = 0, origin = 0;  // table holder, producer
      bool cross = false;
      std::size_t begin = 0, end = 0;
    };
    std::vector<Result> results;
    /// Every transaction of an acked result, kept or not.
    std::unordered_set<ledger::TxId, ledger::TxIdHash> settled;
    /// Guard losers: later spends of an outpoint B^r already spends.
    std::vector<ledger::Transaction> superseded;
  };
  RoundBlock block_;
  RoundAssignment last_assign_;    // assignment the last round started with
  RoundFlow last_flow_;            // §IV-G conservation counters
  std::vector<SubBlock> released_subblocks_;  // §VIII-B, this round
  // §IV-G Remaining TX List: valid transactions offered but not packed
  // this round are carried into the next round's lists.
  std::vector<ledger::Transaction> carryover_;
  std::vector<CommitteeRound> committees_;
  std::vector<std::vector<crypto::PublicKey>> rosters_;  // see roster()
  std::uint64_t round_ = 1;
  net::Time round_start_ = 0.0;
  std::vector<RecoveryEvent> recovery_log_;
  // Reputation deltas accumulated during the round, applied at block time.
  std::map<net::NodeId, double> pending_scores_;
  std::set<net::NodeId> convicted_leaders_;
  // Registered participants for next round (PoW solutions received).
  std::set<net::NodeId> registered_;
  // Catch-up attempts resolved in the current round (cleared per round).
  std::vector<CatchUpRecord> catchup_log_;
  // Per-committee: severed from quorum by an active partition/blackout
  // this round (recomputed in start_round_state, reported per round).
  std::vector<bool> severed_;
  // Observability: empty unless an observer is attached.
  std::optional<obs::EngineTrace> obs_;
};

}  // namespace cyc::protocol
