// Per-layer replays: ledger (block serde, verify_tx, UtxoStore::apply),
// crypto (Schnorr sign / verify) and net (SimNet dispatch), each driven
// with the data or the traffic mix of the run it belongs to.
#include <memory>
#include <string>

#include "crypto/schnorr.hpp"
#include "ledger/shard_map.hpp"
#include "ledger/validator.hpp"
#include "net/simnet.hpp"
#include "perfbench.hpp"
#include "support/rng.hpp"

namespace cyc::perfbench {

LedgerReplay replay_ledger(const protocol::Engine& engine,
                           const std::vector<ledger::Block>& blocks,
                           const std::vector<epoch::EpochHandoff>& handoffs,
                           SpanLog* spans, std::uint64_t episode) {
  LedgerReplay out;
  const std::uint32_t m = engine.params().m;
  std::vector<ledger::UtxoStore> mirror = engine.workload().genesis();
  ledger::ShardMap map(m);
  // Time full validation, not the engine's warm verdict cache.
  crypto::verify_cache::clear();

  double serde_ms = 0;
  double verify_ms = 0;
  double apply_ms = 0;
  for (const ledger::Block& block : blocks) {
    const std::uint64_t round = block.header.round;
    for (const epoch::EpochHandoff& h : handoffs) {
      if (!h.plan || h.boundary_round != round) continue;
      auto next = std::make_shared<const ledger::ShardMap>(map.apply(h.plan->moves));
      ledger::migrate_stores(mirror, map, next, h.plan->moves);
      map = *next;
    }

    const auto s0 = Clock::now();
    const Bytes wire = block.serialize();
    const ledger::Block back = ledger::Block::deserialize(wire);
    const bool body_ok = back.body_matches();
    const auto s1 = Clock::now();
    if (!body_ok || back.txs.size() != block.txs.size()) {
      throw GateFailure("block of round " + std::to_string(round) +
                        " does not survive a serde round trip");
    }

    // Every transaction is judged against the pre-block state, as the
    // referee does when it assembles the block.
    const auto v0 = Clock::now();
    for (const ledger::Transaction& tx : block.txs) {
      const ledger::TxVerdict verdict =
          ledger::verify_tx(tx, mirror[ledger::input_shard(tx, map)]);
      if (verdict != ledger::TxVerdict::kValid) {
        throw GateFailure("replayed tx of round " + std::to_string(round) +
                          " is " + ledger::verdict_name(verdict));
      }
    }
    const auto v1 = Clock::now();
    for (const ledger::Transaction& tx : block.txs) {
      for (ledger::UtxoStore& store : mirror) store.apply(tx);
    }
    const auto a1 = Clock::now();

    serde_ms += ms_between(s0, s1);
    verify_ms += ms_between(v0, v1);
    apply_ms += ms_between(v1, a1);
    out.blocks += 1;
    out.txs += block.txs.size();
    if (spans) {
      spans->add("ledger.block_serde", episode, round, s0, s1);
      spans->add("ledger.verify_tx", episode, round, v0, v1);
      spans->add("ledger.utxo_apply", episode, round, v1, a1);
    }
  }

  const std::vector<ledger::UtxoStore>& state = engine.shard_state();
  if (state.size() != mirror.size()) {
    throw GateFailure("ledger mirror has " + std::to_string(mirror.size()) +
                      " shards, engine " + std::to_string(state.size()));
  }
  for (std::size_t k = 0; k < state.size(); ++k) {
    if (state[k].digest() != mirror[k].digest()) {
      throw GateFailure("ledger mirror digest of shard " + std::to_string(k) +
                        " differs from Engine::shard_state()");
    }
  }
  if (out.blocks > 0) out.block_serde_us = serde_ms * 1e3 / out.blocks;
  if (out.txs > 0) {
    out.verify_tx_us = verify_ms * 1e3 / out.txs;
    out.utxo_apply_us = apply_ms * 1e3 / out.txs;
  }
  return out;
}

CryptoTiming time_crypto(std::uint64_t seed, SpanLog* spans) {
  constexpr std::size_t kKeys = 64;
  constexpr std::size_t kOps = 4096;
  rng::Stream rng(seed);
  std::vector<crypto::KeyPair> keys;
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(crypto::KeyPair::generate(rng));
  std::vector<Bytes> msgs(kOps, Bytes(96));
  for (Bytes& msg : msgs) {
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.range(0, 255));
  }

  std::vector<crypto::Signature> sigs;
  sigs.reserve(kOps);
  const auto s0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    sigs.push_back(crypto::sign(keys[i % kKeys].sk, msgs[i]));
  }
  const auto s1 = Clock::now();
  std::size_t valid = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    valid += crypto::verify(keys[i % kKeys].pk, msgs[i], sigs[i]) ? 1 : 0;
  }
  const auto v1 = Clock::now();
  if (valid != kOps) throw GateFailure("Schnorr verify rejected a fresh signature");
  if (spans) {
    spans->add("crypto.sign", 0, 0, s0, s1);
    spans->add("crypto.verify", 0, 0, s1, v1);
  }
  return {ms_between(s0, s1) * 1e3 / kOps, ms_between(s1, v1) * 1e3 / kOps};
}

double time_dispatch_us_per_msg(
    std::size_t nodes, const std::array<std::uint64_t, kPhaseSlots>& msgs,
    const std::array<std::uint64_t, kPhaseSlots>& bytes, std::uint64_t seed,
    SpanLog* spans) {
  net::SimNet net(nodes, net::DelayModel{}, rng::Stream(seed).fork("dispatch"));
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    net.set_handler(static_cast<net::NodeId>(i),
                    [&delivered](const net::Message&, net::Time) { delivered += 1; });
  }
  std::uint64_t sent = 0;
  const auto t0 = Clock::now();
  for (std::size_t p = 0; p < kPhaseSlots; ++p) {
    if (msgs[p] == 0) continue;
    net.set_phase(static_cast<net::Phase>(p));
    const std::uint64_t wire = bytes[p] / msgs[p];
    const net::PayloadPtr payload =
        net::make_payload(Bytes(wire > 16 ? wire - 16 : 0, 0x5a));
    for (std::uint64_t i = 0; i < msgs[p]; ++i) {
      const auto from = static_cast<net::NodeId>(sent % nodes);
      const auto to = static_cast<net::NodeId>((sent * 7 + 1) % nodes);
      net.send_shared(from, to, net::Tag::kEcho, payload);
      sent += 1;
    }
  }
  net.run();
  const auto t1 = Clock::now();
  if (delivered != sent) {
    throw GateFailure("SimNet delivered " + std::to_string(delivered) + " of " +
                      std::to_string(sent) + " messages");
  }
  if (spans) spans->add("net.dispatch", 0, 0, t0, t1);
  return sent > 0 ? ms_between(t0, t1) * 1e3 / static_cast<double>(sent) : 0.0;
}

}  // namespace cyc::perfbench
