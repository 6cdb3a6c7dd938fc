// E8b — microbenchmarks of Algorithm 3 (inside-committee consensus) and
// a whole-round engine benchmark (google-benchmark).
#include <benchmark/benchmark.h>

#include "consensus/engine.hpp"
#include "protocol/engine.hpp"

using namespace cyc;

namespace {

/// One full Alg. 3 instance, all messages shuttled in memory.
void run_instance(std::size_t size) {
  std::vector<crypto::KeyPair> keys;
  std::vector<crypto::PublicKey> roster;
  for (std::size_t i = 0; i < size; ++i) {
    keys.push_back(crypto::KeyPair::from_seed(7000 + i));
    roster.push_back(keys.back().pk);
  }
  const consensus::InstanceId id{1, 1};
  const Bytes message = bytes_of("benchmark decision payload");
  consensus::LeaderInstance leader(keys[0], id, message, roster);
  std::vector<consensus::MemberInstance> members;
  for (std::size_t i = 0; i < size; ++i) {
    members.emplace_back(keys[i], i, id, keys[0].pk, roster);
  }
  // One received object per PROPOSE and per ECHO, shared by every member,
  // as the engine shares one decoded value per payload buffer.
  const consensus::ReceivedPropose propose(leader.make_propose());
  std::vector<consensus::ReceivedEcho> echoes;
  for (auto& m : members) {
    auto out = m.on_propose(propose);
    if (out.echo_broadcast) {
      echoes.emplace_back(std::move(*out.echo_broadcast));
    }
  }
  bool done = false;
  for (auto& m : members) {
    for (const auto& echo : echoes) {
      auto out = m.on_echo(echo);
      if (out.confirm_to_leader) {
        if (leader.on_confirm(*out.confirm_to_leader)) done = true;
      }
      if (done) break;
    }
    if (done) break;
  }
  benchmark::DoNotOptimize(done);
}

}  // namespace

static void BM_Alg3Instance(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    run_instance(size);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg3Instance)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

static void BM_QuorumCertVerify(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<crypto::KeyPair> keys;
  std::vector<crypto::PublicKey> pks;
  for (std::size_t i = 0; i < size; ++i) {
    keys.push_back(crypto::KeyPair::from_seed(8000 + i));
    pks.push_back(keys.back().pk);
  }
  const consensus::InstanceId id{1, 2};
  const crypto::Digest digest = crypto::sha256(bytes_of("payload"));
  consensus::QuorumCert cert;
  cert.id = id;
  cert.digest = digest;
  for (std::size_t i = 0; i < size / 2 + 1; ++i) {
    consensus::Confirm c;
    c.id = id;
    c.digest = digest;
    c.member = i;
    cert.confirms.push_back(crypto::make_signed(keys[i], c.signed_part()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.verify(pks, size));
  }
}
BENCHMARK(BM_QuorumCertVerify)->Arg(8)->Arg(16)->Arg(32);

static void BM_FullRound(benchmark::State& state) {
  const auto m = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    protocol::Params params;
    params.m = m;
    params.c = 8;
    params.lambda = 2;
    params.referee_size = 5;
    params.txs_per_committee = 8;
    params.users = 16 * m;
    params.seed = 55;
    protocol::Engine engine(params, protocol::AdversaryConfig{});
    benchmark::DoNotOptimize(engine.run_round());
  }
}
BENCHMARK(BM_FullRound)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

static void BM_FullRoundWithRecovery(benchmark::State& state) {
  for (auto _ : state) {
    protocol::Params params;
    params.m = 3;
    params.c = 8;
    params.lambda = 2;
    params.referee_size = 5;
    params.txs_per_committee = 8;
    params.seed = 56;
    protocol::AdversaryConfig adv;
    adv.forced_corrupt_leader_fraction = 0.67;
    protocol::Engine engine(params, adv);
    benchmark::DoNotOptimize(engine.run_round());
  }
}
BENCHMARK(BM_FullRoundWithRecovery)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
