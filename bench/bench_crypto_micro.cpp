// E8a — microbenchmarks of the cryptographic substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include "crypto/field.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pow.hpp"
#include "crypto/pvss.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/vrf.hpp"
#include "support/rng.hpp"

using namespace cyc;

static void BM_Sha256(benchmark::State& state) {
  Bytes msg(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_SchnorrSign(benchmark::State& state) {
  const auto keys = crypto::KeyPair::from_seed(1);
  const Bytes msg = bytes_of("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(keys.sk, msg));
  }
}
BENCHMARK(BM_SchnorrSign);

static void BM_SchnorrVerify(benchmark::State& state) {
  const auto keys = crypto::KeyPair::from_seed(2);
  const Bytes msg = bytes_of("benchmark message");
  const auto sig = crypto::sign(keys.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(keys.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

// Field kernel: the group and scalar arithmetic under sign / verify.
static void BM_MulmodP(benchmark::State& state) {
  rng::Stream rng(8);
  std::uint64_t acc = 1 + rng.below(crypto::kP - 1);
  const std::uint64_t b = 1 + rng.below(crypto::kP - 1);
  for (auto _ : state) {
    acc = crypto::mulmod(acc, b, crypto::kP);  // dependent chain: latency
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MulmodP);

static void BM_GPowFixedBase(benchmark::State& state) {
  rng::Stream rng(9);
  std::uint64_t e = rng.below(crypto::kQ);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::g_pow(e));
    e = e * 6364136223846793005ull + 1442695040888963407ull;
  }
}
BENCHMARK(BM_GPowFixedBase);

static void BM_GPowVarBase(benchmark::State& state) {
  rng::Stream rng(10);
  const std::uint64_t base = crypto::g_pow(rng.below(crypto::kQ));
  std::uint64_t e = rng.below(crypto::kQ);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::gpow(base, e));
    e = e * 6364136223846793005ull + 1442695040888963407ull;
  }
}
BENCHMARK(BM_GPowVarBase);

static void BM_InGroup(benchmark::State& state) {
  // Members and non-members (p - g^k) alternate, as in verification input.
  rng::Stream rng(11);
  std::vector<std::uint64_t> xs;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t member = crypto::g_pow(rng.below(crypto::kQ));
    xs.push_back(i % 2 == 0 ? member : crypto::kP - member);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::in_group(xs[i++ & 255]));
  }
}
BENCHMARK(BM_InGroup);

static void BM_VrfProve(benchmark::State& state) {
  const auto keys = crypto::KeyPair::from_seed(3);
  const Bytes input = bytes_of("round-randomness");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::vrf_prove(keys.sk, input));
  }
}
BENCHMARK(BM_VrfProve);

static void BM_VrfVerify(benchmark::State& state) {
  const auto keys = crypto::KeyPair::from_seed(4);
  const Bytes input = bytes_of("round-randomness");
  const auto out = crypto::vrf_prove(keys.sk, input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::vrf_verify(keys.pk, input, out));
  }
}
BENCHMARK(BM_VrfVerify);

static void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(be64(static_cast<std::uint64_t>(i)));
  }
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256)->Arg(2048);

static void BM_PvssDeal(benchmark::State& state) {
  rng::Stream rng(5);
  const std::size_t participants = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::pvss_deal(12345, participants, participants / 2, rng));
  }
}
BENCHMARK(BM_PvssDeal)->Arg(5)->Arg(15)->Arg(45);

static void BM_PvssVerifyShare(benchmark::State& state) {
  rng::Stream rng(6);
  const auto dealing = crypto::pvss_deal(999, 15, 7, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::pvss_verify_share(
        dealing.commitments, dealing.shares[i++ % dealing.shares.size()]));
  }
}
BENCHMARK(BM_PvssVerifyShare);

static void BM_PvssReconstruct(benchmark::State& state) {
  rng::Stream rng(7);
  const auto dealing = crypto::pvss_deal(999, 15, 7, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::pvss_reconstruct(dealing.shares, 7));
  }
}
BENCHMARK(BM_PvssReconstruct);

static void BM_PowSolve8Bits(benchmark::State& state) {
  const Bytes challenge = bytes_of("pow-bench");
  std::uint64_t start = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::pow_solve(
        challenge, crypto::pow_target_for_bits(8), start, 1u << 20));
    start += 1u << 20;
  }
}
BENCHMARK(BM_PowSolve8Bits);

BENCHMARK_MAIN();
