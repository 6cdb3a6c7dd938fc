#include "support/math.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "support/parallel.hpp"

namespace cyc::math {
namespace {

TEST(MathTest, LogBinomialSmall) {
  EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial(10, 10)), 1.0, 1e-9);
  EXPECT_EQ(log_binomial(3, 5), -std::numeric_limits<double>::infinity());
}

TEST(MathTest, HypergeometricPmfSumsToOne) {
  const std::uint64_t n = 50, t = 20, c = 10;
  double total = 0.0;
  for (std::uint64_t x = 0; x <= c; ++x) {
    const double lp = log_hypergeometric_pmf(n, t, c, x);
    if (lp > -1e300) total += std::exp(lp);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathTest, HypergeometricTailMonotone) {
  const std::uint64_t n = 100, t = 33, c = 20;
  double prev = 1.1;
  for (std::uint64_t x0 = 0; x0 <= c; ++x0) {
    const double tail = hypergeometric_tail(n, t, c, x0);
    EXPECT_LE(tail, prev + 1e-12);
    prev = tail;
  }
  EXPECT_NEAR(hypergeometric_tail(n, t, c, 0), 1.0, 1e-9);
}

TEST(MathTest, HypergeometricTailExactSmallCase) {
  // Population 5, 2 marked, sample 2: P(X >= 1) = 1 - C(3,2)/C(5,2) = 0.7
  EXPECT_NEAR(hypergeometric_tail(5, 2, 2, 1), 0.7, 1e-12);
  // P(X >= 2) = C(2,2)/C(5,2) = 0.1
  EXPECT_NEAR(hypergeometric_tail(5, 2, 2, 2), 0.1, 1e-12);
}

TEST(MathTest, HypergeometricInvalidArgs) {
  EXPECT_THROW(log_hypergeometric_pmf(10, 20, 5, 1), std::invalid_argument);
  EXPECT_THROW(log_hypergeometric_pmf(10, 5, 20, 1), std::invalid_argument);
}

TEST(MathTest, KlBernoulliBasics) {
  EXPECT_NEAR(kl_bernoulli(0.5, 0.5), 0.0, 1e-12);
  EXPECT_GT(kl_bernoulli(0.5, 0.25), 0.0);
  // Known value: D(1/2 || 1/3) = 0.5 ln(3/2) + 0.5 ln(3/4)
  const double expected = 0.5 * std::log(1.5) + 0.5 * std::log(0.75);
  EXPECT_NEAR(kl_bernoulli(0.5, 1.0 / 3.0), expected, 1e-12);
}

TEST(MathTest, KlBernoulliDomain) {
  EXPECT_THROW(kl_bernoulli(-0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(kl_bernoulli(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(kl_bernoulli(0.5, 1.0), std::invalid_argument);
}

TEST(MathTest, PaperEquation4Relationship) {
  // Paper-vs-measured note: Eq. (4) claims the tail is at most
  // e^{-c/12}, but D(1/2 || 1/3 + 1/c) -> ~0.059 < 1/12, so
  // the true Chernoff exponent is *smaller* than 1/12 and e^{-c/12}
  // slightly understates the failure probability. We verify the real
  // relationships: the exponents agree within a factor ~2, and both
  // decay exponentially in c.
  for (double c : {40.0, 120.0, 240.0}) {
    const double f = 1.0 / 3.0 + 1.0 / c;
    const double kl_exp = kl_bernoulli(0.5, f);  // true exponent
    EXPECT_GT(kl_exp, 1.0 / 24.0) << "c=" << c;
    EXPECT_LT(kl_exp, 1.0 / 12.0) << "c=" << c;
    EXPECT_LT(kl_tail_bound(f, c), 1.0);
    EXPECT_GT(kl_tail_bound(f, c), simple_tail_bound(c));
  }
}

TEST(MathTest, BinomialTailBasics) {
  // Binomial(2, 0.5): P(X >= 1) = 0.75, P(X >= 2) = 0.25
  EXPECT_NEAR(binomial_tail(2, 0.5, 1), 0.75, 1e-12);
  EXPECT_NEAR(binomial_tail(2, 0.5, 2), 0.25, 1e-12);
  EXPECT_NEAR(binomial_tail(2, 0.5, 0), 1.0, 1e-12);
  EXPECT_EQ(binomial_tail(2, 0.5, 3), 0.0);
}

TEST(MathTest, BinomialTailDegenerate) {
  EXPECT_EQ(binomial_tail(5, 0.0, 0), 1.0);
  EXPECT_EQ(binomial_tail(5, 0.0, 1), 0.0);
  EXPECT_EQ(binomial_tail(5, 1.0, 5), 1.0);
}

TEST(MathTest, PartialSetBoundMatchesPaper) {
  // (1/3)^40 ~= 8.2e-20; the paper rounds to "< 8 x 10^-20" — we check
  // the order of magnitude and the exact power.
  const double p = binomial_tail(40, 1.0 / 3.0, 40);
  EXPECT_NEAR(p, std::pow(1.0 / 3.0, 40), 1e-30);
  EXPECT_LT(p, 1e-19);
}

TEST(MathTest, LogAdd) {
  EXPECT_NEAR(log_add(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(log_add(ninf, std::log(2.0)), std::log(2.0));
  EXPECT_EQ(log_add(ninf, ninf), ninf);
}

TEST(MathTest, LogSumExp) {
  const double v = log_sum_exp({std::log(1.0), std::log(2.0), std::log(3.0)});
  EXPECT_NEAR(v, std::log(6.0), 1e-12);
}

TEST(MathTest, FitSlope) {
  // y = 3x + 1
  std::vector<double> x = {0, 1, 2, 3};
  std::vector<double> y = {1, 4, 7, 10};
  EXPECT_NEAR(fit_slope(x, y), 3.0, 1e-12);
}

TEST(MathTest, FitSlopeErrors) {
  EXPECT_THROW(fit_slope({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_slope({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(fit_slope({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(MathTest, PercentileExactSmallSamples) {
  // Nearest-rank: the result is always an element of the sample.
  const std::vector<double> s = {15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_EQ(percentile(s, 0.05), 15.0);  // ceil(0.25) = 1st
  EXPECT_EQ(percentile(s, 0.30), 20.0);  // ceil(1.5) = 2nd
  EXPECT_EQ(percentile(s, 0.40), 20.0);  // ceil(2.0) = 2nd
  EXPECT_EQ(percentile(s, 0.50), 35.0);  // ceil(2.5) = 3rd
  EXPECT_EQ(percentile(s, 1.00), 50.0);
  EXPECT_EQ(percentile(s, 0.00), 15.0);
}

TEST(MathTest, PercentileEdgeCases) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_EQ(percentile({7.5}, 1.0), 7.5);
  // Out-of-range quantiles clamp instead of reading out of bounds.
  EXPECT_EQ(percentile({1.0, 2.0}, -0.3), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0}, 1.7), 2.0);
}

TEST(MathTest, SortedSampleMatchesPercentileExactly) {
  // The sort-once multi-quantile view must agree bit-for-bit with the
  // one-shot nearest-rank query at every q, including the pinned edges
  // q=0 (minimum), q=1 (maximum) and out-of-range clamping.
  const std::vector<double> s = {40.0, 15.0, 50.0, 20.0, 35.0};
  const SortedSample sorted(s);
  for (double q : {0.0, 0.05, 0.30, 0.40, 0.50, 0.95, 0.999, 1.0, -0.3, 1.7}) {
    EXPECT_EQ(sorted.percentile(q), percentile(s, q)) << "q=" << q;
  }
  EXPECT_EQ(sorted.size(), 5u);
  EXPECT_FALSE(sorted.empty());
}

TEST(MathTest, SortedSampleEdgeCases) {
  const SortedSample empty(std::vector<double>{});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  const SortedSample single(std::vector<double>{7.5});
  EXPECT_EQ(single.percentile(0.0), 7.5);
  EXPECT_EQ(single.percentile(0.5), 7.5);
  EXPECT_EQ(single.percentile(1.0), 7.5);
}

TEST(MathTest, PercentileOrderInvariant) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<double> shuffled = {7, 2, 10, 5, 1, 9, 4, 8, 3, 6};
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(percentile(sorted, q), percentile(shuffled, q)) << "q=" << q;
  }
}

TEST(MathTest, PercentileDeterministicAcrossThreadCounts) {
  // The sustained-load bench aggregates latencies on the parallel sweep
  // pool; the percentile of a fixed sample must be bit-identical no
  // matter how many workers computed it.
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back(static_cast<double>((i * 37) % 997) / 7.0);
  }
  const double q[3] = {0.5, 0.99, 0.999};
  std::vector<std::array<double, 3>> per_thread_count;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto results = support::parallel_sweep(
        3,
        [&](std::size_t i) { return percentile(sample, q[i]); },
        threads);
    per_thread_count.push_back({results[0], results[1], results[2]});
  }
  for (std::size_t i = 1; i < per_thread_count.size(); ++i) {
    EXPECT_EQ(per_thread_count[i], per_thread_count[0]);
  }
  // p999 of 1000 samples is the 999th order statistic, an actual sample.
  EXPECT_EQ(per_thread_count[0][2], percentile(sample, 0.999));
}

// Property sweep: the exact hypergeometric tail must always lie below the
// KL Chernoff bound of Eq. (3) when sampling without replacement with
// t/n < 1/3 (the regime of §V-B).
class TailBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TailBoundSweep, ExactBelowKlBound) {
  const std::uint64_t c = GetParam();
  const std::uint64_t n = 2000, t = 666;
  const double f =
      static_cast<double>(t) / static_cast<double>(n) + 1.0 / static_cast<double>(c);
  const double exact = hypergeometric_tail(n, t, c, (c + 1) / 2);
  const double bound = std::exp(-kl_bernoulli(0.5, f) * static_cast<double>(c));
  EXPECT_LE(exact, bound * 1.0001) << "c=" << c;
}

INSTANTIATE_TEST_SUITE_P(CommitteeSizes, TailBoundSweep,
                         ::testing::Values(20, 40, 60, 80, 100, 140, 180, 240,
                                           300, 400));

}  // namespace
}  // namespace cyc::math
