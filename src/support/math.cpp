#include "support/math.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cyc::math {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// std::lgamma stores the sign of Gamma in the global `signgam`, a data
// race when sweep workers evaluate bounds concurrently; the reentrant
// variant returns the same value and keeps the sign local.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}
}  // namespace

double log_binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return kNegInf;
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double log_hypergeometric_pmf(std::uint64_t n, std::uint64_t t,
                              std::uint64_t c, std::uint64_t x) {
  if (t > n || c > n) {
    throw std::invalid_argument("hypergeometric: t and c must be <= n");
  }
  if (x > c || x > t) return kNegInf;
  if (c - x > n - t) return kNegInf;
  return log_binomial(t, x) + log_binomial(n - t, c - x) - log_binomial(n, c);
}

double log_hypergeometric_tail(std::uint64_t n, std::uint64_t t,
                               std::uint64_t c, std::uint64_t x0) {
  const std::uint64_t hi = std::min(c, t);
  if (x0 > hi) return kNegInf;
  double acc = kNegInf;
  for (std::uint64_t x = x0; x <= hi; ++x) {
    acc = log_add(acc, log_hypergeometric_pmf(n, t, c, x));
  }
  return std::min(acc, 0.0);
}

double hypergeometric_tail(std::uint64_t n, std::uint64_t t, std::uint64_t c,
                           std::uint64_t x0) {
  return std::exp(log_hypergeometric_tail(n, t, c, x0));
}

double kl_bernoulli(double a, double p) {
  if (a < 0.0 || a > 1.0 || p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("kl_bernoulli: a in [0,1], p in (0,1)");
  }
  auto term = [](double num, double den) {
    if (num == 0.0) return 0.0;
    return num * std::log(num / den);
  };
  return term(a, p) + term(1.0 - a, 1.0 - p);
}

double kl_tail_bound(double f, double c) {
  return std::exp(-kl_bernoulli(0.5, f) * c);
}

double simple_tail_bound(double c) { return std::exp(-c / 12.0); }

double binomial_tail(std::uint64_t k, double p, std::uint64_t x0) {
  if (p <= 0.0) return x0 == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return x0 <= k ? 1.0 : 0.0;
  if (x0 > k) return 0.0;
  const double lp = std::log(p);
  const double lq = std::log1p(-p);
  double acc = kNegInf;
  for (std::uint64_t x = x0; x <= k; ++x) {
    const double lpmf = log_binomial(k, x) + static_cast<double>(x) * lp +
                        static_cast<double>(k - x) * lq;
    acc = log_add(acc, lpmf);
  }
  return std::exp(std::min(acc, 0.0));
}

double log_add(double la, double lb) {
  if (la == kNegInf) return lb;
  if (lb == kNegInf) return la;
  const double hi = std::max(la, lb);
  const double lo = std::min(la, lb);
  return hi + std::log1p(std::exp(lo - hi));
}

double log_sum_exp(const std::vector<double>& xs) {
  double acc = kNegInf;
  for (double x : xs) acc = log_add(acc, x);
  return acc;
}

double fit_slope(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("fit_slope: need >=2 matching points");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) throw std::invalid_argument("fit_slope: degenerate x");
  return (n * sxy - sx * sy) / denom;
}

namespace {

// Nearest rank: ceil(q * n) in 1-based indexing, clamped to [1, n].
// Precondition: `sorted` is ascending and non-empty; q in [0, 1].
double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace

double percentile(const std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  return nearest_rank(sorted, q);
}

SortedSample::SortedSample(std::vector<double> sample)
    : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double SortedSample::percentile(double q) const {
  if (sorted_.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  return nearest_rank(sorted_, q);
}

}  // namespace cyc::math
