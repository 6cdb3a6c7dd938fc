// E5 — §V-C: partial-set security. Probability that a partial set of
// size lambda contains no honest node, (1/3)^lambda, with the paper's
// lambda=40 spot value and a Monte-Carlo overlay at small lambda.
#include <cstdio>

#include "analysis/bounds.hpp"

using namespace cyc;

int main() {
  const double f = 1.0 / 3.0;
  std::printf("=== Partial-set failure probability (Section V-C) ===\n");
  std::printf("%-8s %-14s %-14s\n", "lambda", "(1/3)^lambda", "MonteCarlo");

  rng::Stream rng(7);
  for (std::uint64_t lambda : {1u, 2u, 4u, 6u, 8u, 10u, 16u, 24u, 32u, 40u}) {
    const double analytic = analysis::partial_set_failure(f, lambda);
    if (analytic > 1e-5) {
      std::uint64_t bad = 0;
      const std::uint64_t trials = 400000;
      for (std::uint64_t trial = 0; trial < trials; ++trial) {
        bool all_faulty = true;
        for (std::uint64_t i = 0; i < lambda; ++i) {
          if (!rng.chance(f)) {
            all_faulty = false;
            break;
          }
        }
        if (all_faulty) ++bad;
      }
      std::printf("%-8llu %-14.4e %-14.4e\n", (unsigned long long)lambda,
                  analytic, static_cast<double>(bad) / trials);
    } else {
      std::printf("%-8llu %-14.4e %-14s\n", (unsigned long long)lambda,
                  analytic, "(too rare)");
    }
  }

  const double p40 = analysis::partial_set_failure(f, 40);
  std::printf("\nSpot checks vs the paper's text:\n");
  std::printf("  lambda=40: %.4e  (paper: <8e-20; exact value 8.22e-20 —\n"
              "  the paper rounds (1/3)^40 down)\n", p40);
  std::printf("  m=20 union bound: %.4e  (paper: <=2e-18)\n", 20.0 * p40);
  return 0;
}
