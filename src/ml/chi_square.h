// Chi-square test of independence between two categorical variables.
//
// This is the statistical core of Auric's dependency learning (§3.2, eq. 3-4
// of the paper): for each (carrier attribute, configuration parameter) pair,
// build the contingency table of observed counts, compute
//   chi2 = sum_ab (O_ab - E_ab)^2 / E_ab,  df = (R-1)(C-1),
// and reject independence when the p-value falls below the significance
// level (the paper uses p = 0.01).
//
// The p-value is the survival function of the chi-square distribution,
// computed exactly via the regularized incomplete gamma function
// (Q(df/2, x/2)) rather than a truncated critical-value lookup table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace auric::ml {

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
/// Series expansion for x < a+1, continued fraction otherwise (the standard
/// gammp/gammq construction); absolute accuracy ~1e-12.
double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/// Survival function of the chi-square distribution with `df` degrees of
/// freedom: P(X > x) = Q(df/2, x/2). df must be >= 1.
double chi_square_sf(double x, int df);

struct ContingencyTable {
  /// Row-major rows x cols counts: at(r, c) = counts[r * cols + c] =
  /// observations with row-variable code r and column code c. The row count
  /// is kept even when cols is 0 (an empty label alphabet), so a later
  /// column splice widens every row.
  std::vector<std::int64_t> counts;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::int64_t total = 0;

  std::int64_t at(std::size_t r, std::size_t c) const { return counts[r * cols + c]; }

  /// Tallies the paired samples. x[i] in [0, card_x), y[i] in [0, card_y).
  static ContingencyTable build(std::span<const std::int32_t> x,
                                std::span<const std::int32_t> y, std::size_t card_x,
                                std::size_t card_y);

  /// An empty card_x-by-card_y table (all counts zero).
  static ContingencyTable zeros(std::size_t card_x, std::size_t card_y);

  /// Applies a signed count delta at (x, y); `total` tracks the table sum.
  /// This is the incremental re-test primitive: a maintained table fed one
  /// observation at a time holds exactly the integer counts build() would
  /// produce from the full population, so chi_square_test over it is
  /// bit-identical to a from-scratch scan. Throws std::out_of_range outside
  /// the table and std::logic_error when a count would go negative.
  void apply(std::int32_t x, std::int32_t y, std::int64_t delta);
};

struct ChiSquareResult {
  double statistic = 0.0;
  int df = 0;
  double p_value = 1.0;

  /// True when independence is rejected at significance `alpha`.
  bool dependent(double alpha) const { return df > 0 && p_value < alpha; }
};

/// Chi-square test over a prebuilt table. Rows/columns with zero marginal
/// count are dropped before computing the statistic (they carry no
/// information and would make expected counts zero); if fewer than 2 rows or
/// 2 columns remain, the result has df = 0 and p = 1 (no evidence).
ChiSquareResult chi_square_test(const ContingencyTable& table);

/// Convenience: build the table from paired code vectors and test.
ChiSquareResult chi_square_independence(std::span<const std::int32_t> x,
                                        std::span<const std::int32_t> y, std::size_t card_x,
                                        std::size_t card_y);

}  // namespace auric::ml
