/**
 * @file
 * Summary arithmetic of the benchmark: percentiles, geometric mean and
 * medians of per-request samples.
 */

#ifndef LISABENCH_STATS_HH
#define LISABENCH_STATS_HH

#include <vector>

namespace lisabench {

/**
 * Percentile @p p (0..100) of @p samples by linear interpolation
 * between the closest ranks (rank = p/100 * (n-1)), the rule numpy uses
 * by default. 0 for an empty sample set.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/**
 * Interquartile mean: the mean of @p samples after dropping the lowest
 * and the highest floor(n/4) of them. As robust to outliers as the
 * median, but it averages over the middle half, so it moves far less
 * from run to run when the samples are few and widely spread. 0 for an
 * empty sample set.
 */
double interquartileMean(std::vector<double> samples);

/** Geometric mean of strictly positive @p values; 0 when empty. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);

} // namespace lisabench

#endif // LISABENCH_STATS_HH
