#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace lisabench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
interquartileMean(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t cut = samples.size() / 4;
    double sum = 0.0;
    for (size_t i = cut; i < samples.size() - cut; ++i)
        sum += samples[i];
    return sum / static_cast<double>(samples.size() - 2 * cut);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace lisabench
