/**
 * @file
 * The benchmark's metric catalogue and its one-line result.
 *
 * The two lists below are the single source of the metric names and
 * units lisabench prints; BENCHMARK.json at the repository root must
 * name the same metrics (test.py checks it). Every workload prints
 * every end-to-end metric in an untraced run and every per-layer metric
 * in a traced run; a layer the workload never calls reports 0.
 */

#ifndef LISABENCH_METRICS_HH
#define LISABENCH_METRICS_HH

#include <map>
#include <string>
#include <vector>

namespace lisabench {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Metrics of the untraced run (what a user of the system sees). */
const std::vector<MetricSpec> &endToEndMetrics();

/** Metrics of the traced run (single layers, plus tracing overhead). */
const std::vector<MetricSpec> &perLayerMetrics();

/** Outcome of one benchmark run. */
struct RunReport
{
    /** False once any output check failed. */
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::map<std::string, double> values;

    void set(const std::string &name, double value) { values[name] = value; }
};

/**
 * Render the final result line: {"correct","attempted","failed",
 * "metrics"} with exactly the metrics of the selected list. @return
 * false (and fills @p error) when @p report lacks one of them, or holds
 * a metric that is in neither list or is not finite. Metrics of the
 * other list are left out of the line.
 */
bool renderResult(const RunReport &report, bool traced, std::string &line,
                  std::string &error);

} // namespace lisabench

#endif // LISABENCH_METRICS_HH
