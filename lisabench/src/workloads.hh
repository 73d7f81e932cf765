/**
 * @file
 * The three benchmark workloads. Each sets up, runs a closed-loop load
 * for RunOptions::seconds, checks every output, and fills env.report
 * with the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run). A traced run measures untraced and traced requests of
 * one request stream side by side, so the tracing overhead is measured
 * on the same machine, in the same run.
 */

#ifndef LISABENCH_WORKLOADS_HH
#define LISABENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "run_env.hh"

namespace lisabench {

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/** @{ @return false and fill @p error when the workload cannot run. */
bool runCompile(RunEnv &env, std::string &error);
bool runServeHit(RunEnv &env, std::string &error);
bool runServeMixed(RunEnv &env, std::string &error);
/** @} */

/** Latency samples of one request group (untraced or traced). */
struct GroupSamples
{
    /** Per-request latency of the requests the latency metrics cover,
     *  ms. */
    std::vector<double> ms;
    /** Per-request busy time of the caller (latency plus any traced
     *  probe work) of every request, seconds. */
    std::vector<double> busySeconds;
    /** Per-result achieved II / MII. */
    std::vector<double> iiRatio;
};

/**
 * Fill the end-to-end metrics from @p untraced (tail at percentile
 * @p tail_pct). In a traced run, fill the trace.overhead_* metrics as
 * traced minus untraced instead; both groups' throughput is then
 * requests per busy second times @p callers. @p wall_ops_per_s is the
 * untraced run's requests over load wall time.
 */
void reportLoad(RunEnv &env, const GroupSamples &untraced,
                const GroupSamples &traced, double tail_pct, int callers,
                double wall_ops_per_s, double setup_s);

} // namespace lisabench

#endif // LISABENCH_WORKLOADS_HH
