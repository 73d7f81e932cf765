#include "workloads.hh"

#include <numeric>

#include "stats.hh"

namespace lisabench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"compile", "serve-hit",
                                                   "serve-mixed"};
    return names;
}

void
reportLoad(RunEnv &env, const GroupSamples &untraced,
           const GroupSamples &traced, double tail_pct, int callers,
           double wall_ops_per_s, double setup_s)
{
    RunReport &r = env.report;
    env.provenance.latencySamples = untraced.ms.size();
    if (!env.options().trace) {
        r.set("setup_s", setup_s);
        r.set("peak_rss_mb", peakRssMb());
        r.set("iqm_ms", interquartileMean(untraced.ms));
        r.set("tail_ms", percentile(untraced.ms, tail_pct));
        r.set("ops_per_s", wall_ops_per_s);
        r.set("ii_ratio", geomean(untraced.iiRatio));
        return;
    }
    auto rate = [&](const GroupSamples &g) {
        const double busy =
            std::accumulate(g.busySeconds.begin(), g.busySeconds.end(), 0.0);
        return ratio(static_cast<double>(g.busySeconds.size()) * callers,
                     busy);
    };
    r.set("trace.setup_s", setup_s);
    r.set("trace.peak_rss_mb", peakRssMb());
    r.set("trace.overhead_iqm_ms", interquartileMean(traced.ms) -
                                       interquartileMean(untraced.ms));
    r.set("trace.overhead_tail_ms", percentile(traced.ms, tail_pct) -
                                        percentile(untraced.ms, tail_pct));
    r.set("trace.overhead_ops_per_s", rate(traced) - rate(untraced));
    r.set("trace.overhead_ii_ratio",
          geomean(traced.iiRatio) - geomean(untraced.iiRatio));
    r.set("trace.requests", static_cast<double>(traced.ms.size()));
}

} // namespace lisabench
