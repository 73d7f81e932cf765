#include "metrics.hh"

#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

namespace lisabench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> list = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"iqm_ms", "ms"},
        {"tail_ms", "ms"},
        {"ops_per_s", "1/s"},
        {"ii_ratio", "ratio"},
    };
    return list;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> list = {
        // compile: set-up
        {"setup.arch_ms", "ms"},
        {"setup.train_s", "s"},
        // compile: one LisaFramework::compile, replayed call by call
        {"dfg.analysis_ms", "ms"},
        {"gnn.predict_ms", "ms"},
        {"mapping.sweep_ms", "ms"},
        {"mapping.ii_attempts", "count"},
        {"core.self_ms", "ms"},
        {"core.init_ms", "ms"},
        {"core.move_ms", "ms"},
        {"core.restarts", "count"},
        {"core.accept_ratio", "ratio"},
        {"router.route_ms", "ms"},
        {"router.calls", "count"},
        {"router.fail_ratio", "ratio"},
        {"router.pq_pops", "count"},
        {"router.relaxations", "count"},
        {"router.filter_rejects", "count"},
        {"arch.context_hit_ratio", "ratio"},
        {"arch.oracle_builds", "count"},
        {"verify.final_ms", "ms"},
        // serve-hit: the hit path, one public call at a time
        {"serve.roundtrip_ms", "ms"},
        {"serve.service_ms", "ms"},
        {"serve.decode_ms", "ms"},
        {"dfg.parse_ms", "ms"},
        {"dfg.canonicalize_ms", "ms"},
        {"dfg.canonicalize_p99_ms", "ms"},
        {"serve.lookup_us", "us"},
        {"verify.replay_ms", "ms"},
        {"serve.encode_ms", "ms"},
        {"serve.hit_ratio", "ratio"},
        // serve-mixed: the miss path
        {"serve.search_ms", "ms"},
        {"serve.wait_ms", "ms"},
        {"serve.searches", "count"},
        {"serve.coalesced", "count"},
        {"portfolio.wins_sa", "count"},
        {"portfolio.wins_ilp", "count"},
        {"portfolio.wins_evo", "count"},
        {"serve.save_ms", "ms"},
        {"serve.cache_entries", "count"},
        {"serve.hit_under_load_ms", "ms"},
        // the traced run itself
        {"trace.requests", "count"},
        {"trace.setup_s", "s"},
        {"trace.peak_rss_mb", "MiB"},
        {"trace.overhead_iqm_ms", "ms"},
        {"trace.overhead_tail_ms", "ms"},
        {"trace.overhead_ops_per_s", "1/s"},
        {"trace.overhead_ii_ratio", "ratio"},
    };
    return list;
}

bool
renderResult(const RunReport &report, bool traced, std::string &line,
             std::string &error)
{
    const auto &specs = traced ? perLayerMetrics() : endToEndMetrics();
    std::set<std::string> known;
    for (const auto *list : {&perLayerMetrics(), &endToEndMetrics()})
        for (const MetricSpec &m : *list)
            known.insert(m.name);
    for (const auto &[name, value] : report.values) {
        if (!known.count(name)) {
            error = "metric '" + name + "' is in neither metric list";
            return false;
        }
        if (!std::isfinite(value)) {
            error = "metric '" + name + "' is not a finite number";
            return false;
        }
    }
    std::ostringstream os;
    os << std::setprecision(10);
    os << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m : specs) {
        auto it = report.values.find(m.name);
        if (it == report.values.end()) {
            error = std::string("metric '") + m.name + "' was not measured";
            return false;
        }
        os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
           << it->second << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    line = os.str();
    return true;
}

} // namespace lisabench
