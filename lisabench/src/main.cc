/**
 * @file
 * lisabench: the repository's benchmark, as one process.
 *
 *   lisabench --workload {compile|serve-hit|serve-mixed} --seed N
 *             --seconds S --trace {0|1} [--work-dir DIR]
 *             [--commit C] [--source-id H]
 *   lisabench --list-metrics
 *
 * Runs one workload for S seconds of closed-loop load, checks every
 * output, and prints a provenance line followed by the result line
 * {"correct","attempted","failed","metrics"} as the last line of stdout:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1 (whose spans also go to DIR/traces/). Exits non-zero when
 * an output check failed or the workload could not run.
 */

#include <filesystem>
#include <iostream>
#include <string>

#include "metrics.hh"
#include "run_env.hh"
#include "workloads.hh"

namespace {

using namespace lisabench;

int
usage(const std::string &why)
{
    std::cerr << "lisabench: " << why
              << "\nusage: lisabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--commit C] "
                 "[--source-id H]\n       lisabench --list-metrics\n";
    return 2;
}

void
listMetrics()
{
    for (const MetricSpec &m : endToEndMetrics())
        std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
    for (const MetricSpec &m : perLayerMetrics())
        std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
}

int
run(const RunOptions &opts)
{
    const std::vector<std::string> cleared = clearLisaEnv();
    RunEnv env(opts);
    env.provenance.clearedEnv = cleared;
    if (opts.trace)
        for (const MetricSpec &m : perLayerMetrics())
            env.report.set(m.name, 0.0);

    std::string error;
    bool ok = false;
    if (opts.workload == "compile")
        ok = runCompile(env, error);
    else if (opts.workload == "serve-hit")
        ok = runServeHit(env, error);
    else
        ok = runServeMixed(env, error);
    if (!ok) {
        std::cerr << "lisabench: " << opts.workload << ": " << error << "\n";
        return 1;
    }

    if (opts.trace) {
        const std::string dir = opts.workDir + "/traces";
        std::filesystem::create_directories(dir);
        const std::string path = dir + "/" + opts.workload + "-seed" +
                                 std::to_string(opts.seed) + ".jsonl";
        if (!env.tracer.writeJsonl(path))
            std::cerr << "lisabench: cannot write " << path << "\n";
    }
    if (!env.provenance.comparable)
        std::cerr << "lisabench: model fingerprint "
                  << env.provenance.modelFingerprint
                  << " differs from an earlier run of the same sources; "
                     "these runs are not comparable\n";

    std::string line;
    if (!renderResult(env.report, opts.trace, line, error)) {
        std::cerr << "lisabench: " << error << "\n";
        return 1;
    }
    std::cout << env.provenanceJson() << "\n" << line << std::endl;
    return env.report.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
                have_seconds = true;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = value == "1";
                have_trace = true;
            } else if (arg == "--work-dir") {
                opts.workDir = value;
            } else if (arg == "--commit") {
                opts.commit = value;
            } else if (arg == "--source-id") {
                opts.sourceId = value;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + arg + ": " + value);
        }
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opts.workload;
    if (!known)
        return usage("unknown workload '" + opts.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");

    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::cerr << "lisabench: " << e.what() << "\n";
        return 1;
    }
}
