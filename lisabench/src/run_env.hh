/**
 * @file
 * What one benchmark run owns besides its workload: options, the
 * pinned environment, a run-private directory, the tracer and the
 * provenance record printed before the result.
 */

#ifndef LISABENCH_RUN_ENV_HH
#define LISABENCH_RUN_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"
#include "trace.hh"

namespace lisabench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed load, seconds. */
    double seconds = 10.0;
    bool trace = false;
    /** Directory (under the checkout) for run-private files and the
     *  trace output. */
    std::string workDir = ".bench_build";
    std::string commit = "unknown";
    /** Content hash of the sources the binary was built from. */
    std::string sourceId = "unknown";
};

/**
 * Unset every LISA_* environment variable the program reads
 * (LISA_BENCH_FAST, LISA_THREADS, LISA_ARCH_CACHE, LISA_SERVE_CACHE,
 * LISA_ROUTE_FILTER, LISA_ROUTER_REFERENCE, LISA_VALIDATE,
 * LISA_METRICS*, and any other LISA_ name). @return the names cleared.
 */
std::vector<std::string> clearLisaEnv();

/** Seconds since the process started (anchored at static init). */
double secondsSinceStart();

/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/** Provenance of one run, printed as a JSON line before the result. */
struct Provenance
{
    std::vector<std::string> clearedEnv;
    int loadThreads = 1;
    /** Untraced latency samples behind iqm_ms and tail_ms. */
    size_t latencySamples = 0;
    /** FNV-1a of the trained model files; "none" when nothing trains. */
    std::string modelFingerprint = "none";
    /** "yes"/"no" for the compile workload; "n/a" where no model dir is
     *  read. */
    std::string routabilityModel = "n/a";
    /** False when an earlier run of the same sources and workload
     *  trained a model with another fingerprint. */
    bool comparable = true;
};

/** Per-run state shared by main() and the workloads. */
class RunEnv
{
  public:
    /** Creates the run-private directory. */
    explicit RunEnv(RunOptions options);
    /** Removes the run-private directory. */
    ~RunEnv();

    RunEnv(const RunEnv &) = delete;
    RunEnv &operator=(const RunEnv &) = delete;

    const RunOptions &options() const { return opts; }

    /** Path of @p name inside the run-private directory. Relative to
     *  the working directory, so it stays short enough for a Unix
     *  socket. */
    std::string file(const std::string &name) const;

    /**
     * Record @p fingerprint for (source id, workload) in the work dir's
     * ledger and set provenance.comparable to whether every earlier run
     * recorded the same one.
     */
    void recordModelFingerprint(const std::string &fingerprint);

    std::string provenanceJson() const;

    /** Write per-request rows (TSV with a header line) to
     *  WORKDIR/samples/WORKLOAD-seedN.tsv. */
    void writeSamples(const std::string &tsv) const;

    Tracer tracer;
    Provenance provenance;
    RunReport report;

  private:
    RunOptions opts;
    std::string dir;
};

} // namespace lisabench

#endif // LISABENCH_RUN_ENV_HH
