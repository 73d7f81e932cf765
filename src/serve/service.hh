/**
 * @file
 * MappingService: the serve daemon's request brain, socket-free.
 *
 * One service owns the content-addressed result cache (serve/cache.hh),
 * a registry of in-memory ArchContexts keyed by accelerator spec (built on
 * a fabric's first request and kept for the service's life, together
 * with the fabric's label models when the model dir has usable ones),
 * and the admission/coalescing machinery in front of the search. The socket
 * layer (serve/server.hh) and the bench load generator both drive this
 * class directly, so every protocol behavior is testable in-process.
 *
 * Request flow (DESIGN.md section 14):
 *
 *   parse DFG -> resolve ArchContext -> canonicalize (dfg/canonical.hh)
 *   -> key = (canonical hash, fabric fingerprint, budget class key)
 *   -> cache lookup
 *      hit:  replay the stored canonical mapping, translate to request
 *            node ids, re-verify with verify::verifyMapping; a failing
 *            replay evicts the entry and falls through to the miss path
 *            (verify-on-hit: no bytes are served that did not just pass
 *            the independent verifier).
 *            An entry searched under other label models than the
 *            fabric's current ones is a miss too.
 *      miss: coalesce — the first requester of a key becomes the leader
 *            and runs one PortfolioSearch on the *canonical* DFG (so the
 *            stored artifact serves all permutation variants): LISA +
 *            ILP* when the fabric has label models, SA + ILP* when it
 *            has none. N-1 concurrent identical requesters wait on the
 *            leader's result instead of searching. Leaders pass
 *            admission control first: at most maxInflight searches run
 *            at once, excess leaders queue. Successful results are
 *            inserted and persisted.
 *
 * Determinism and seeds: the cache key is (canonical DFG, fabric
 * fingerprint, budget class) — deliberately *not* the request seed —
 * so results are shared across seeds within a budget class: a hit or a
 * coalesced response may replay an artifact whose search ran under a
 * different seed, and its II/winner/attempts can differ from what this
 * seed's own search would have produced. Every served mapping still
 * passed the independent verifier against this exact request. Only a
 * genuine leader miss runs a search, and that search is reproducible
 * for a fixed (DFG, accel, budget, seed).
 */

#ifndef LISA_SERVE_SERVICE_HH
#define LISA_SERVE_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "dfg/canonical.hh"
#include "mapping/portfolio.hh"
#include "serve/cache.hh"
#include "serve/proto.hh"

namespace lisa::arch {
class Accelerator;
class ArchContext;
} // namespace lisa::arch

namespace lisa::serve {

/** Daemon-level configuration. */
struct ServeConfig
{
    /** Result-cache persistence file ("" = in-memory only). Default is
     *  the LISA_SERVE_CACHE environment knob. */
    std::string cacheFile = envCacheFile();
    /** Admission control: max concurrently running searches. */
    int maxInflight = 2;
    /** Where each fabric's label models are loaded from, once, on its
     *  first request ("" = none: every fabric races SA + ILP*). */
    std::string modelDir = core::defaultModelDir();

    /** Value of the LISA_SERVE_CACHE knob ("" when unset). */
    static std::string envCacheFile();
};

/** One registered fabric: what its misses race, and on which models. */
struct FabricStats
{
    /** Normalized accelerator spec line. */
    std::string accel;
    /** Race members in rank order ("LISA", "ILP*" or "SA", "ILP*"). */
    std::vector<std::string> race;
    /** LisaFramework::modelFingerprint() of the loaded models; 0 = none. */
    uint64_t modelFingerprint = 0;
};

/** Monotonic service counters (snapshot; see MappingService::stats). */
struct ServeStats
{
    long requests = 0;
    long hits = 0;
    long misses = 0;
    /** Requests that waited on another request's identical search. */
    long coalesced = 0;
    /** Searches actually run (== misses - coalesced when all succeed). */
    long searches = 0;
    /** Cache entries evicted because their replay failed verification. */
    long verifyFailures = 0;
    /** Every fabric served so far, in spec order. */
    std::vector<FabricStats> fabrics;

    std::string toJson() const;
};

/** Long-lived mapping service: cache in front of PortfolioSearch. */
class MappingService
{
  public:
    /** Injectable search backend (tests swap in gated fakes to prove
     *  coalescing). Without one, the service races the fabric's own
     *  members: LISA + ILP* with label models, SA + ILP* without. */
    using SearchFn = std::function<map::PortfolioResult(
        const dfg::Dfg &, arch::ArchContext &,
        const map::SearchOptions &)>;

    explicit MappingService(ServeConfig config);
    ~MappingService();

    MappingService(const MappingService &) = delete;
    MappingService &operator=(const MappingService &) = delete;

    /** Serve one map request (thread-safe, called concurrently by every
     *  connection handler). */
    MapOutcome map(const MapRequest &request) LISA_EXCLUDES(mu);

    ServeStats stats() const LISA_EXCLUDES(mu);

    /** Replace the search backend (test hook; not thread-safe against
     *  concurrent map() calls — install before serving). */
    void setSearchFn(SearchFn fn);

    /** Direct cache access (tests, tools). */
    MappingCache &cache() { return store; }

    /** Persist the cache now (no-op without a cacheFile). @return false
     *  on write failure. */
    bool saveCache();

  private:
    /** One registered accelerator: the spec string owns every object.
     *  All fields are written once, under `mu`, before the entry is
     *  published, and only read after. */
    struct ArchEntry
    {
        std::unique_ptr<arch::Accelerator> accel;
        std::unique_ptr<arch::ArchContext> context;
        /** Loaded label models; null when the model dir has none usable. */
        std::unique_ptr<core::LisaFramework> framework;
        /** framework->modelFingerprint(), or 0 without a framework. */
        uint64_t modelFingerprint = 0;
    };

    /** One in-flight search other requests may coalesce onto. Fields are
     *  written by the leader and read by followers strictly under the
     *  service mutex; `cv` hands the done-flip to waiters. */
    struct Inflight
    {
        std::condition_variable_any cv;
        bool done = false;
        std::shared_ptr<const CacheEntry> entry;
        std::string error;
        int mii = 0;
    };

    /** Find-or-create the ArchEntry for @p spec, loading the fabric's
     *  label models on creation. nullptr + @p error on a malformed spec.
     *  The returned pointer is stable for the service's lifetime
     *  (entries are never removed). */
    ArchEntry *archFor(const std::string &spec, std::string *error)
        LISA_EXCLUDES(mu);

    /** Load @p entry's label models from cfg.modelDir, or leave it
     *  without; logs one provenance line either way. */
    void loadModels(const std::string &spec, ArchEntry &entry) const;

    /** Run the miss search for @p dfg on @p arch's race members. */
    map::PortfolioResult race(const ArchEntry &arch, const dfg::Dfg &dfg,
                              const map::SearchOptions &options) const;

    /**
     * Replay @p entry against @p request_dfg: translate the canonical
     * mapping through @p canon's tables, re-verify, and fill @p out.
     * @return false when the entry is unusable (shape mismatch, replay
     * rejection, verifier violation) — the caller evicts and re-searches.
     */
    bool serveEntry(ArchEntry &arch, const dfg::Dfg &request_dfg,
                    const dfg::CanonicalDfg &canon, const CacheEntry &entry,
                    MapOutcome &out);

    ServeConfig cfg;
    MappingCache store;
    SearchFn search;

    mutable support::Mutex mu;
    /** Accelerator registry, keyed by normalized spec line. */
    std::map<std::string, std::unique_ptr<ArchEntry>> archs
        LISA_GUARDED_BY(mu);
    /** Coalescing table: key -> the search currently computing it. */
    std::map<CacheKey, std::shared_ptr<Inflight>> inflight
        LISA_GUARDED_BY(mu);
    /** Admission control state. */
    int runningSearches LISA_GUARDED_BY(mu) = 0;
    std::condition_variable_any admitCv;
    ServeStats counters LISA_GUARDED_BY(mu);
    /** True when the cache changed since the last save. */
    bool dirty LISA_GUARDED_BY(mu) = false;
};

} // namespace lisa::serve

#endif // LISA_SERVE_SERVICE_HH
