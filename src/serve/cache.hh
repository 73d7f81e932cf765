/**
 * @file
 * Content-addressed mapping result cache for the serve daemon.
 *
 * Key = (canonical DFG hash, ArchContext fabric fingerprint, budget
 * class key). The first component makes isomorphic kernel re-submissions
 * collide (dfg/canonical.hh); the second pins the fabric; the third
 * separates answer-affecting budget tiers (map::budgetClassKey — the
 * bucketing rule is documented once, on map::BudgetClass).
 *
 * Entries store the winning mapping as mapping_io.hh "lisa-mapping v1"
 * text *in canonical node numbering* — the search itself runs on the
 * canonical DFG, so one stored artifact serves every permutation variant
 * of the kernel. The service replays and verifies it per hit; the cache
 * itself only stores bytes and never trusts them.
 *
 * Each entry also records the fingerprint of the label models that were
 * loaded when it was searched (0 = none). It is not part of the key: the
 * service treats an entry made under other models as a miss and replaces
 * it, so answers made with and without models never alias.
 *
 * Persistence ("LSRV" v2): magic, format version, entry payload, trailing
 * FNV-1a checksum, written tmp + rename so a crash never leaves a torn
 * file; load rejects any magic/version/size/checksum mismatch and leaves
 * the cache unchanged (a cold cache is correct, a corrupt one is not).
 * v1 files, which carry no model fingerprint, are rejected that way.
 *
 * This file is on the tools/lint.sh hot-file list: the lookup path —
 * the steady state of a warmed-up daemon — takes the mutex, probes one
 * std::map, and bumps one shared_ptr refcount; no heap allocation.
 * Mutation and persistence are cold and marked as such.
 */

#ifndef LISA_SERVE_CACHE_HH
#define LISA_SERVE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "support/thread_annotations.hh"

namespace lisa::serve {

/** Cache identity of one (kernel, fabric, budget tier) request class. */
struct CacheKey
{
    uint64_t dfgHash = 0;
    uint64_t archFingerprint = 0;
    std::string budgetKey;

    bool
    operator<(const CacheKey &o) const
    {
        if (dfgHash != o.dfgHash)
            return dfgHash < o.dfgHash;
        if (archFingerprint != o.archFingerprint)
            return archFingerprint < o.archFingerprint;
        return budgetKey < o.budgetKey;
    }
};

/** One cached search result (immutable once inserted). */
struct CacheEntry
{
    CacheKey key;
    int ii = 0;
    int mii = 0;
    long attempts = 0;
    /** Wall-clock of the search that produced the entry, seconds. */
    double searchSeconds = 0.0;
    /** Winning portfolio member ("LISA", "SA", "ILP*"). */
    std::string winner;
    /** LisaFramework::modelFingerprint() of the fabric's label models
     *  when the entry was searched; 0 when the race ran without them. */
    uint64_t modelFingerprint = 0;
    /** "lisa-mapping v1" text over the canonical DFG. */
    std::string mappingText;
};

/** Thread-safe content-addressed store of CacheEntries. */
class MappingCache
{
  public:
    MappingCache() = default;

    /** @return the entry for @p key, or nullptr on miss. Allocation-free
     *  (returned handle shares ownership with the cache, so the entry
     *  stays valid even if erased concurrently). */
    std::shared_ptr<const CacheEntry> lookup(const CacheKey &key) const
        LISA_EXCLUDES(mu);

    /** Insert (or replace) the entry under entry->key. */
    void insert(std::shared_ptr<const CacheEntry> entry) LISA_EXCLUDES(mu);

    /** Drop @p key (verify-on-hit failure path). @return true if found. */
    bool erase(const CacheKey &key) LISA_EXCLUDES(mu);

    size_t size() const LISA_EXCLUDES(mu);

    /** @{ LSRV v2 persistence. save() writes atomically (tmp + rename);
     *  load() validates magic, version and checksum, rejects individually
     *  malformed records, and merges valid ones over the current content.
     *  Both return false on any I/O or format failure. */
    bool save(const std::string &path) const LISA_EXCLUDES(mu);
    bool load(const std::string &path) LISA_EXCLUDES(mu);
    /** @} */

  private:
    mutable support::Mutex mu;
    std::map<CacheKey, std::shared_ptr<const CacheEntry>> entries
        LISA_GUARDED_BY(mu);
};

} // namespace lisa::serve

#endif // LISA_SERVE_CACHE_HH
