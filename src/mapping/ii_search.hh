/**
 * @file
 * Initiation-interval search driver.
 *
 * Computes the minimum II bound (resource MII, per-op-class MII, recurrence
 * MII), then sweeps II upward invoking a Mapper until it succeeds or the
 * configuration-depth limit / time budget is exhausted. This mirrors the
 * paper's compilation flow: "the compiler starts with target II equal to
 * MII and increments by one if it cannot map". Before each temporal II
 * the sweep asks the route-slot bound (ii_bound.hh) whether that II can
 * be mapped at all, and skips the IIs it proves unmappable.
 */

#ifndef LISA_MAPPING_II_SEARCH_HH
#define LISA_MAPPING_II_SEARCH_HH

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "mappers/mapper.hh"
#include "mapping/ii_bound.hh"

namespace lisa::map {

/**
 * Cache-relevant budget bucket of a SearchOptions.
 *
 * The serve daemon keys its result cache on (canonical DFG hash, fabric
 * fingerprint, budget class), and the bench harness labels its JSON rows
 * with the same value, so the bucketing rule lives here and nowhere
 * else:
 *
 *  - Fast:   totalBudget <= 2.0 s  (smoke/interactive tier)
 *  - Full:   totalBudget <= 60.0 s (the default production sweep)
 *  - Custom: anything longer — keyed by its exact budgets, because two
 *    different oversized budgets can legitimately reach different IIs.
 *
 * Only the *total* budget buckets the class: perIiBudget shapes how the
 * sweep spends its time, not how much it gets, and folding it into the
 * bucket would split cache entries that converge to the same answer.
 */
enum class BudgetClass : uint8_t
{
    Fast,
    Full,
    Custom,
};

struct SearchOptions;

/** Classify @p options per the rule documented on BudgetClass. */
BudgetClass budgetClassOf(const SearchOptions &options);

/** Stable lowercase name: "fast" / "full" / "custom". */
const char *budgetClassName(BudgetClass c);

/**
 * Cache-key string for the budget component: the class name for Fast and
 * Full, "custom:<perIiBudget>:<totalBudget>" for Custom so distinct
 * oversized budgets never alias.
 */
std::string budgetClassKey(const SearchOptions &options);

/** Options for one full compilation (II sweep). */
struct SearchOptions
{
    /** Wall-clock budget per II attempt, seconds. */
    double perIiBudget = 3.0;
    /** Wall-clock budget for the whole sweep, seconds. */
    double totalBudget = 60.0;
    /** RNG seed for the mapper's stochastic choices. Each II attempt
     *  gets its own deterministic split of this seed, and each of the
     *  `threads` concurrent streams splits again, so results for a given
     *  (seed, threads) pair are reproducible. */
    uint64_t seed = 1;
    /** Concurrent seed streams per II attempt (1 = serial). */
    int threads = 1;
    /** Optional external cancellation flag. */
    std::atomic<bool> *stop = nullptr;
    /** Shared best-II incumbent of an enclosing cross-mapper portfolio
     *  (null outside a race). The sweep offers every success to it and
     *  abandons any II attempt the incumbent dominates — another member
     *  achieved a lower II, or the same II with a better (lower)
     *  memberRank. Dominated attempts can never be the portfolio winner,
     *  so cancelling them keeps the race deterministic. */
    IiIncumbent *incumbent = nullptr;
    /** This sweep's tie-break rank within the portfolio member set. */
    int memberRank = 0;
};

/** How the sweep left one II it considered. */
enum class IiOutcome : uint8_t
{
    ProvenInfeasible,   ///< the route-slot bound ruled it out (no attempt)
    Success,            ///< the attempt mapped
    BudgetExhausted,    ///< the attempt, or the sweep's total budget, ran out
    IncumbentCancelled, ///< a portfolio sibling's success dominated it
    Stopped,            ///< the external stop flag was raised
    /** The mapper's enumeration finished without a mapping before its
     *  budget ran out (MapperStats::searchesExhausted). ILP* is
     *  incomplete, so this is no proof the II is infeasible. */
    SearchExhausted,
};

/** Stable name: "proven-infeasible", "success", "budget-exhausted",
 *  "incumbent-cancelled", "stopped" or "search-exhausted". */
const char *iiOutcomeName(IiOutcome outcome);

/** One entry of the sweep timeline. */
struct IiStep
{
    int ii = 0;
    /** Wall-clock spent at this II (bound plus mapper attempt), seconds. */
    double seconds = 0.0;
    /** Route-slot bound search nodes this sweep spent at this II. */
    uint64_t boundNodes = 0;
    IiOutcome outcome = IiOutcome::BudgetExhausted;
};

/** Outcome of one full compilation. */
struct SearchResult
{
    bool success = false;
    /** Achieved II (0 when mapping failed). */
    int ii = 0;
    /** Classic max(ResMII, RecMII) lower bound the sweep started from.
     *  IIs the route-slot bound proves unmappable do not raise it; they
     *  show up in the timeline instead. */
    int mii = 0;
    /** One entry per II the sweep considered, in sweep order. */
    std::vector<IiStep> timeline;
    /** Total wall-clock compilation time, seconds. */
    double seconds = 0.0;
    /** Wall-clock cost of the final-answer invariant verification. */
    double verifySeconds = 0.0;
    /** True once the returned mapping passed the full verifier. */
    bool verified = false;
    /** Annealing attempts (restart count) summed over all streams. */
    long attempts = 0;
    /** II at which an enclosing portfolio incumbent cancelled this sweep
     *  (0 = the sweep ran to its own completion). */
    int cancelledAtIi = 0;
    /** Budget bucket of the options this sweep ran under (see
     *  BudgetClass for the rule) — the third serve cache-key component. */
    BudgetClass budgetClass = BudgetClass::Full;
    /** Observability counters merged over all streams and II attempts. */
    MapperStats stats;
    /** The valid mapping (present iff success). */
    std::optional<Mapping> mapping;
};

/** Resource-constrained minimum II, including per-op-class limits. */
int resourceMii(const dfg::Dfg &dfg, const arch::Accelerator &accel);

/** max(resourceMii, recurrence MII). */
int minimumIi(const dfg::Dfg &dfg, const dfg::Analysis &analysis,
              const arch::Accelerator &accel);

/**
 * Run the II sweep against a shared ArchContext: MRRGs and oracle tables
 * come from (and stay in) @p context, so repeated sweeps over the same
 * accelerator — other kernels, other mappers, later II attempts — reuse
 * them instead of re-deriving per call. Context reuse is counted into
 * SearchResult::stats (router.contextHits / contextMisses). Spatial-only
 * accelerators get a single attempt at II == 1 and report II 1 on
 * success. Temporal IIs from mii upward are first checked with boundIi
 * until one is not proven infeasible; the proven ones never reach the
 * mapper (stats.iisProvenInfeasible, stats.boundNodes).
 */
SearchResult searchMinIi(Mapper &mapper, const dfg::Dfg &dfg,
                         arch::ArchContext &context,
                         const SearchOptions &options);

/**
 * Route-slot bounds (ii_bound.hh) for IIs @p mii, @p mii + 1, ... up to
 * and including the first one not proven infeasible, each with its
 * work. PortfolioSearch runs this once per race and hands the result to
 * every member's sweep.
 */
std::vector<IiBound> proveLowIis(const dfg::Dfg &dfg,
                                 const arch::Accelerator &accel, int mii);

/**
 * The sweep above, fed with bounds @p proofs from proveLowIis (starting
 * at the sweep's mii) instead of running the bound itself. The proven
 * IIs still appear in the timeline, with zero bound work of this sweep's
 * own; the caller that ran the proofs accounts for their work.
 */
SearchResult searchMinIi(Mapper &mapper, const dfg::Dfg &dfg,
                         arch::ArchContext &context,
                         const SearchOptions &options,
                         const std::vector<IiBound> &proofs);

/**
 * Compatibility wrapper: runs the sweep through a transient, disk-less
 * ArchContext scoped to this call. One-shot callers lose nothing; anyone
 * mapping a stream of DFGs should hold a context and use the overload
 * above.
 */
SearchResult searchMinIi(Mapper &mapper, const dfg::Dfg &dfg,
                         const arch::Accelerator &accel,
                         const SearchOptions &options);

} // namespace lisa::map

#endif // LISA_MAPPING_II_SEARCH_HH
