/**
 * @file
 * LisaFramework — the end-to-end portable compiler (Fig 2 of the paper).
 *
 * For a target accelerator, prepare() either loads cached GNN models or
 * runs the one-off pipeline: synthesize DFGs, refine labels iteratively,
 * train the four label networks, measure held-out accuracy (Table II), and
 * cache everything on disk. load() is the loading half alone, for callers
 * that must never train (the serve daemon). compile() then maps any new
 * DFG: the trained GNNs predict its labels and the label-aware SA searches
 * the minimum II.
 */

#ifndef LISA_CORE_FRAMEWORK_HH
#define LISA_CORE_FRAMEWORK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lisa_mapper.hh"
#include "core/training_data.hh"
#include "gnn/accuracy.hh"
#include "mapping/ii_search.hh"
#include "mapping/portfolio.hh"

namespace lisa::arch {
class ArchContext;
} // namespace lisa::arch

namespace lisa::core {

/**
 * The one model directory rule: `<repo>/lisa_models`, an absolute path
 * fixed when src/ is configured, so every binary built from this tree
 * finds the same models whatever its cwd. The cgra4x4 label models ship
 * there; models trained for other fabrics are cached beside them.
 */
std::string defaultModelDir();

/** @p dir as provenance lines show it: absolute, so a run from an
 *  unexpected cwd is visible; "(no model dir)" when empty. */
std::string displayModelDir(const std::string &dir);

/** Framework-level configuration. */
struct FrameworkConfig
{
    TrainingDataConfig trainingData;
    gnn::TrainConfig training;
    /** Held-out fraction for the Table II accuracy numbers. */
    double testFraction = 0.15;
    /** Directory for cached models ("" disables caching). */
    std::string cacheDir = defaultModelDir();
    uint64_t seed = 7;
    LisaConfig mapper;
    /** Shared arch-artifact cache (MRRGs, distance-oracle tables). When
     *  null the framework owns a private one; pass a context to share
     *  artifacts with other consumers of the same accelerator. Must
     *  outlive the framework. */
    arch::ArchContext *archContext = nullptr;
};

/**
 * Member set and budgets for compilePortfolio. LISA always races at rank
 * 0 (its successes break II ties); the SA and ILP* baselines are
 * individually optional. Each member's SearchOptions carries its own
 * budgets and base seed; threads and incumbent wiring are managed by the
 * race itself.
 */
struct PortfolioConfig
{
    map::SearchOptions lisa;
    map::SearchOptions sa;
    map::SearchOptions ilp;
    bool runSa = true;
    bool runIlp = true;
};

/** How LisaFramework::load() left the label models. */
enum class ModelLoad : uint8_t
{
    Loaded,        ///< read from cacheDir, trained for this fabric
    NoneUsable,    ///< no cacheDir, or a file missing or unreadable
    ForeignFabric, ///< readable, but trained for another fabric
};

/**
 * Portable compiler instance for one accelerator.
 *
 * Concurrency contract: prepare() and load() mutate the framework (the
 * models, the training `rng`) and must not overlap any other call. Once
 * either has made the framework ready, the const entry points
 * (predictLabels, compile, compilePortfolio) only read the immutable
 * LabelModels and may run concurrently from any number of threads: the
 * ArchContext is internally synchronized (see arch/arch_context.hh), and
 * each call's mapper, labels and attempt streams are private to it. The
 * serve daemon relies on this to race one framework per fabric from
 * every admitted search.
 */
class LisaFramework
{
  public:
    LisaFramework(const arch::Accelerator &accel,
                  FrameworkConfig config = {});
    ~LisaFramework();

    /** Train or load the label models; idempotent. */
    void prepare();

    /**
     * Load the label models from cacheDir, never training. The .meta
     * fabric fingerprint must match this framework's ArchContext, exactly
     * as in prepare(). On Loaded the framework is ready; otherwise its
     * models are unusable and it stays unprepared.
     */
    ModelLoad load();

    /** FNV-1a over the bytes of the five model files, as loaded or as
     *  saved after training; 0 while no model files back the framework. */
    uint64_t modelFingerprint() const { return modelFp; }

    bool isPrepared() const { return ready; }

    const arch::Accelerator &accel() const { return *arch; }

    /** The arch-artifact cache every compile()/prepare() runs through
     *  (either the one injected via FrameworkConfig or the framework's
     *  own). */
    arch::ArchContext &archContext() const { return *ctx; }

    /** Predict the four labels of a DFG with the trained GNNs. */
    Labels predictLabels(const dfg::Dfg &dfg,
                         const dfg::Analysis &analysis) const;

    /** Map a DFG: GNN label prediction + label-aware SA + II sweep. */
    map::SearchResult compile(const dfg::Dfg &dfg,
                              const map::SearchOptions &options) const;

    /**
     * Map a DFG by racing LISA against the configured baseline mappers
     * (SA, ILP*) over the process thread pool, all sharing this
     * framework's ArchContext and one best-II incumbent. Deterministic
     * for a fixed (config seeds, member set, threads): the winner is the
     * lex-min (ii, rank) achiever, not the first finisher.
     */
    map::PortfolioResult
    compilePortfolio(const dfg::Dfg &dfg,
                     const PortfolioConfig &config) const;

    /** Held-out accuracy per label (1..4), available after prepare(). */
    const std::vector<double> &labelAccuracy() const { return accuracies; }

    /** Access to the trained models (after prepare()). */
    gnn::LabelModels &models();

  private:
    std::string cachePath(const std::string &suffix) const;
    uint64_t hashModelFiles() const;
    /** Write the models to cacheDir unless it holds another fabric's
     *  models under this name; true when they were written. */
    bool saveToCache() const;

    const arch::Accelerator *arch;
    FrameworkConfig cfg;
    std::unique_ptr<arch::ArchContext> ownedCtx;
    arch::ArchContext *ctx;
    mutable Rng rng;
    std::unique_ptr<gnn::LabelModels> nets;
    std::vector<double> accuracies;
    uint64_t modelFp = 0;
    bool ready = false;
};

} // namespace lisa::core

#endif // LISA_CORE_FRAMEWORK_HH
