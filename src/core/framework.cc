#include "core/framework.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/arch_context.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "nn/serialize.hh"
#include "support/fnv.hh"
#include "support/logging.hh"

namespace lisa::core {

namespace {

/** The files one accelerator's models occupy, in fingerprint order. */
constexpr const char *kModelFiles[] = {"label1", "label2", "label3",
                                       "label4", "meta"};

} // namespace

std::string
defaultModelDir()
{
    return LISA_MODEL_DIR;
}

std::string
displayModelDir(const std::string &dir)
{
    if (dir.empty())
        return "(no model dir)";
    std::error_code ec;
    const auto abs = std::filesystem::absolute(dir, ec);
    return ec ? dir : abs.string();
}

LisaFramework::LisaFramework(const arch::Accelerator &accel,
                             FrameworkConfig config)
    : arch(&accel), cfg(std::move(config)), rng(cfg.seed)
{
    if (cfg.archContext) {
        ctx = cfg.archContext;
    } else {
        // Owned fallback: a private in-memory context for this framework.
        ownedCtx = std::make_unique<arch::ArchContext>(accel);
        ctx = ownedCtx.get();
    }
    nets = std::make_unique<gnn::LabelModels>(rng);
}

LisaFramework::~LisaFramework() = default;

gnn::LabelModels &
LisaFramework::models()
{
    return *nets;
}

std::string
LisaFramework::cachePath(const std::string &suffix) const
{
    return cfg.cacheDir + "/" + arch->name() + "." + suffix;
}

uint64_t
LisaFramework::hashModelFiles() const
{
    if (cfg.cacheDir.empty())
        return 0;
    support::Fnv1a h;
    for (const char *suffix : kModelFiles) {
        std::ifstream in(cachePath(suffix), std::ios::binary);
        if (!in)
            return 0;
        std::ostringstream bytes;
        bytes << in.rdbuf();
        h.str(suffix);
        h.str(bytes.str());
    }
    return h.h;
}

ModelLoad
LisaFramework::load()
{
    if (ready)
        return ModelLoad::Loaded;
    if (cfg.cacheDir.empty())
        return ModelLoad::NoneUsable;
    if (!nn::loadModuleFile(nets->scheduleOrder, cachePath("label1")) ||
        !nn::loadModuleFile(nets->association, cachePath("label2")) ||
        !nn::loadModuleFile(nets->spatialDist, cachePath("label3")) ||
        !nn::loadModuleFile(nets->temporalDist, cachePath("label4"))) {
        return ModelLoad::NoneUsable;
    }
    std::ifstream meta(cachePath("meta"));
    // The cache file name keys on the accelerator's *name* only; two
    // fabrics can share a name (e.g. the same grid at a different config
    // depth). The content fingerprint recorded at save time catches that:
    // a mismatch means the models were trained for a different fabric.
    uint64_t fp = 0;
    if (!(meta >> fp))
        return ModelLoad::NoneUsable;
    if (fp != ctx->fingerprint())
        return ModelLoad::ForeignFabric;
    std::vector<double> acc(4, 0.0);
    for (double &a : acc)
        if (!(meta >> a))
            return ModelLoad::NoneUsable;
    accuracies = std::move(acc);
    modelFp = hashModelFiles();
    ready = true;
    return ModelLoad::Loaded;
}

bool
LisaFramework::saveToCache() const
{
    if (cfg.cacheDir.empty())
        return false;
    // Never replace models recorded for another fabric of the same name
    // (e.g. the shipped cgra4x4 models, when a deeper-config cgra4x4
    // trains): the file names key on the name only, so saving would
    // silently swap the other fabric's models for these. A meta from
    // before fingerprints reads as 0 and is replaced.
    {
        std::ifstream existing(cachePath("meta"));
        uint64_t fp = 0;
        if (existing >> fp && fp != 0 && fp != ctx->fingerprint())
            return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(cfg.cacheDir, ec);
    if (ec) {
        warn("cannot create model cache dir '", cfg.cacheDir, "': ",
             ec.message());
        return false;
    }
    nn::saveModuleFile(nets->scheduleOrder, "label1", cachePath("label1"));
    nn::saveModuleFile(nets->association, "label2", cachePath("label2"));
    nn::saveModuleFile(nets->spatialDist, "label3", cachePath("label3"));
    nn::saveModuleFile(nets->temporalDist, "label4", cachePath("label4"));
    std::ofstream meta(cachePath("meta"));
    meta << ctx->fingerprint() << '\n';
    for (double a : accuracies)
        meta << a << '\n';
    return true;
}

void
LisaFramework::prepare()
{
    if (ready)
        return;
    // One provenance line: whether the label models were loaded or are
    // being retrained, and from/into which directory.
    const std::string dir = displayModelDir(cfg.cacheDir);
    const ModelLoad loaded = load();
    if (loaded == ModelLoad::Loaded) {
        inform("label models for ", arch->name(), ": loaded from ", dir);
        return;
    }

    inform("label models for ", arch->name(), ": ",
           loaded == ModelLoad::ForeignFabric
               ? "trained for a different fabric (fingerprint mismatch)"
               : "none usable",
           " in ", dir, "; generating training data and retraining");
    auto samples = generateTrainingSet(*ctx, cfg.trainingData, rng);
    if (samples.empty())
        fatal("no training samples survived the filter for ", arch->name());

    // Held-out split for the Table II accuracy numbers.
    rng.shuffle(samples);
    size_t test_count = static_cast<size_t>(
        static_cast<double>(samples.size()) * cfg.testFraction);
    test_count = std::min(test_count, samples.size() - 1);
    std::vector<gnn::LabeledSample> test(
        samples.end() - static_cast<long>(test_count), samples.end());
    samples.resize(samples.size() - test_count);

    inform("training label models on ", samples.size(), " graphs (",
           test.size(), " held out)");
    gnn::trainAll(*nets, samples, cfg.training);
    accuracies = gnn::evaluateAccuracy(*nets, test.empty() ? samples : test);

    if (saveToCache())
        modelFp = hashModelFiles();
    else if (loaded == ModelLoad::ForeignFabric)
        inform("label models for ", arch->name(), ": kept in memory only; ",
               dir, " keeps the other fabric's models");
    ready = true;
}

Labels
LisaFramework::predictLabels(const dfg::Dfg &dfg,
                             const dfg::Analysis &analysis) const
{
    if (!ready)
        panic("predictLabels: call prepare() first");

    gnn::GraphAttributes attrs = gnn::computeAttributes(dfg, analysis);
    Labels labels;

    nn::Tensor order = nets->scheduleOrder.forward(attrs);
    for (int v = 0; v < order.rows(); ++v)
        labels.scheduleOrder.push_back(order.at(v, 0));

    if (!analysis.sameLevelPairs().empty()) {
        nn::Tensor assoc = nets->association.forward(attrs);
        for (int i = 0; i < assoc.rows(); ++i)
            labels.association.push_back(std::max(0.0, assoc.at(i, 0)));
    }

    if (dfg.numEdges() > 0) {
        nn::Tensor spatial = nets->spatialDist.forward(attrs);
        nn::Tensor temporal = nets->temporalDist.forward(attrs);
        for (size_t e = 0; e < dfg.numEdges(); ++e) {
            labels.spatialDist.push_back(
                std::max(0.0, spatial.at(static_cast<int>(e), 0)));
            labels.temporalDist.push_back(
                std::max(1.0, temporal.at(static_cast<int>(e), 0)));
        }
    }
    return labels;
}

map::SearchResult
LisaFramework::compile(const dfg::Dfg &dfg,
                       const map::SearchOptions &options) const
{
    if (!ready)
        panic("compile: call prepare() first");
    dfg::Analysis analysis(dfg);
    LisaMapper mapper(predictLabels(dfg, analysis), cfg.mapper);
    return map::searchMinIi(mapper, dfg, *ctx, options);
}

map::PortfolioResult
LisaFramework::compilePortfolio(const dfg::Dfg &dfg,
                                const PortfolioConfig &config) const
{
    if (!ready)
        panic("compilePortfolio: call prepare() first");
    dfg::Analysis analysis(dfg);
    map::PortfolioSearch race(*ctx);
    // Registration order is the II tie-break: LISA first, so the
    // guided mapper's success cancels same-II baseline attempts.
    race.addMember("LISA",
                   std::make_unique<LisaMapper>(
                       predictLabels(dfg, analysis), cfg.mapper),
                   config.lisa);
    if (config.runSa)
        race.addMember("SA", std::make_unique<map::SaMapper>(),
                       config.sa);
    if (config.runIlp)
        race.addMember("ILP*", std::make_unique<map::ExactMapper>(),
                       config.ilp);
    return race.run(dfg);
}

} // namespace lisa::core
