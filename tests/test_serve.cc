/**
 * @file
 * Serve-stack tests: cache store + LSRV persistence, MappingService
 * request flow (miss -> verified hit, permutation variants, the
 * production races' winners with and without label models, model
 * rejection and fallback, verify-on-hit eviction, restart warm-start and
 * model-change re-search), the coalescing guarantee (N identical
 * concurrent misses -> exactly one search), and the ServeServer protocol
 * dispatch (socket-free via handleLine plus one real socket round trip).
 *
 * Model dirs are either the shipped one (core::defaultModelDir(), only
 * ever read: MappingService loads and never trains) or empty temp dirs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/arch_context.hh"
#include "dfg/canonical.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/portfolio.hh"
#include "serve/cache.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/fnv.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::serve;

const char *kKernel = "dfg k\n"
                      "node 0 load\n"
                      "node 1 load\n"
                      "node 2 mul\n"
                      "node 3 add\n"
                      "node 4 store\n"
                      "edge 0 2\n"
                      "edge 1 2\n"
                      "edge 2 3\n"
                      "edge 3 4\n"
                      "edge 3 3 1\n";

/** The same kernel with every node id permuted and edges reordered. */
const char *kKernelPermuted = "dfg other\n"
                              "node 0 store\n"
                              "node 1 add\n"
                              "node 2 mul\n"
                              "node 3 load\n"
                              "node 4 load\n"
                              "edge 1 1 1\n"
                              "edge 1 0\n"
                              "edge 2 1\n"
                              "edge 3 2\n"
                              "edge 4 2\n";

const char *kAccel = "accel cgra 4 4 1 left 4";
/** The 4x4 baseline CGRA, the fabric the shipped label models are for. */
const char *kBaselineAccel = "accel cgra 4 4 4 all 24";

MapRequest
kernelRequest(const char *dfg_text = kKernel)
{
    MapRequest req;
    req.dfgText = dfg_text;
    req.accelSpec = kAccel;
    req.perIiBudget = 1.0;
    req.totalBudget = 2.0;
    req.seed = 1;
    return req;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

/** A fresh, empty model dir: a service pointed at it has no models. */
std::string
emptyModelDir()
{
    const std::string dir = tempPath("lisa_serve_no_models");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** kernelRequest on the baseline fabric. */
MapRequest
baselineRequest(const std::string &dfg_text)
{
    MapRequest req = kernelRequest(dfg_text.c_str());
    req.accelSpec = kBaselineAccel;
    return req;
}

/** doitgen plus a few fixed-seed random graphs. */
std::vector<std::string>
raceGraphs()
{
    std::vector<std::string> graphs = {
        dfg::toText(workloads::workloadByName("doitgen").dfg)};
    Rng rng(17);
    for (int nodes : {10, 14, 18}) {
        dfg::GeneratorConfig gen;
        gen.minNodes = gen.maxNodes = nodes;
        graphs.push_back(dfg::toText(dfg::generateRandomDfg(gen, rng)));
    }
    return graphs;
}

/** The stats entry of @p spec, or nullptr. */
const FabricStats *
fabricStats(const ServeStats &stats, const std::string &spec)
{
    for (const FabricStats &f : stats.fabrics)
        if (f.accel == spec)
            return &f;
    return nullptr;
}

CacheEntry
sampleEntry(uint64_t dfg_hash)
{
    CacheEntry e;
    e.key = CacheKey{dfg_hash, 0xabcdefULL, "fast"};
    e.ii = 2;
    e.mii = 1;
    e.attempts = 42;
    e.searchSeconds = 0.5;
    e.winner = "SA";
    e.modelFingerprint = 0x1234abcdULL;
    e.mappingText = "placeholder mapping bytes\n";
    return e;
}

TEST(MappingCache, InsertLookupErase)
{
    MappingCache cache;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(CacheKey{1, 2, "fast"}), nullptr);

    auto entry = std::make_shared<CacheEntry>(sampleEntry(1));
    cache.insert(entry);
    EXPECT_EQ(cache.size(), 1u);
    auto found = cache.lookup(entry->key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->winner, "SA");
    EXPECT_EQ(found->attempts, 42);

    // Distinct budget class, distinct entry.
    EXPECT_EQ(cache.lookup(CacheKey{1, 0xabcdefULL, "full"}), nullptr);

    EXPECT_TRUE(cache.erase(entry->key));
    EXPECT_FALSE(cache.erase(entry->key));
    EXPECT_EQ(cache.size(), 0u);
    // The handle returned before the erase stays valid.
    EXPECT_EQ(found->ii, 2);
}

TEST(MappingCache, SaveLoadRoundTrip)
{
    const std::string path = tempPath("lsrv_roundtrip.lsrv");
    std::remove(path.c_str());

    MappingCache cache;
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(11)));
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(22)));
    ASSERT_TRUE(cache.save(path));

    MappingCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    auto entry = loaded.lookup(CacheKey{22, 0xabcdefULL, "fast"});
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ii, 2);
    EXPECT_EQ(entry->mii, 1);
    EXPECT_EQ(entry->attempts, 42);
    EXPECT_DOUBLE_EQ(entry->searchSeconds, 0.5);
    EXPECT_EQ(entry->winner, "SA");
    EXPECT_EQ(entry->modelFingerprint, 0x1234abcdULL);
    EXPECT_EQ(entry->mappingText, "placeholder mapping bytes\n");
    std::remove(path.c_str());
}

TEST(MappingCache, LoadRejectsVersionOneFiles)
{
    // An LSRV v1 file: the v2 layout without the model fingerprint, under
    // version 1, with a valid checksum. It must load as a cold cache.
    const std::string path = tempPath("lsrv_v1.lsrv");
    MappingCache cache;
    const CacheEntry e = sampleEntry(7);
    cache.insert(std::make_shared<CacheEntry>(e));
    ASSERT_TRUE(cache.save(path));
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    // magic, version, count, dfgHash, archFingerprint, budgetKey, ii,
    // mii, attempts, searchSeconds, winner: then the model fingerprint.
    const size_t model_at = 4 + 4 + 8 + 8 + 8 + (8 + e.key.budgetKey.size()) +
                            4 + 4 + 8 + 8 + (8 + e.winner.size());
    std::string v1 = bytes.substr(0, bytes.size() - 8);
    v1.erase(model_at, 8);
    v1[4] = 1;
    const uint64_t sum = support::fnv1a(v1);
    for (int i = 0; i < 8; ++i)
        v1 += static_cast<char>((sum >> (8 * i)) & 0xff);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    }
    MappingCache old;
    EXPECT_FALSE(old.load(path));
    EXPECT_EQ(old.size(), 0u);

    ServeConfig cfg;
    cfg.cacheFile = path;
    cfg.modelDir.clear();
    MappingService service(cfg);
    EXPECT_EQ(service.cache().size(), 0u);
    std::remove(path.c_str());
}

TEST(MappingCache, LoadRejectsCorruptTruncatedAndWrongVersion)
{
    const std::string path = tempPath("lsrv_corrupt.lsrv");
    std::remove(path.c_str());
    MappingCache cache;
    cache.insert(std::make_shared<CacheEntry>(sampleEntry(5)));
    ASSERT_TRUE(cache.save(path));

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 16u);

    auto write_file = [&](const std::string &content) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
    };

    // Flipped payload byte -> checksum mismatch, cache unchanged.
    std::string corrupt = bytes;
    corrupt[bytes.size() / 2] =
        static_cast<char>(corrupt[bytes.size() / 2] ^ 0x5a);
    write_file(corrupt);
    MappingCache c1;
    EXPECT_FALSE(c1.load(path));
    EXPECT_EQ(c1.size(), 0u);

    // Truncated file.
    write_file(bytes.substr(0, bytes.size() - 3));
    MappingCache c2;
    EXPECT_FALSE(c2.load(path));
    EXPECT_EQ(c2.size(), 0u);

    // Wrong magic.
    std::string magic = bytes;
    magic[0] = 'X';
    write_file(magic);
    MappingCache c3;
    EXPECT_FALSE(c3.load(path));

    // Missing file.
    std::remove(path.c_str());
    MappingCache c4;
    EXPECT_FALSE(c4.load(path));
}

TEST(MappingService, MissThenVerifiedHitAndPermutationVariant)
{
    ServeConfig cfg;
    cfg.cacheFile.clear(); // in-memory only
    MappingService service(cfg);

    const MapOutcome miss = service.map(kernelRequest());
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_FALSE(miss.cacheHit);
    EXPECT_TRUE(miss.verified);
    EXPECT_GT(miss.ii, 0);
    EXPECT_GT(miss.attempts, 0);
    EXPECT_EQ(miss.budgetClass, "fast");
    EXPECT_FALSE(miss.mappingText.empty());

    const MapOutcome hit = service.map(kernelRequest());
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_TRUE(hit.verified);
    EXPECT_EQ(hit.ii, miss.ii);

    // The same graph under a different node numbering is the same cache
    // line; the served mapping is expressed in the *request's* ids.
    const MapOutcome variant = service.map(kernelRequest(kKernelPermuted));
    ASSERT_TRUE(variant.ok) << variant.error;
    EXPECT_TRUE(variant.cacheHit);
    EXPECT_TRUE(variant.verified);
    EXPECT_EQ(variant.ii, miss.ii);
    auto loaded = verify::mappingFromText(variant.mappingText);
    ASSERT_TRUE(loaded.has_value());
    // Node 0 of the permuted request is the store; the mapping artifact
    // must be in request numbering, so its DFG matches the request text.
    auto request_dfg = dfg::fromText(kKernelPermuted);
    ASSERT_TRUE(request_dfg.has_value());
    EXPECT_EQ(loaded->dfg->node(0).op, request_dfg->node(0).op);

    // A different budget class is a different cache line.
    MapRequest full = kernelRequest();
    full.totalBudget = 30.0;
    const MapOutcome other_class = service.map(full);
    ASSERT_TRUE(other_class.ok) << other_class.error;
    EXPECT_FALSE(other_class.cacheHit);
    EXPECT_EQ(other_class.budgetClass, "full");

    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests, 4);
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.searches, 2);
    EXPECT_EQ(stats.verifyFailures, 0);
}

TEST(MappingService, RejectsMalformedRequests)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    MapRequest bad_dfg = kernelRequest("not a dfg\n");
    const MapOutcome o1 = service.map(bad_dfg);
    EXPECT_FALSE(o1.ok);
    EXPECT_NE(o1.error.find("dfg"), std::string::npos);

    // Unknown mnemonics and negative distances are rejected requests,
    // never a daemon exit.
    const MapOutcome bad_op =
        service.map(kernelRequest("dfg t\nnode 0 bogus a\n"));
    EXPECT_FALSE(bad_op.ok);
    EXPECT_NE(bad_op.error.find("unknown op mnemonic"), std::string::npos);
    const MapOutcome bad_dist = service.map(
        kernelRequest("dfg t\nnode 0 add\nnode 1 add\nedge 0 1 -1\n"));
    EXPECT_FALSE(bad_dist.ok);
    EXPECT_NE(bad_dist.error.find("negative iteration distance"),
              std::string::npos);

    MapRequest bad_accel = kernelRequest();
    bad_accel.accelSpec = "accel warp 9";
    const MapOutcome o2 = service.map(bad_accel);
    EXPECT_FALSE(o2.ok);
    EXPECT_NE(o2.error.find("accel"), std::string::npos);

    // Hostile fabric sizes are malformed specs: rejected at parse time,
    // before any fabric is built (2.5e9 PEs, a 100000-II sweep, ...).
    for (const char *spec :
         {"accel cgra 50000 50000 4 all 24", "accel cgra 4 4 4 all 100000",
          "accel cgra 4 4 100000 all 24", "accel systolic 50000 50000"}) {
        MapRequest huge = kernelRequest();
        huge.accelSpec = spec;
        const MapOutcome o = service.map(huge);
        EXPECT_FALSE(o.ok) << spec;
        EXPECT_NE(o.error.find("malformed"), std::string::npos) << o.error;
    }
    EXPECT_TRUE(service.stats().fabrics.empty());
}

TEST(MappingService, ProductionRaceWinnerIsSaOrIlpStar)
{
    // Without label models the built-in backend races exactly SA and
    // ILP*, so every successful miss must be attributed to one of them:
    // doitgen plus a few fixed-seed random graphs in the fast budget
    // class, on the baseline fabric with an empty model dir.
    ServeConfig cfg;
    cfg.cacheFile.clear();
    cfg.modelDir = emptyModelDir();
    MappingService service(cfg);

    int mapped = 0;
    for (const std::string &text : raceGraphs()) {
        const MapOutcome out = service.map(baselineRequest(text));
        if (!out.ok)
            continue;
        ++mapped;
        EXPECT_FALSE(out.cacheHit);
        EXPECT_TRUE(out.winner == "SA" || out.winner == "ILP*")
            << out.winner;
    }
    EXPECT_GT(mapped, 0);
    const ServeStats stats = service.stats();
    const FabricStats *fabric = fabricStats(stats, kBaselineAccel);
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(fabric->race, (std::vector<std::string>{"SA", "ILP*"}));
    EXPECT_EQ(fabric->modelFingerprint, 0u);
}

TEST(MappingService, ShippedModelsRaceLisaAndIlpStar)
{
    // The repository ships cgra4x4 label models: the baseline fabric
    // loads them and races LISA in SA's slot.
    ServeConfig cfg;
    cfg.cacheFile.clear();
    cfg.modelDir = core::defaultModelDir();
    MappingService service(cfg);

    int mapped = 0;
    for (const std::string &text : raceGraphs()) {
        const MapOutcome out = service.map(baselineRequest(text));
        if (!out.ok)
            continue;
        ++mapped;
        EXPECT_TRUE(out.verified);
        EXPECT_TRUE(out.winner == "LISA" || out.winner == "ILP*")
            << out.winner;
    }
    EXPECT_GT(mapped, 0);

    const ServeStats stats = service.stats();
    const FabricStats *fabric = fabricStats(stats, kBaselineAccel);
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(fabric->race, (std::vector<std::string>{"LISA", "ILP*"}));
    EXPECT_NE(fabric->modelFingerprint, 0u);
    EXPECT_NE(stats.toJson().find("\"race\":[\"LISA\",\"ILP*\"]"),
              std::string::npos)
        << stats.toJson();
}

TEST(MappingService, ForeignFabricModelsAreRejectedAndLogged)
{
    // "accel cgra 4 4 4 all 16" shares the name cgra4x4 with the shipped
    // models but not their fabric fingerprint: the daemon must reject
    // them, say so, and race SA + ILP*.
    const char *foreign = "accel cgra 4 4 4 all 16";
    ServeConfig cfg;
    cfg.cacheFile.clear();
    cfg.modelDir = core::defaultModelDir();
    MappingService service(cfg);

    const bool was_verbose = verbose();
    setVerbose(true);
    testing::internal::CaptureStderr();
    MapRequest req = kernelRequest();
    req.accelSpec = foreign;
    const MapOutcome out = service.map(req);
    const std::string log = testing::internal::GetCapturedStderr();
    setVerbose(was_verbose);

    EXPECT_NE(log.find("rejected: trained for another fabric; racing SA + "
                       "ILP*"),
              std::string::npos)
        << log;
    EXPECT_NE(log.find(std::filesystem::absolute(cfg.modelDir).string()),
              std::string::npos)
        << log;
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.winner == "SA" || out.winner == "ILP*") << out.winner;
    const ServeStats stats = service.stats();
    const FabricStats *fabric = fabricStats(stats, foreign);
    ASSERT_NE(fabric, nullptr);
    EXPECT_EQ(fabric->race, (std::vector<std::string>{"SA", "ILP*"}));
    EXPECT_EQ(fabric->modelFingerprint, 0u);
}

TEST(MappingService, ModelChangeAcrossRestartReSearches)
{
    // An entry searched with label models must not be served by a
    // restart without them: same key, other model fingerprint, so a miss
    // whose fresh search replaces the entry.
    const std::string path = tempPath("serve_model_change.lsrv");
    std::remove(path.c_str());
    const MapRequest req =
        baselineRequest(dfg::toText(workloads::workloadByName("gemm").dfg));
    uint64_t model_fp = 0;
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        cfg.modelDir = core::defaultModelDir();
        MappingService service(cfg);
        const MapOutcome out = service.map(req);
        ASSERT_TRUE(out.ok) << out.error;
        const ServeStats stats = service.stats();
        const FabricStats *fabric = fabricStats(stats, kBaselineAccel);
        ASSERT_NE(fabric, nullptr);
        model_fp = fabric->modelFingerprint;
        ASSERT_NE(model_fp, 0u);
    }
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        cfg.modelDir = emptyModelDir();
        MappingService service(cfg);
        ASSERT_EQ(service.cache().size(), 1u);
        const MapOutcome out = service.map(req);
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.cacheHit);
        EXPECT_TRUE(out.winner == "SA" || out.winner == "ILP*")
            << out.winner;
        const ServeStats stats = service.stats();
        EXPECT_EQ(stats.searches, 1);
        EXPECT_EQ(stats.verifyFailures, 0);
        // The replacement is a hit for this (model-less) service.
        EXPECT_TRUE(service.map(req).cacheHit);
    }
    {
        // And the models' return is a model change too.
        ServeConfig cfg;
        cfg.cacheFile = path;
        cfg.modelDir = core::defaultModelDir();
        MappingService service(cfg);
        const MapOutcome out = service.map(req);
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.cacheHit);
        EXPECT_EQ(service.stats().searches, 1);
    }
    std::remove(path.c_str());
}

TEST(MappingService, VerifyOnHitEvictsCorruptEntriesAndResearches)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    // Plant a corrupt entry under exactly the key the request computes.
    auto request_dfg = dfg::fromText(kKernel);
    ASSERT_TRUE(request_dfg.has_value());
    auto accel = verify::accelFromSpec(kAccel);
    ASSERT_NE(accel, nullptr);
    arch::ArchContext context(*accel);
    map::SearchOptions options;
    options.perIiBudget = 1.0;
    options.totalBudget = 2.0;
    auto bogus = std::make_shared<CacheEntry>();
    bogus->key = CacheKey{dfg::canonicalHash(*request_dfg),
                          context.fingerprint(),
                          map::budgetClassKey(options)};
    bogus->ii = 1;
    bogus->winner = "SA";
    bogus->mappingText = "these are not the bytes you are looking for";
    service.cache().insert(bogus);

    // The corrupt bytes must never be served: the replay fails, the
    // entry is evicted, and the request falls through to a real search.
    const MapOutcome out = service.map(kernelRequest());
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_FALSE(out.cacheHit);
    EXPECT_TRUE(out.verified);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.verifyFailures, 1);
    EXPECT_EQ(stats.searches, 1);

    // The re-searched entry replaced the corrupt one.
    const MapOutcome again = service.map(kernelRequest());
    EXPECT_TRUE(again.cacheHit);
    EXPECT_TRUE(again.verified);
}

TEST(MappingService, CachePersistsAcrossRestart)
{
    const std::string path = tempPath("serve_restart.lsrv");
    std::remove(path.c_str());

    int first_ii = 0;
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        const MapOutcome out = service.map(kernelRequest());
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_FALSE(out.cacheHit);
        first_ii = out.ii;
        // map() persists eagerly; the dtor save is belt and braces.
    }
    {
        ServeConfig cfg;
        cfg.cacheFile = path;
        MappingService service(cfg);
        const MapOutcome out = service.map(kernelRequest());
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_TRUE(out.cacheHit) << "restart lost the cache";
        EXPECT_TRUE(out.verified);
        EXPECT_EQ(out.ii, first_ii);
        EXPECT_EQ(service.stats().searches, 0);
    }
    std::remove(path.c_str());
}

TEST(MappingService, CoalescesConcurrentIdenticalMisses)
{
    constexpr int kThreads = 4;
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);

    // Gated backend: the one leader's search refuses to finish until all
    // other requesters have registered as coalesced, so no follower can
    // sneak in late and find a warm cache. Invocations are counted to
    // prove "N identical concurrent misses -> exactly one search".
    std::atomic<int> invocations{0};
    service.setSearchFn([&](const dfg::Dfg &dfg, arch::ArchContext &context,
                            const map::SearchOptions &options) {
        invocations.fetch_add(1);
        while (service.stats().coalesced < kThreads - 1)
            std::this_thread::yield();
        map::PortfolioSearch race(context);
        race.addMember("SA", std::make_unique<map::SaMapper>(), options);
        return race.run(dfg);
    });

    std::vector<MapOutcome> outcomes(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                outcomes[static_cast<size_t>(t)] =
                    service.map(kernelRequest());
            });
        for (auto &t : threads)
            t.join();
    }

    EXPECT_EQ(invocations.load(), 1);
    int coalesced = 0;
    for (const MapOutcome &out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_TRUE(out.verified);
        EXPECT_FALSE(out.cacheHit);
        EXPECT_EQ(out.ii, outcomes[0].ii);
        coalesced += out.coalesced ? 1 : 0;
    }
    EXPECT_EQ(coalesced, kThreads - 1);
    const ServeStats stats = service.stats();
    EXPECT_EQ(stats.searches, 1);
    EXPECT_EQ(stats.misses, kThreads);
    EXPECT_EQ(stats.coalesced, kThreads - 1);
}

TEST(ServeProto, DecodeValidatesMapRequests)
{
    MapRequest req;
    std::string error;
    EXPECT_TRUE(decodeMapRequest(
        "{\"op\":\"map\",\"dfg\":\"dfg k\\nnode 0 load\\n\","
        "\"accel\":\"accel cgra 4 4 1 left 4\","
        "\"perIiBudget\":1.5,\"totalBudget\":9,\"seed\":3}",
        req, &error))
        << error;
    EXPECT_EQ(req.accelSpec, kAccel);
    EXPECT_DOUBLE_EQ(req.perIiBudget, 1.5);
    EXPECT_DOUBLE_EQ(req.totalBudget, 9.0);
    EXPECT_EQ(req.seed, 3u);

    EXPECT_FALSE(decodeMapRequest("{\"op\":\"map\"}", req, &error));
    EXPECT_FALSE(decodeMapRequest(
        "{\"op\":\"map\",\"dfg\":\"x\",\"accel\":\"y\","
        "\"totalBudget\":-1}",
        req, &error));
    EXPECT_FALSE(decodeMapRequest("{\"op\":\"ping\"}", req, &error));
}

TEST(ServeServer, HandleLineDispatch)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    ServeServer server(service, tempPath("serve_dispatch.sock"));

    EXPECT_EQ(server.handleLine("{\"op\":\"ping\"}"),
              "{\"ok\":true,\"op\":\"ping\"}");
    EXPECT_NE(server.handleLine("{\"op\":\"stats\"}").find("\"requests\":0"),
              std::string::npos);
    EXPECT_NE(server.handleLine("not json").find("\"ok\":false"),
              std::string::npos);
    EXPECT_NE(server.handleLine("{\"op\":\"warp\"}").find("unknown op"),
              std::string::npos);

    // A full map round trip through the protocol layer.
    std::string line = "{\"op\":\"map\",\"dfg\":\"";
    line += jsonEscape(kKernel);
    line += "\",\"accel\":\"";
    line += kAccel;
    line += "\",\"perIiBudget\":1,\"totalBudget\":2,\"seed\":1}";
    auto response = jsonParse(server.handleLine(line));
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->flag("ok"));
    EXPECT_FALSE(response->flag("cacheHit"));
    EXPECT_TRUE(response->flag("verified"));
    response = jsonParse(server.handleLine(line));
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->flag("cacheHit"));

    EXPECT_FALSE(server.shutdownRequested());
    EXPECT_NE(server.handleLine("{\"op\":\"shutdown\"}").find("\"ok\":true"),
              std::string::npos);
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_TRUE(server.waitForShutdown(0.0));
}

TEST(ServeServer, SocketRoundTrip)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const std::string path = tempPath("serve_socket.sock");
    ServeServer server(service, path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    const char *ping = "{\"op\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, ping, std::strlen(ping), MSG_NOSIGNAL),
              static_cast<ssize_t>(std::strlen(ping)));
    std::string got;
    char buf[256];
    while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        ASSERT_GT(n, 0);
        got.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(got, "{\"ok\":true,\"op\":\"ping\"}\n");
    ::close(fd);
    server.stop();
    EXPECT_TRUE(server.waitForShutdown(0.0));
}

size_t
openFdCount()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** Connect to @p path and complete one ping round trip, so the server
 *  has provably accepted and served the connection. @return the fd. */
int
pingConnection(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    const char *ping = "{\"op\":\"ping\"}\n";
    if (::send(fd, ping, std::strlen(ping), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(std::strlen(ping))) {
        ::close(fd);
        return -1;
    }
    std::string got;
    char buf[256];
    while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            ::close(fd);
            return -1;
        }
        got.append(buf, static_cast<size_t>(n));
    }
    return fd;
}

// Regression: the daemon must release a connection's fd (and reap its
// handler thread) when the client disconnects, not hoard both until
// stop() — a long-lived process would otherwise hit EMFILE and stop
// accepting.
TEST(ServeServer, ReleasesConnectionFdsOnClientDisconnect)
{
    ServeConfig cfg;
    cfg.cacheFile.clear();
    MappingService service(cfg);
    const std::string path = tempPath("serve_fd_release.sock");
    ServeServer server(service, path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const size_t baseline = openFdCount();
    for (int i = 0; i < 32; ++i) {
        const int fd = pingConnection(path);
        ASSERT_GE(fd, 0) << "cycle " << i;
        ::close(fd);
    }

    // The handler closes its side asynchronously after the client hangs
    // up; poll with a deadline rather than sleeping a fixed amount.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (openFdCount() > baseline &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_LE(openFdCount(), baseline);

    server.stop();
}

} // namespace
