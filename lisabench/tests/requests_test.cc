#include <gtest/gtest.h>

#include "dfg/canonical.hh"
#include "dfg/serialize.hh"
#include "requests.hh"
#include "workloads/polybench.hh"

namespace lisabench {
namespace {

const std::string kSpec = "accel cgra 4 4 1 left 4";

std::string
compileBytes(uint64_t seed, int n)
{
    CompileRequests reqs(seed);
    std::string out;
    for (int i = 0; i < n; ++i) {
        const CompileRequest r = reqs.next();
        out += r.kernel + ":" + std::to_string(r.mapperSeed) + "\n";
    }
    return out;
}

std::string
serveBytes(const std::vector<ServeRequest> &reqs)
{
    std::string out;
    for (const auto &r : reqs)
        out += r.line + "\n";
    return out;
}

TEST(Requests, SameSeedSameBytes)
{
    EXPECT_EQ(compileBytes(5, 40), compileBytes(5, 40));
    EXPECT_EQ(serveBytes(hitPool(5, kSpec)), serveBytes(hitPool(5, kSpec)));
    EXPECT_EQ(serveBytes(mixedStream(5, 1, 50, kSpec)),
              serveBytes(mixedStream(5, 1, 50, kSpec)));
    HitPicker a(5, 0, 80), b(5, 0, 80);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Requests, SeedAndConnectionChangeTheBytes)
{
    EXPECT_NE(compileBytes(5, 40), compileBytes(6, 40));
    EXPECT_NE(serveBytes(hitPool(5, kSpec)), serveBytes(hitPool(6, kSpec)));
    EXPECT_NE(serveBytes(mixedStream(5, 0, 50, kSpec)),
              serveBytes(mixedStream(5, 1, 50, kSpec)));
}

TEST(Requests, CompilePassesCoverThePopulation)
{
    CompileRequests reqs(3);
    const auto &names = lisa::workloads::polybenchKernelNames();
    const size_t population = names.size() * kMapperSeeds;
    std::map<std::pair<std::string, uint64_t>, int> seen;
    for (size_t i = 0; i < 2 * population; ++i) {
        const CompileRequest r = reqs.next();
        ++seen[{r.kernel, r.mapperSeed}];
        if (i + 1 == population) {
            EXPECT_EQ(seen.size(), population);
        }
    }
    ASSERT_EQ(seen.size(), population);
    for (const auto &[pair, count] : seen)
        EXPECT_EQ(count, 2) << pair.first << " seed " << pair.second;
}

TEST(Requests, PermutedVariantsKeepTheCacheKey)
{
    const auto pool = hitPool(9, kSpec);
    ASSERT_EQ(pool.size(), 20u * kHitVariants);
    for (size_t k = 0; k < pool.size(); k += kHitVariants) {
        auto base = lisa::dfg::fromText(pool[k].dfgText);
        ASSERT_TRUE(base);
        const uint64_t key = lisa::dfg::canonicalHash(*base);
        for (int v = 1; v < kHitVariants; ++v) {
            EXPECT_NE(pool[k + v].dfgText, pool[k].dfgText);
            auto variant = lisa::dfg::fromText(pool[k + v].dfgText);
            ASSERT_TRUE(variant) << pool[k + v].kernel;
            EXPECT_TRUE(variant->validate());
            EXPECT_EQ(lisa::dfg::canonicalHash(*variant), key)
                << pool[k].kernel;
        }
    }
}

TEST(Requests, MixedStreamHasFreshGraphs)
{
    const auto stream = mixedStream(2, 0, 400, kSpec);
    const auto block = static_cast<size_t>(1.0 / kFreshShare + 0.5);
    for (size_t b = 0; b < stream.size(); b += block) {
        size_t fresh = 0;
        for (size_t i = b; i < b + block; ++i)
            fresh += stream[i].kernel == "random" ? 1 : 0;
        EXPECT_EQ(fresh, 1u) << "block at " << b;
    }
}

} // namespace
} // namespace lisabench
