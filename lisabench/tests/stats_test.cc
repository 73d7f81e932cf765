#include <gtest/gtest.h>

#include <cmath>

#include "metrics.hh"
#include "stats.hh"

namespace lisabench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    const std::vector<double> v = {4, 1, 3, 2, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 4.6);
    EXPECT_DOUBLE_EQ(percentile({10, 20}, 25), 12.5);
}

TEST(Percentile, EdgeCases)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7.0);
    EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
}

TEST(InterquartileMean, DropsTheOuterQuarters)
{
    EXPECT_DOUBLE_EQ(interquartileMean({}), 0.0);
    EXPECT_DOUBLE_EQ(interquartileMean({5, 1, 3}), 3.0); // n < 4: mean
    // n = 8: drop 2 at each end, average 3, 4, 5, 6.
    EXPECT_DOUBLE_EQ(interquartileMean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5);
    // An outlier in the top quarter does not move it.
    EXPECT_DOUBLE_EQ(interquartileMean({1, 2, 3, 1000}), 2.5);
}

TEST(Geomean, FixedInputs)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({1, 1.5, 2, 1}), std::pow(3.0, 0.25), 1e-12);
}

TEST(MeanAndRatio, FixedInputs)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
}

TEST(RenderResult, PrintsExactlyTheSelectedList)
{
    RunReport r;
    r.attempted = 3;
    r.failed = 1;
    for (const MetricSpec &m : endToEndMetrics())
        r.set(m.name, 1.5);
    r.set("router.calls", 7); // other list: left out
    std::string line, error;
    ASSERT_TRUE(renderResult(r, false, line, error)) << error;
    EXPECT_NE(line.find("\"attempted\": 3"), std::string::npos);
    EXPECT_NE(line.find("\"iqm_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"),
              std::string::npos);
    EXPECT_EQ(line.find("router.calls"), std::string::npos);
    // The traced list is incomplete, so rendering it fails.
    EXPECT_FALSE(renderResult(r, true, line, error));
}

TEST(RenderResult, RejectsUnknownAndNonFiniteMetrics)
{
    RunReport r;
    for (const MetricSpec &m : endToEndMetrics())
        r.set(m.name, 1.0);
    std::string line, error;
    r.set("no_such_metric", 1.0);
    EXPECT_FALSE(renderResult(r, false, line, error));
    r.values.erase("no_such_metric");
    r.set("iqm_ms", std::nan(""));
    EXPECT_FALSE(renderResult(r, false, line, error));
}

} // namespace
} // namespace lisabench
