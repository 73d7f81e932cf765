#include <gtest/gtest.h>

#include "trace.hh"

namespace lisabench {
namespace {

Span
span(long id, long parent, double start, double end,
     const std::string &name = "x")
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startMs = start;
    s.endMs = end;
    s.name = name;
    return s;
}

TEST(SelfTime, LeafIsItsDuration)
{
    const auto self = selfTimesMs({span(1, 0, 2, 5)});
    EXPECT_DOUBLE_EQ(self.at(1), 3.0);
}

TEST(SelfTime, SubtractsChildCoverage)
{
    // Root 0..10; children 1..3 and 5..6 cover 3 ms.
    const auto self = selfTimesMs(
        {span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 5, 6)});
    EXPECT_DOUBLE_EQ(self.at(1), 7.0);
    EXPECT_DOUBLE_EQ(self.at(2), 2.0);
    EXPECT_DOUBLE_EQ(self.at(3), 1.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Concurrent children 2..6 and 4..8 cover 2..8 = 6 ms of 0..10.
    const auto self = selfTimesMs(
        {span(1, 0, 0, 10), span(2, 1, 2, 6), span(3, 1, 4, 8)});
    EXPECT_DOUBLE_EQ(self.at(1), 4.0);
}

TEST(SelfTime, ClipsChildrenToTheParent)
{
    // A child that outlives its parent covers only the shared part.
    const auto self =
        selfTimesMs({span(1, 0, 0, 4), span(2, 1, 3, 9)});
    EXPECT_DOUBLE_EQ(self.at(1), 3.0);
}

TEST(SelfTime, GroupsByName)
{
    const auto by_name = selfTimesByName(
        {span(1, 0, 0, 10, "req"), span(2, 1, 0, 4, "parse"),
         span(3, 0, 20, 25, "req")});
    ASSERT_EQ(by_name.at("req").size(), 2u);
    EXPECT_DOUBLE_EQ(by_name.at("req")[0], 6.0);
    EXPECT_DOUBLE_EQ(by_name.at("req")[1], 5.0);
    EXPECT_DOUBLE_EQ(by_name.at("parse")[0], 4.0);
}

TEST(Tracer, RecordsNestedScopes)
{
    Tracer tracer;
    long root_id = 0;
    {
        SpanScope root(tracer, "root", 7);
        root_id = root.id();
        SpanScope child(tracer, "child", 7, root.id());
    }
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "child");
    EXPECT_EQ(spans[0].parent, root_id);
    EXPECT_EQ(spans[1].name, "root");
    EXPECT_EQ(spans[1].request, 7);
    EXPECT_LE(spans[1].startMs, spans[0].startMs);
    EXPECT_GE(spans[1].endMs, spans[0].endMs);
}

} // namespace
} // namespace lisabench
