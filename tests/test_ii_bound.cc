/**
 * @file
 * Tests for the route-slot lower bound (mapping/ii_bound.hh): the IIs it
 * proves on the PolyBench kernels and its documented blind spot, exact
 * agreement with a brute-force enumeration of the relaxation, the
 * soundness of the relaxation against verified mappings and against the
 * mappers themselves, the node cap, and determinism.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/analysis.hh"
#include "dfg/builder.hh"
#include "dfg/generator.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_bound.hh"
#include "mapping/ii_search.hh"
#include "support/json.hh"
#include "verify/verify.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::map;
using dfg::OpCode;

constexpr uint64_t kNoCap = ~uint64_t{0};

/** Directed hop distance on @p accel's link graph (BFS). */
int
hops(const arch::Accelerator &accel, int from, int to)
{
    std::vector<int> dist(static_cast<size_t>(accel.numPes()), -1);
    std::vector<int> queue{from};
    dist[static_cast<size_t>(from)] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
        const int pe = queue[head];
        for (int next : accel.linkTargets(pe)) {
            if (dist[static_cast<size_t>(next)] < 0) {
                dist[static_cast<size_t>(next)] =
                    dist[static_cast<size_t>(pe)] + 1;
                queue.push_back(next);
            }
        }
    }
    return dist[static_cast<size_t>(to)] < 0 ? 1 << 20
                                             : dist[static_cast<size_t>(to)];
}

/** Route slots the relaxation charges placement @p pe_of:
 *  sum over producers of the max over sinks of max(0, dist - 1). */
int
relaxedRouteSlots(const dfg::Dfg &g, const arch::Accelerator &accel,
                  const std::vector<int> &pe_of)
{
    int total = 0;
    for (const dfg::Node &u : g.nodes()) {
        int worst = 0;
        for (dfg::EdgeId e : g.outEdges(u.id)) {
            const dfg::NodeId v = g.edge(e).dst;
            worst = std::max(
                worst, hops(accel, pe_of[static_cast<size_t>(u.id)],
                            pe_of[static_cast<size_t>(v)]) -
                           1);
        }
        total += worst;
    }
    return total;
}

/** Brute force: does any capable placement with at most @p ii ops per PE
 *  fit numNodes + route slots into numPes * ii? */
bool
relaxedPlacementExists(const dfg::Dfg &g, const arch::Accelerator &accel,
                       int ii)
{
    const int n = static_cast<int>(g.numNodes());
    const int slots = accel.numPes() * ii - n;
    std::vector<int> pe_of(static_cast<size_t>(n), -1);
    std::vector<int> load(static_cast<size_t>(accel.numPes()), 0);
    auto rec = [&](auto &self, int v) -> bool {
        if (v == n)
            return relaxedRouteSlots(g, accel, pe_of) <= slots;
        for (int pe : accel.opCapablePes(g.node(v).op)) {
            if (load[static_cast<size_t>(pe)] == ii)
                continue;
            ++load[static_cast<size_t>(pe)];
            pe_of[static_cast<size_t>(v)] = pe;
            const bool found = self(self, v + 1);
            --load[static_cast<size_t>(pe)];
            if (found)
                return true;
        }
        return false;
    };
    return slots >= 0 && rec(rec, 0);
}

/** 16 nodes with a triangle (l1 -> a, l1 -> b, a -> b) and no
 *  recurrence: MII 1 on a 4x4 mesh, which leaves zero free FU slots. */
dfg::Dfg
oddCycleDfg()
{
    dfg::DfgBuilder b("odd_cycle");
    auto l0 = b.load("l0");
    auto l1 = b.load("l1");
    auto a = b.op(OpCode::Add, {l0, l1});
    auto tail = b.op(OpCode::Mul, {a, l1});
    for (int i = 0; i < 11; ++i)
        tail = b.op(OpCode::Add, {tail});
    b.store(tail, "out");
    return b.build();
}

TEST(IiBound, OddCycleWithNoFreeSlotIsInfeasible)
{
    // Zero free slots means every edge must join linked PEs. The mesh is
    // bipartite, so no odd cycle of distinct PEs exists.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = oddCycleDfg();
    ASSERT_EQ(g.numNodes(), 16u);
    ASSERT_EQ(minimumIi(g, dfg::Analysis(g), c), 1);
    EXPECT_EQ(boundIi(g, c, 1).verdict, IiVerdict::Infeasible);
    EXPECT_EQ(boundIi(g, c, 2).verdict, IiVerdict::Unknown);
}

TEST(IiBound, PolybenchIiOneProofsAndTheGemverLimit)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    for (const char *name : {"atax", "mvt", "trmm"}) {
        auto w = workloads::workloadByName(name);
        const IiBound b = boundIi(w.dfg, c, 1);
        EXPECT_EQ(b.verdict, IiVerdict::Infeasible) << name;
        EXPECT_GT(b.nodes, 0u) << name;
        EXPECT_LT(b.nodes, kIiBoundNodeCap) << name;
    }
    // gemver at II 2 has a relaxed placement: it fails for reasons the
    // bound does not model (time and register capacity).
    auto gemver = workloads::workloadByName("gemver");
    const IiBound b = boundIi(gemver.dfg, c, 2);
    EXPECT_EQ(b.verdict, IiVerdict::Unknown);
    EXPECT_LT(b.nodes, kIiBoundNodeCap);
}

TEST(IiBound, NoBaselineFig9aIiIsRuledOut)
{
    std::ifstream in(std::string(LISA_SOURCE_DIR) +
                     "/bench/baselines/BENCH_fig9a.json");
    ASSERT_TRUE(in.good());
    arch::CgraArch c(arch::baselineCgra(4, 4));
    int checked = 0;
    for (std::string line; std::getline(in, line);) {
        auto obj = jsonParse(line);
        ASSERT_TRUE(obj);
        if (obj->str("event") != "kernel" || !obj->flag("success"))
            continue;
        ASSERT_EQ(obj->str("accel"), c.name());
        const std::string kernel = obj->str("kernel");
        const int ii = static_cast<int>(obj->num("ii"));
        auto w = workloads::workloadByName(kernel);
        EXPECT_EQ(boundIi(w.dfg, c, ii).verdict, IiVerdict::Unknown)
            << kernel << " " << obj->str("mapper") << " at II " << ii;
        ++checked;
    }
    EXPECT_GE(checked, 30);
}

TEST(IiBound, AgreesWithBruteForceOnSmallFabrics)
{
    // Small enough to enumerate every placement: the branch-and-bound
    // (domains, lower bounds, capacity check, symmetry) must return
    // Infeasible exactly when no relaxed placement exists.
    arch::CgraConfig narrow_mem = arch::baselineCgra(2, 3);
    narrow_mem.memPolicy = arch::MemPolicy::LeftColumn;
    const std::vector<std::pair<arch::CgraConfig, int>> cases = {
        {arch::baselineCgra(2, 3), 1},
        {arch::baselineCgra(2, 2), 2},
        {narrow_mem, 1},
        {narrow_mem, 2},
    };
    dfg::GeneratorConfig gen;
    gen.minNodes = 3;
    gen.maxNodes = 6;
    Rng rng(11);
    int infeasible = 0, feasible = 0;
    for (const auto &[config, ii] : cases) {
        arch::CgraArch c(config);
        for (int i = 0; i < 40; ++i) {
            dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
            if (g.numNodes() > static_cast<size_t>(c.numPes() * ii) ||
                g.numNodes() > 8)
                continue;
            const bool exists = relaxedPlacementExists(g, c, ii);
            const IiBound b = boundIi(g, c, ii, kNoCap);
            EXPECT_EQ(b.verdict == IiVerdict::Infeasible, !exists)
                << c.name() << " II " << ii << " graph " << i;
            ++(exists ? feasible : infeasible);
        }
    }
    EXPECT_GT(infeasible, 5);
    EXPECT_GT(feasible, 5);
}

/** Random DFGs (10-24 nodes before stores) on the three 4x4 fabrics. */
struct RandomCase
{
    arch::CgraConfig config;
    dfg::Dfg dfg;
};

std::vector<RandomCase>
randomCases(int per_fabric)
{
    std::vector<RandomCase> cases;
    Rng rng(2024);
    for (const arch::CgraConfig &config :
         {arch::baselineCgra(4, 4), arch::lessRoutingCgra(),
          arch::lessMemoryCgra()}) {
        for (int i = 0; i < per_fabric; ++i)
            cases.push_back({config, dfg::generateRandomDfg({}, rng)});
    }
    return cases;
}

TEST(IiBound, VerifiedMappingsSatisfyTheRelaxation)
{
    // The inequality itself, checked on real verified mappings: the route
    // slots the relaxation charges never exceed the distinct route-through
    // FU slots the mapping occupies, and ops plus those fit the fabric.
    // Two IIs above the MII keep the annealer quick in every build type;
    // the per-value charge does not depend on the II.
    int mapped = 0;
    for (const RandomCase &rc : randomCases(4)) {
        arch::CgraArch c(rc.config);
        const dfg::Analysis an(rc.dfg);
        const int ii = minimumIi(rc.dfg, an, c) + 2;
        auto mrrg = std::make_shared<const arch::Mrrg>(c, ii);
        SaMapper sa;
        MapContext ctx{rc.dfg, an, mrrg, 5.0, Rng(3)};
        auto m = sa.tryMap(ctx);
        if (!m)
            continue;
        ++mapped;
        ASSERT_TRUE(verify::verifyMapping(rc.dfg, *mrrg, *m).ok());
        std::vector<int> pe_of;
        for (const dfg::Node &node : rc.dfg.nodes())
            pe_of.push_back(m->placement(node.id).pe);
        std::set<int> route_fus;
        for (const dfg::Edge &e : rc.dfg.edges())
            for (int res : m->route(e.id))
                if (mrrg->kindOf(res) == arch::ResourceKind::Fu)
                    route_fus.insert(res);
        const int charged = relaxedRouteSlots(rc.dfg, c, pe_of);
        EXPECT_LE(charged, static_cast<int>(route_fus.size()));
        EXPECT_LE(static_cast<int>(rc.dfg.numNodes()) + charged,
                  c.numPes() * ii);
        EXPECT_NE(boundIi(rc.dfg, c, ii).verdict, IiVerdict::Infeasible);
    }
    EXPECT_GE(mapped, 10);
}

TEST(IiBound, MappersNeverMapAProvenIi)
{
    // Wherever the bound proves an II unmappable, neither the exact mapper
    // nor annealing finds a verified mapping there, given generous time.
    int proven = 0;
    for (const RandomCase &rc : randomCases(12)) {
        arch::CgraArch c(rc.config);
        const dfg::Analysis an(rc.dfg);
        const int mii = minimumIi(rc.dfg, an, c);
        if (boundIi(rc.dfg, c, mii).verdict != IiVerdict::Infeasible)
            continue;
        if (++proven > 4)
            continue;
        auto mrrg = std::make_shared<const arch::Mrrg>(c, mii);
        ExactMapper exact;
        SaMapper sa;
        for (Mapper *mapper : {static_cast<Mapper *>(&exact),
                               static_cast<Mapper *>(&sa)}) {
            MapContext ctx{rc.dfg, an, mrrg, 1.0, Rng(7)};
            auto m = mapper->tryMap(ctx);
            EXPECT_FALSE(m && verify::verifyMapping(rc.dfg, *mrrg, *m).ok())
                << mapper->name() << " mapped a proven II " << mii << " on "
                << c.name();
        }
    }
    EXPECT_GE(proven, 4);
}

TEST(IiBound, NodeCapGivesUnknownNeverInfeasible)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mvt = workloads::workloadByName("mvt");
    const IiBound full = boundIi(mvt.dfg, c, 1);
    ASSERT_EQ(full.verdict, IiVerdict::Infeasible);
    ASSERT_GT(full.nodes, 10u);
    const IiBound capped = boundIi(mvt.dfg, c, 1, full.nodes - 1);
    EXPECT_EQ(capped.verdict, IiVerdict::Unknown);
    EXPECT_EQ(capped.nodes, full.nodes - 1);
    const IiBound exact_cap = boundIi(mvt.dfg, c, 1, full.nodes);
    EXPECT_EQ(exact_cap.verdict, IiVerdict::Infeasible);

    // On random graphs: a capped search either agrees with the uncapped
    // one within the cap, or it stops at the cap with Unknown.
    for (const RandomCase &rc : randomCases(10)) {
        arch::CgraArch fabric(rc.config);
        const int mii = minimumIi(rc.dfg, dfg::Analysis(rc.dfg), fabric);
        const IiBound small = boundIi(rc.dfg, fabric, mii, 50);
        if (small.verdict == IiVerdict::Infeasible)
            EXPECT_LE(small.nodes, 50u);
        else if (small.nodes == 50u)
            continue;
        EXPECT_EQ(small.verdict, boundIi(rc.dfg, fabric, mii).verdict);
    }
}

TEST(IiBound, DeterministicAcrossRunsAndThreads)
{
    std::vector<RandomCase> cases = randomCases(6);
    auto runAll = [&] {
        std::vector<std::pair<IiVerdict, uint64_t>> out;
        for (const RandomCase &rc : cases) {
            arch::CgraArch c(rc.config);
            const int mii = minimumIi(rc.dfg, dfg::Analysis(rc.dfg), c);
            for (int ii = mii; ii < mii + 2; ++ii) {
                const IiBound b = boundIi(rc.dfg, c, ii);
                out.emplace_back(b.verdict, b.nodes);
            }
        }
        return out;
    };
    const auto first = runAll();
    EXPECT_EQ(runAll(), first);
    std::vector<std::vector<std::pair<IiVerdict, uint64_t>>> concurrent(4);
    std::vector<std::thread> threads;
    for (auto &slot : concurrent)
        threads.emplace_back([&slot, &runAll] { slot = runAll(); });
    for (auto &t : threads)
        t.join();
    for (const auto &got : concurrent)
        EXPECT_EQ(got, first);
}

TEST(IiBound, SpatialAndOversizedFabricsAreUnknown)
{
    arch::CgraArch big(arch::baselineCgra(9, 9)); // 81 PEs
    arch::SystolicArch systolic(5, 5);
    auto w = workloads::workloadByName("atax");
    for (const arch::Accelerator *accel :
         {static_cast<const arch::Accelerator *>(&big),
          static_cast<const arch::Accelerator *>(&systolic)}) {
        const IiBound b = boundIi(w.dfg, *accel, 1);
        EXPECT_EQ(b.verdict, IiVerdict::Unknown) << accel->name();
        EXPECT_EQ(b.nodes, 0u) << accel->name();
    }
}

} // namespace
