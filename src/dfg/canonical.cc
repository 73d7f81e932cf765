#include "dfg/canonical.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "support/fnv.hh"

namespace lisa::dfg {
namespace {

using support::Fnv1a;

/**
 * One round of color refinement. Each node's new color folds its current
 * color with the *sorted* multiset of signatures of its incident edges,
 * where a signature encodes (direction, iterDistance, neighbor color).
 * Sorting the multiset is what makes the result independent of edge
 * insertion order; hashing instead of rank-compressing per round keeps
 * the implementation simple, and the final rank compression below
 * restores small dense color values.
 *
 * @return true when the partition got strictly finer.
 */
bool
refineOnce(const Dfg &dfg, std::vector<uint64_t> &color)
{
    const size_t n = dfg.numNodes();
    std::vector<uint64_t> next(n);
    std::vector<uint64_t> sigs;
    for (size_t v = 0; v < n; ++v) {
        sigs.clear();
        for (EdgeId eid : dfg.outEdges(static_cast<NodeId>(v))) {
            const Edge &e = dfg.edge(eid);
            Fnv1a f;
            f.u64(0x01);
            f.i32(e.iterDistance);
            f.u64(color[e.dst]);
            sigs.push_back(f.h);
        }
        for (EdgeId eid : dfg.inEdges(static_cast<NodeId>(v))) {
            const Edge &e = dfg.edge(eid);
            Fnv1a f;
            f.u64(0x02);
            f.i32(e.iterDistance);
            f.u64(color[e.src]);
            sigs.push_back(f.h);
        }
        std::sort(sigs.begin(), sigs.end());
        Fnv1a f;
        f.u64(color[v]);
        for (uint64_t s : sigs)
            f.u64(s);
        next[v] = f.h;
    }

    // Rank-compress: replace each hash with its rank among the distinct
    // hash values. Ranks depend only on the value *set* (sorted), so the
    // compressed coloring is permutation-invariant, and small dense color
    // values keep subsequent rounds' hashes reproducible.
    std::vector<uint64_t> distinct(next);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    size_t classesBefore = 0;
    {
        std::vector<uint64_t> d0(color);
        std::sort(d0.begin(), d0.end());
        d0.erase(std::unique(d0.begin(), d0.end()), d0.end());
        classesBefore = d0.size();
    }
    for (size_t v = 0; v < n; ++v) {
        const auto it =
            std::lower_bound(distinct.begin(), distinct.end(), next[v]);
        color[v] = static_cast<uint64_t>(it - distinct.begin());
    }
    return distinct.size() > classesBefore;
}

/** Refine until the partition stops getting finer. */
void
refineToFixpoint(const Dfg &dfg, std::vector<uint64_t> &color)
{
    while (refineOnce(dfg, color)) {
    }
}

/**
 * Smallest color value that labels more than one node, or UINT64_MAX if
 * the partition is discrete. Choosing by color *value* (not by any node
 * id) keeps the branch target permutation-invariant.
 */
uint64_t
firstNonSingletonColor(const std::vector<uint64_t> &color)
{
    std::vector<uint64_t> d(color);
    std::sort(d.begin(), d.end());
    for (size_t i = 0; i + 1 < d.size(); ++i)
        if (d[i] == d[i + 1])
            return d[i];
    return UINT64_MAX;
}

/**
 * Render the canonical text for a *discrete* coloring. color[v] is the
 * canonical position of original node v.
 */
std::string
renderCanonicalText(const Dfg &dfg, const std::vector<uint64_t> &color)
{
    const size_t n = dfg.numNodes();
    std::vector<NodeId> order(n, kInvalidNode); // canon pos -> original id
    for (size_t v = 0; v < n; ++v)
        order[color[v]] = static_cast<NodeId>(v);

    std::string out = "dfg canonical\n";
    char line[96];
    for (size_t pos = 0; pos < n; ++pos) {
        std::snprintf(line, sizeof line, "node %zu %s\n", pos,
                      opName(dfg.node(order[pos]).op));
        out += line;
    }

    // Edges sorted by (canonical src, canonical dst, iterDistance).
    std::vector<std::array<int64_t, 3>> rows;
    rows.reserve(dfg.numEdges());
    for (const Edge &e : dfg.edges())
        rows.push_back({static_cast<int64_t>(color[e.src]),
                        static_cast<int64_t>(color[e.dst]), e.iterDistance});
    std::sort(rows.begin(), rows.end());
    for (const auto &r : rows) {
        if (r[2] != 0)
            std::snprintf(line, sizeof line, "edge %lld %lld %lld\n",
                          static_cast<long long>(r[0]),
                          static_cast<long long>(r[1]),
                          static_cast<long long>(r[2]));
        else
            std::snprintf(line, sizeof line, "edge %lld %lld\n",
                          static_cast<long long>(r[0]),
                          static_cast<long long>(r[1]));
        out += line;
    }
    return out;
}

/**
 * Individualization-refinement search for the lexicographically smallest
 * canonical text. `budget` bounds the number of refinement fixpoints run
 * so a (hypothetical) highly symmetric graph cannot blow up; real kernel
 * DFGs resolve in a handful of leaves. When the budget runs out the
 * remaining ties are broken by original node id — still deterministic
 * for a fixed input, merely no longer permutation-invariant, which only
 * costs a cache miss, never a wrong result.
 */
struct CanonSearch
{
    const Dfg &dfg;
    long budget;
    std::string best;                // lexicographically smallest text
    std::vector<uint64_t> bestColor; // coloring that produced `best`

    void
    run(std::vector<uint64_t> color)
    {
        refineToFixpoint(dfg, color);
        const uint64_t cls = firstNonSingletonColor(color);
        if (cls == UINT64_MAX) {
            std::string text = renderCanonicalText(dfg, color);
            if (best.empty() || text < best) {
                best = std::move(text);
                bestColor = std::move(color);
            }
            return;
        }
        if (budget <= 0) {
            // Budget exhausted: break every remaining tie at once by
            // original id and accept the (deterministic) result.
            breakAllTies(color);
            std::string text = renderCanonicalText(dfg, color);
            if (best.empty() || text < best) {
                best = std::move(text);
                bestColor = std::move(color);
            }
            return;
        }
        // Individualize each member of the chosen class in turn. Taking
        // the min over all members makes the outcome independent of the
        // order the members are visited in, hence of node numbering.
        const size_t n = dfg.numNodes();
        for (size_t v = 0; v < n; ++v) {
            if (color[v] != cls)
                continue;
            --budget;
            std::vector<uint64_t> child(color);
            // Split v off its class with a fresh color value; ranks are
            // re-compressed by the next refinement round.
            child[v] = static_cast<uint64_t>(n) + 1;
            run(std::move(child));
            if (budget <= 0 && !best.empty())
                return;
        }
    }

    void
    breakAllTies(std::vector<uint64_t> &color) const
    {
        // Order nodes by (color, original id) and assign dense positions.
        const size_t n = dfg.numNodes();
        std::vector<size_t> idx(n);
        for (size_t v = 0; v < n; ++v)
            idx[v] = v;
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return std::pair(color[a], a) < std::pair(color[b], b);
        });
        for (size_t pos = 0; pos < n; ++pos)
            color[idx[pos]] = pos;
    }
};

} // namespace

CanonicalDfg
canonicalize(const Dfg &dfg)
{
    const size_t n = dfg.numNodes();

    // Seed colors from opcodes only; everything else comes from structure.
    std::vector<uint64_t> color(n);
    for (size_t v = 0; v < n; ++v) {
        Fnv1a f;
        f.str(opName(dfg.node(static_cast<NodeId>(v)).op));
        color[v] = f.h;
    }

    CanonSearch search{dfg, /*budget=*/4096, {}, {}};
    search.run(std::move(color));

    CanonicalDfg out;
    out.text = std::move(search.best);
    out.hash = support::fnv1a(out.text);

    out.nodeOrder.assign(n, kInvalidNode);
    out.toCanonical.assign(n, kInvalidNode);
    for (size_t v = 0; v < n; ++v) {
        const auto pos = static_cast<NodeId>(search.bestColor[v]);
        out.toCanonical[v] = pos;
        out.nodeOrder[pos] = static_cast<NodeId>(v);
    }

    // Edge translation. Canonical edge order is the sorted
    // (canonSrc, canonDst, iterDistance) order used by the renderer;
    // parallel edges with identical triples are matched ascending by
    // original id (they are automorphic images of each other, so any
    // pairing yields a valid translated mapping).
    const size_t m = dfg.numEdges();
    std::vector<std::pair<std::array<int64_t, 3>, EdgeId>> rows;
    rows.reserve(m);
    for (const Edge &e : dfg.edges())
        rows.push_back({{static_cast<int64_t>(out.toCanonical[e.src]),
                         static_cast<int64_t>(out.toCanonical[e.dst]),
                         e.iterDistance},
                        e.id});
    std::sort(rows.begin(), rows.end());
    out.edgeOrder.assign(m, -1);
    out.edgeToCanonical.assign(m, -1);
    for (size_t pos = 0; pos < m; ++pos) {
        out.edgeOrder[pos] = rows[pos].second;
        out.edgeToCanonical[rows[pos].second] = static_cast<EdgeId>(pos);
    }
    return out;
}

uint64_t
canonicalHash(const Dfg &dfg)
{
    return canonicalize(dfg).hash;
}

} // namespace lisa::dfg
