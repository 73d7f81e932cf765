#include "mapping/ii_bound.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <numeric>
#include <vector>

namespace lisa::map {

namespace {

/** A set of PEs, one bit per PE id (fabrics of up to 64 PEs). */
using PeSet = uint64_t;

constexpr int kMaxPes = 64;
constexpr int kUnreachable = 1 << 20;
/** Backtracking steps the fabric-automorphism enumeration may take. Past
 *  it, the orbits found so far are used: they are subsets of the true
 *  orbits, so picking one PE from each still covers every true orbit. */
constexpr uint64_t kSymmetryStepCap = 1u << 16;

static_assert(dfg::kNumOpCodes <= 64, "op signatures are 64-bit masks");

PeSet
bitOf(int pe)
{
    return PeSet{1} << pe;
}

/** Directed hop distances of the link graph, row-major [from][to]. */
std::vector<int>
hopDistances(const arch::Accelerator &accel)
{
    const int pes = accel.numPes();
    std::vector<int> dist(static_cast<size_t>(pes) * pes, kUnreachable);
    std::deque<int> frontier;
    for (int src = 0; src < pes; ++src) {
        int *row = &dist[static_cast<size_t>(src) * pes];
        row[src] = 0;
        frontier.assign(1, src);
        while (!frontier.empty()) {
            const int pe = frontier.front();
            frontier.pop_front();
            for (int next : accel.linkTargets(pe)) {
                if (row[next] == kUnreachable) {
                    row[next] = row[pe] + 1;
                    frontier.push_back(next);
                }
            }
        }
    }
    return dist;
}

/**
 * One PE per orbit of the fabric's automorphism group: the permutations
 * of PEs that preserve every directed link and every PE's op support.
 * Such a permutation maps a legal placement onto a legal placement with
 * the same route-slot count, so the first op placed only needs to try
 * one PE of each orbit.
 */
PeSet
orbitRepresentatives(const arch::Accelerator &accel)
{
    const int pes = accel.numPes();
    std::vector<uint64_t> sig(static_cast<size_t>(pes), 0);
    std::vector<PeSet> out(static_cast<size_t>(pes), 0);
    std::vector<PeSet> in(static_cast<size_t>(pes), 0);
    for (int pe = 0; pe < pes; ++pe) {
        for (int op = 0; op < dfg::kNumOpCodes; ++op)
            if (accel.supportsOp(pe, static_cast<dfg::OpCode>(op)))
                sig[static_cast<size_t>(pe)] |= uint64_t{1} << op;
        for (int t : accel.linkTargets(pe)) {
            out[static_cast<size_t>(pe)] |= bitOf(t);
            in[static_cast<size_t>(t)] |= bitOf(pe);
        }
    }

    // Map PEs in undirected BFS order, so every PE after a component's
    // first has an already-mapped neighbour that pins its candidates.
    std::vector<int> order;
    PeSet seen = 0;
    for (int root = 0; root < pes; ++root) {
        if (seen & bitOf(root))
            continue;
        seen |= bitOf(root);
        order.push_back(root);
        for (size_t head = order.size() - 1; head < order.size(); ++head) {
            const size_t pe = static_cast<size_t>(order[head]);
            for (PeSet nb = (out[pe] | in[pe]) & ~seen; nb; nb &= nb - 1) {
                seen |= bitOf(std::countr_zero(nb));
                order.push_back(std::countr_zero(nb));
            }
        }
    }

    std::vector<int> orbit(static_cast<size_t>(pes));
    std::iota(orbit.begin(), orbit.end(), 0);
    auto find = [&](int pe) {
        while (orbit[static_cast<size_t>(pe)] != pe)
            pe = orbit[static_cast<size_t>(pe)] =
                orbit[static_cast<size_t>(orbit[static_cast<size_t>(pe)])];
        return pe;
    };

    std::vector<int> image(static_cast<size_t>(pes), -1);
    uint64_t steps = 0;
    // Images of a set of already-mapped PEs.
    auto imageOf = [&](PeSet set) {
        PeSet img = 0;
        for (; set; set &= set - 1)
            img |= bitOf(image[static_cast<size_t>(std::countr_zero(set))]);
        return img;
    };
    auto extend = [&](auto &self, int k, PeSet mapped, PeSet used) -> void {
        if (k == pes) {
            for (int pe = 0; pe < pes; ++pe) {
                const int a = find(pe);
                const int b = find(image[static_cast<size_t>(pe)]);
                orbit[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
            }
            return;
        }
        const size_t pe = static_cast<size_t>(order[static_cast<size_t>(k)]);
        const PeSet want_out = imageOf(out[pe] & mapped);
        const PeSet want_in = imageOf(in[pe] & mapped);
        const PeSet images = used;
        for (PeSet cand = ~used & (pes == kMaxPes ? ~PeSet{0}
                                                  : bitOf(pes) - 1);
             cand; cand &= cand - 1) {
            if (++steps > kSymmetryStepCap)
                return;
            const size_t c = static_cast<size_t>(std::countr_zero(cand));
            if (sig[c] != sig[pe] ||
                std::popcount(out[c]) != std::popcount(out[pe]) ||
                std::popcount(in[c]) != std::popcount(in[pe]) ||
                (out[c] & images) != want_out ||
                (in[c] & images) != want_in) {
                continue;
            }
            image[pe] = static_cast<int>(c);
            self(self, k + 1, mapped | bitOf(static_cast<int>(pe)),
                 used | bitOf(static_cast<int>(c)));
            image[pe] = -1;
        }
    };
    extend(extend, 0, 0, 0);

    PeSet reps = 0;
    for (int pe = 0; pe < pes; ++pe)
        if (find(pe) == pe)
            reps |= bitOf(pe);
    return reps;
}

/** Branch-and-bound over relaxed placements (see ii_bound.hh). */
class RouteSlotSearch
{
  public:
    RouteSlotSearch(const dfg::Dfg &dfg, const arch::Accelerator &accel,
                    int target_ii, uint64_t node_cap)
        : n(static_cast<int>(dfg.numNodes())), pes(accel.numPes()),
          ii(target_ii), cap(node_cap), dist(hopDistances(accel)),
          ball(static_cast<size_t>(pes) * (pes + 1), 0),
          rball(static_cast<size_t>(pes) * (pes + 1), 0),
          capable(static_cast<size_t>(n), 0), succ(static_cast<size_t>(n)),
          pred(static_cast<size_t>(n)), pos(static_cast<size_t>(n), -1),
          curMax(static_cast<size_t>(n), 0), load(static_cast<size_t>(pes), 0),
          slots(pes * ii - n), growth(static_cast<size_t>(n), -1),
          reps(orbitRepresentatives(accel))
    {
        for (int a = 0; a < pes; ++a) {
            for (int b = 0; b < pes; ++b) {
                const int d = hop(a, b);
                if (d == kUnreachable)
                    continue;
                for (int r = d; r <= pes; ++r) {
                    ball[idx(a, r)] |= bitOf(b);
                    rball[idx(b, r)] |= bitOf(a);
                }
            }
        }
        for (const dfg::Node &node : dfg.nodes())
            for (int pe : accel.opCapablePes(node.op))
                capable[static_cast<size_t>(node.id)] |= bitOf(pe);
        for (const dfg::Edge &e : dfg.edges()) {
            if (e.src == e.dst)
                continue;
            succ[static_cast<size_t>(e.src)].push_back(e.dst);
            pred[static_cast<size_t>(e.dst)].push_back(e.src);
        }
        for (auto *lists : {&succ, &pred}) {
            for (auto &l : *lists) {
                std::sort(l.begin(), l.end());
                l.erase(std::unique(l.begin(), l.end()), l.end());
            }
        }
    }

    IiBound
    run()
    {
        const bool found = expand(0);
        return IiBound{found || capped ? IiVerdict::Unknown
                                       : IiVerdict::Infeasible,
                       nodes};
    }

  private:
    size_t idx(int pe, int r) const
    {
        return static_cast<size_t>(pe) * (pes + 1) + r;
    }

    int hop(int a, int b) const
    {
        return dist[static_cast<size_t>(a) * pes + b];
    }

    /** Radius clamp: a ball of radius >= pes holds every reachable PE. */
    int clampRadius(int r) const { return std::min(r, pes); }

    /** PEs where @p x could go without exceeding the free slots: no
     *  single edge to a placed neighbour may cost more than @p slack. */
    PeSet
    domain(int x, int slack) const
    {
        PeSet d = capable[static_cast<size_t>(x)] & ~full;
        for (int v : succ[static_cast<size_t>(x)]) {
            const int pv = pos[static_cast<size_t>(v)];
            if (pv >= 0)
                d &= rball[idx(pv, clampRadius(1 + slack))];
        }
        for (int u : pred[static_cast<size_t>(x)]) {
            const int pu = pos[static_cast<size_t>(u)];
            if (pu >= 0) {
                const int reach = 1 + curMax[static_cast<size_t>(u)] + slack;
                d &= ball[idx(pu, clampRadius(reach))];
            }
        }
        return d;
    }

    /** Fewest route slots @p x's own value needs to reach its placed
     *  sinks from any PE of @p d (at most @p slack by construction). */
    int
    ownFloor(int x, PeSet d, int slack) const
    {
        for (int r = 0; r < slack; ++r) {
            PeSet fits = d;
            for (int v : succ[static_cast<size_t>(x)]) {
                const int pv = pos[static_cast<size_t>(v)];
                if (pv >= 0)
                    fits &= rball[idx(pv, clampRadius(1 + r))];
            }
            if (fits)
                return r;
        }
        return slack;
    }

    /** Fewest extra route slots placed producer @p u needs to reach a
     *  sink placed anywhere in @p d (at most @p slack by construction). */
    int
    growthFloor(int u, PeSet d, int slack) const
    {
        const int pu = pos[static_cast<size_t>(u)];
        const int base = 1 + curMax[static_cast<size_t>(u)];
        for (int r = 0; r < slack; ++r)
            if (d & ball[idx(pu, clampRadius(base + r))])
                return r;
        return slack;
    }

    /** Route slots @p x's own value needs from @p pe to its placed
     *  sinks. */
    int
    ownCost(int x, int pe) const
    {
        int own = 0;
        for (int v : succ[static_cast<size_t>(x)]) {
            const int pv = pos[static_cast<size_t>(v)];
            if (pv >= 0)
                own = std::max(own, hop(pe, pv) - 1);
        }
        return own;
    }

    /** Route-slot cost that placing @p x on @p pe adds: x's own value to
     *  its placed sinks, plus each placed producer's growth. */
    int
    increment(int x, int pe) const
    {
        int add = ownCost(x, pe);
        for (int u : pred[static_cast<size_t>(x)]) {
            const int pu = pos[static_cast<size_t>(u)];
            if (pu >= 0)
                add += std::max(0, hop(pu, pe) - 1 -
                                       curMax[static_cast<size_t>(u)]);
        }
        return add;
    }

    /** True when the search should stop: a relaxed placement was found
     *  or the node cap was reached. */
    bool
    expand(int placed)
    {
        if (nodes >= cap) {
            capped = true;
            return true;
        }
        ++nodes;
        const int slack = slots - cost;
        if (slack < 0)
            return false; // more ops than FU slots
        if (placed == n)
            return true;

        // Most-constrained node first: the smallest domain, then the most
        // neighbours, then the lowest id.
        int x = -1;
        int best_size = kMaxPes + 1;
        size_t best_degree = 0;
        PeSet x_domain = 0, reachable = 0;
        // Route slots the unplaced ops must still add, whatever PEs they
        // get: each one's own value to its placed sinks, plus the growth
        // of each placed producer (a max over its unplaced sinks).
        int future = 0;
        bool wiped_out = false;
        for (int v = 0; v < n; ++v) {
            if (pos[static_cast<size_t>(v)] >= 0)
                continue;
            const PeSet d = domain(v, slack);
            if (d == 0) {
                wiped_out = true;
                break;
            }
            reachable |= d;
            future += ownFloor(v, d, slack);
            for (int u : pred[static_cast<size_t>(v)]) {
                const int pu = pos[static_cast<size_t>(u)];
                if (pu < 0)
                    continue;
                int &g = growth[static_cast<size_t>(u)];
                if (g < 0) {
                    g = 0;
                    touched.push_back(u);
                }
                g = std::max(g, growthFloor(u, d, slack));
            }
            const int size = std::popcount(d);
            const size_t degree = succ[static_cast<size_t>(v)].size() +
                                  pred[static_cast<size_t>(v)].size();
            if (size < best_size ||
                (size == best_size && degree > best_degree)) {
                x = v;
                best_size = size;
                best_degree = degree;
                x_domain = d;
            }
        }
        for (int u : touched) {
            future += growth[static_cast<size_t>(u)];
            growth[static_cast<size_t>(u)] = -1;
        }
        touched.clear();
        if (wiped_out || future > slack)
            return false;
        // The unplaced ops must fit in the free op capacity of the PEs
        // their domains can still reach.
        int capacity = 0;
        for (PeSet s = reachable; s; s &= s - 1)
            capacity += ii - load[static_cast<size_t>(std::countr_zero(s))];
        if (capacity < n - placed)
            return false;

        if (placed == 0)
            x_domain &= reps;
        std::array<std::pair<int, int>, kMaxPes> order;
        size_t count = 0;
        for (PeSet s = x_domain; s; s &= s - 1) {
            const int pe = std::countr_zero(s);
            const int inc = increment(x, pe);
            if (inc <= slack)
                order[count++] = {inc, pe};
        }
        std::sort(order.begin(), order.begin() + static_cast<long>(count));

        for (size_t i = 0; i < count; ++i) {
            const auto [inc, pe] = order[i];
            // Place x on pe.
            const size_t undo_mark = undo.size();
            for (int u : pred[static_cast<size_t>(x)]) {
                const int pu = pos[static_cast<size_t>(u)];
                if (pu < 0)
                    continue;
                int &m = curMax[static_cast<size_t>(u)];
                undo.emplace_back(u, m);
                m = std::max(m, hop(pu, pe) - 1);
            }
            curMax[static_cast<size_t>(x)] = ownCost(x, pe);
            pos[static_cast<size_t>(x)] = pe;
            cost += inc;
            if (++load[static_cast<size_t>(pe)] == ii)
                full |= bitOf(pe);

            if (expand(placed + 1))
                return true;

            // Undo.
            if (load[static_cast<size_t>(pe)]-- == ii)
                full &= ~bitOf(pe);
            cost -= inc;
            pos[static_cast<size_t>(x)] = -1;
            curMax[static_cast<size_t>(x)] = 0;
            while (undo.size() > undo_mark) {
                curMax[static_cast<size_t>(undo.back().first)] =
                    undo.back().second;
                undo.pop_back();
            }
        }
        return false;
    }

    const int n;
    const int pes;
    const int ii;
    const uint64_t cap;
    /** Directed hop distances, [from * pes + to]. */
    const std::vector<int> dist;
    /** ball[pe, r]: PEs within r hops from pe; rball: PEs within r hops
     *  to pe. Indexed by idx(pe, r), r in [0, pes]. */
    std::vector<PeSet> ball, rball;
    std::vector<PeSet> capable;
    /** Distinct consumers / producers of each node (self-loops dropped:
     *  they never leave the PE). */
    std::vector<std::vector<int>> succ, pred;

    /** Search state: PE of each node (-1 = unplaced), the route slots its
     *  value needs to its placed sinks, ops per PE, full PEs. */
    std::vector<int> pos;
    std::vector<int> curMax;
    std::vector<int> load;
    PeSet full = 0;
    /** Route slots committed so far, and the free FU slots of the II. */
    int cost = 0;
    const int slots;
    /** (node, previous curMax) entries of the placements on the path. */
    std::vector<std::pair<int, int>> undo;

    /** Scratch of expand(): per placed producer, the growth its unplaced
     *  sinks force (-1 = untouched), and the producers touched. */
    std::vector<int> growth;
    std::vector<int> touched;

    const PeSet reps;
    uint64_t nodes = 0;
    bool capped = false;
};

} // namespace

IiBound
boundIi(const dfg::Dfg &dfg, const arch::Accelerator &accel, int ii,
        uint64_t node_cap)
{
    if (!accel.temporalMapping() || accel.numPes() > kMaxPes || ii < 1)
        return {};
    return RouteSlotSearch(dfg, accel, ii, node_cap).run();
}

} // namespace lisa::map
