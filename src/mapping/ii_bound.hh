/**
 * @file
 * Route-slot lower bound: a cheap proof that an II is unmappable.
 *
 * Every II the sweep tries costs its full wall-clock budget when no
 * mapping exists. boundIi() replaces that burn, where it can, with a
 * bounded exhaustive search over a relaxation that rests only on rules
 * the MRRG and the verifier already enforce (mrrg.hh, verify.hh
 * check 4):
 *
 *  - an FU slot carries exactly one value instance: an op or a
 *    forwarded value, never both;
 *  - a value changes PE only by landing on a linked PE's FU;
 *  - an op reads from its own PE or from a PE with a link into it.
 *
 * A value produced on PE a and read on PE b therefore occupies FU slots
 * on at least dist(a, b) - 1 distinct PEs, where dist is the directed hop
 * distance of the link graph. Fanout instances share slots, so a value
 * needs at least the maximum of that over its sinks, and different
 * values never share a slot. Any legal mapping at II thus has a
 * placement P onto op-capable PEs with at most II ops per PE and
 *
 *     numNodes + sum_u max_{u->v} max(0, dist(P(u), P(v)) - 1)
 *         <= numPes * II.
 *
 * The bound branch-and-bounds over such placements. Exhausting the
 * search proves the II unmappable (Infeasible); finding a relaxed
 * placement, or running into the node cap, says nothing (Unknown).
 * Time and register capacity are ignored entirely, so the bound can
 * only prove IIs that fail for lack of route-through slots.
 *
 * A relaxed placement at II k is also one at II k + 1, so once an II is
 * Unknown for a found placement, every higher II is too.
 *
 * The search is deterministic: verdict and node count depend only on
 * (DFG, accelerator, II, cap), never on threads or timing.
 */

#ifndef LISA_MAPPING_II_BOUND_HH
#define LISA_MAPPING_II_BOUND_HH

#include <cstdint>

#include "arch/accelerator.hh"
#include "dfg/dfg.hh"

namespace lisa::map {

/** What the bound established about one II. */
enum class IiVerdict : uint8_t
{
    Infeasible, ///< no legal mapping exists at this II
    Unknown,    ///< a relaxed placement exists, or the cap was reached
};

/** Verdict plus the work it took. */
struct IiBound
{
    IiVerdict verdict = IiVerdict::Unknown;
    /** Branch-and-bound search nodes expanded (partial placements). */
    uint64_t nodes = 0;
};

/** Search nodes one proof may expand before it gives up (Unknown). */
inline constexpr uint64_t kIiBoundNodeCap = 100000;

/**
 * Try to prove that @p dfg has no legal mapping on @p accel at @p ii.
 * Spatial-only accelerators and fabrics of more than 64 PEs are outside
 * the bound's model and always get Unknown with zero work. @p node_cap
 * exists for tests; the sweep always passes kIiBoundNodeCap.
 */
IiBound boundIi(const dfg::Dfg &dfg, const arch::Accelerator &accel, int ii,
                uint64_t node_cap = kIiBoundNodeCap);

} // namespace lisa::map

#endif // LISA_MAPPING_II_BOUND_HH
