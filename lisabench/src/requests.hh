/**
 * @file
 * Deterministic request generation. Every input a workload sends is
 * derived from the workload seed alone, so one seed always produces the
 * same request bytes; the program under test sees only these inputs.
 */

#ifndef LISABENCH_REQUESTS_HH
#define LISABENCH_REQUESTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/dfg.hh"
#include "support/random.hh"

namespace lisabench {

/** @{ compile workload budgets: the harness's full mode. */
constexpr double kCompilePerIi = 1.0;
constexpr double kCompileTotal = 6.0;
/** @} */

/** @{ serve workload budgets: the "fast" budget class. */
constexpr double kServePerIi = 0.05;
constexpr double kServeTotal = 2.0;
/** @} */

/** Per-II budget of the serve-hit cache warm-up. Still the fast class
 *  (the class keys on the total budget only), with room to find the
 *  same II on every run. */
constexpr double kWarmPerIi = 0.25;

/** Share of serve-mixed requests that are fresh random DFGs. */
constexpr double kFreshShare = 0.2;

/** Copies of each kernel in the serve-hit pool (as-is + permuted). */
constexpr int kHitVariants = 4;

/** One compile request: a fig9a kernel and the mapper seed to use. */
struct CompileRequest
{
    std::string kernel;
    uint64_t mapperSeed = 0;
};

/** Mapper seeds per kernel in the compile population. */
constexpr int kMapperSeeds = 3;

/**
 * Endless compile request stream over a fixed population: the 12 fig9a
 * PolyBench kernels, each with mapper seeds 1..kMapperSeeds. The stream
 * passes over the whole population again and again, each pass in a
 * seed-shuffled order, so any run that completes one pass compiles
 * every pair, and runs differ only in order and in which pairs the
 * last, partial pass repeats.
 */
class CompileRequests
{
  public:
    explicit CompileRequests(uint64_t seed);

    CompileRequest next();

  private:
    lisa::Rng rng;
    std::vector<CompileRequest> pass;
    size_t pos;
};

/**
 * A copy of @p dfg with node ids renumbered by a seed-drawn permutation
 * and the graph and its nodes renamed. Edges keep their order, so every
 * node keeps its operand order; the copy is isomorphic to @p dfg.
 */
lisa::dfg::Dfg permutedDfg(const lisa::dfg::Dfg &dfg, lisa::Rng &rng);

/** One serve "map" request line (no trailing newline). */
std::string mapRequestLine(const std::string &dfg_text,
                           const std::string &accel_spec, uint64_t seed,
                           double per_ii = kServePerIi);

/** One request a serve client sends. */
struct ServeRequest
{
    /** Kernel name, or "random" for a fresh generated DFG. */
    std::string kernel;
    std::string dfgText;
    /** FNV-1a of dfgText. */
    uint64_t dfgHash = 0;
    std::string line;
};

/**
 * The serve-hit request pool: the 12 PolyBench kernels and the 8
 * x2-unrolled variants, each as-is and as kHitVariants-1 permuted
 * copies.
 */
std::vector<ServeRequest> hitPool(uint64_t seed,
                                  const std::string &accel_spec);

/** Pool index of serve-hit connection @p connection's next request. */
class HitPicker
{
  public:
    HitPicker(uint64_t seed, int connection, size_t pool_size);
    size_t next();

  private:
    lisa::Rng rng;
    size_t size;
};

/**
 * The first @p count requests of serve-mixed connection @p connection:
 * in every block of 1/kFreshShare requests, one (at a seed-drawn
 * position) is a fresh dfg::generateRandomDfg graph and the others
 * repeat an as-is PolyBench kernel. The kernels, and the fresh graphs'
 * node counts (the generator's default range), come in seed-shuffled
 * rounds.
 */
std::vector<ServeRequest> mixedStream(uint64_t seed, int connection,
                                      size_t count,
                                      const std::string &accel_spec);

} // namespace lisabench

#endif // LISABENCH_REQUESTS_HH
