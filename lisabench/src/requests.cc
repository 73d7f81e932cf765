#include "requests.hh"

#include <numeric>
#include <sstream>

#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "support/fnv.hh"
#include "support/json.hh"
#include "workloads/polybench.hh"
#include "workloads/registry.hh"

namespace lisabench {

using namespace lisa;

namespace {

/** Stream ids of Rng::split, one per independent draw. */
constexpr uint64_t kCompileStream = 0xc0;
constexpr uint64_t kHitPoolStream = 0x41;
constexpr uint64_t kHitPickStream = 0x42;
constexpr uint64_t kMixedStream = 0x3a;

std::string
hexTag(Rng &rng)
{
    std::ostringstream os;
    os << std::hex << (rng.raw()() & 0xffffffu);
    return os.str();
}

} // namespace

CompileRequests::CompileRequests(uint64_t seed)
    : rng(Rng(seed).split(kCompileStream))
{
    for (const std::string &kernel : workloads::polybenchKernelNames())
        for (uint64_t s = 1; s <= kMapperSeeds; ++s)
            pass.push_back(CompileRequest{kernel, s});
    pos = pass.size();
}

CompileRequest
CompileRequests::next()
{
    if (pos == pass.size()) {
        rng.shuffle(pass);
        pos = 0;
    }
    return pass[pos++];
}

dfg::Dfg
permutedDfg(const dfg::Dfg &dfg, Rng &rng)
{
    const size_t n = dfg.numNodes();
    std::vector<dfg::NodeId> new_id(n);
    std::iota(new_id.begin(), new_id.end(), 0);
    rng.shuffle(new_id);
    std::vector<dfg::NodeId> old_of(n);
    for (size_t old = 0; old < n; ++old)
        old_of[static_cast<size_t>(new_id[old])] =
            static_cast<dfg::NodeId>(old);

    dfg::Dfg out;
    out.setName("k" + hexTag(rng));
    for (size_t k = 0; k < n; ++k) {
        const dfg::Node &node = dfg.node(old_of[k]);
        out.addNode(node.op, "v" + hexTag(rng));
    }
    for (const dfg::Edge &e : dfg.edges())
        out.addEdge(new_id[static_cast<size_t>(e.src)],
                    new_id[static_cast<size_t>(e.dst)], e.iterDistance);
    return out;
}

std::string
mapRequestLine(const std::string &dfg_text, const std::string &accel_spec,
               uint64_t seed, double per_ii)
{
    std::ostringstream os;
    os << "{\"op\":\"map\",\"dfg\":\"" << jsonEscape(dfg_text)
       << "\",\"accel\":\"" << jsonEscape(accel_spec)
       << "\",\"perIiBudget\":" << per_ii
       << ",\"totalBudget\":" << kServeTotal << ",\"seed\":" << seed
       << "}";
    return os.str();
}

std::vector<ServeRequest>
hitPool(uint64_t seed, const std::string &accel_spec)
{
    Rng rng = Rng(seed).split(kHitPoolStream);
    std::vector<workloads::Workload> kernels = workloads::polybenchSuite();
    for (auto &w : workloads::unrolledSuite(2))
        kernels.push_back(std::move(w));
    std::vector<ServeRequest> pool;
    for (const auto &w : kernels) {
        for (int v = 0; v < kHitVariants; ++v) {
            ServeRequest r;
            r.kernel = w.name;
            r.dfgText = v == 0 ? dfg::toText(w.dfg)
                               : dfg::toText(permutedDfg(w.dfg, rng));
            r.dfgHash = support::fnv1a(r.dfgText);
            r.line = mapRequestLine(r.dfgText, accel_spec,
                                    1 + (rng.raw()() % 1000000));
            pool.push_back(std::move(r));
        }
    }
    return pool;
}

HitPicker::HitPicker(uint64_t seed, int connection, size_t pool_size)
    : rng(Rng(seed).split(kHitPickStream +
                          static_cast<uint64_t>(connection) * 0x100)),
      size(pool_size)
{
}

size_t
HitPicker::next()
{
    return rng.index(size);
}

std::vector<ServeRequest>
mixedStream(uint64_t seed, int connection, size_t count,
            const std::string &accel_spec)
{
    Rng rng = Rng(seed).split(kMixedStream +
                              static_cast<uint64_t>(connection) * 0x100);
    const std::vector<workloads::Workload> kernels =
        workloads::polybenchSuite();
    // Exactly one fresh graph per block, at a seed-drawn position; the
    // fresh graphs' node counts and the repeated kernels both come in
    // shuffled rounds. The mix is the same at every run length, and
    // seeds differ in order and in the graphs' structure, not in how
    // many graphs of each size a run sees.
    const auto block = static_cast<size_t>(1.0 / kFreshShare + 0.5);
    std::vector<size_t> round;
    size_t round_pos = 0;
    size_t fresh_at = 0;
    const dfg::GeneratorConfig base;
    std::vector<int> sizes;
    size_t size_pos = 0;
    std::vector<ServeRequest> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        if (i % block == 0)
            fresh_at = i + rng.index(block);
        ServeRequest r;
        if (i == fresh_at) {
            if (size_pos == sizes.size()) {
                sizes.resize(
                    static_cast<size_t>(base.maxNodes - base.minNodes + 1));
                std::iota(sizes.begin(), sizes.end(), base.minNodes);
                rng.shuffle(sizes);
                size_pos = 0;
            }
            dfg::GeneratorConfig gen = base;
            gen.minNodes = gen.maxNodes = sizes[size_pos++];
            r.kernel = "random";
            r.dfgText = dfg::toText(dfg::generateRandomDfg(gen, rng));
        } else {
            if (round_pos == round.size()) {
                round.resize(kernels.size());
                std::iota(round.begin(), round.end(), 0);
                rng.shuffle(round);
                round_pos = 0;
            }
            const auto &w = kernels[round[round_pos++]];
            r.kernel = w.name;
            r.dfgText = dfg::toText(w.dfg);
        }
        r.dfgHash = support::fnv1a(r.dfgText);
        r.line = mapRequestLine(r.dfgText, accel_spec,
                                1 + (rng.raw()() % 1000000));
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace lisabench
