#include "arch/arch_context.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/fnv.hh"
#include "support/logging.hh"

namespace lisa::arch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr char kMagic[4] = {'L', 'A', 'R', 'C'};
constexpr uint32_t kFormatVersion = 1;

/** Min-heap comparator matching the router's lexicographic tie order. */
struct HeapGreater
{
    bool
    operator()(const std::pair<double, int> &a,
               const std::pair<double, int> &b) const
    {
        return a > b;
    }
};

/** Shared FNV-1a 64-bit hasher (support/fnv.hh); the byte-by-byte
 *  low-first folding keeps every persisted fingerprint identical to the
 *  values the pre-refactor local copy produced on little-endian hosts. */
using Fnv1a = support::Fnv1a;

/** @{ Little-endian-agnostic buffer writer/reader for the LARC format.
 *  Multi-byte fields are serialized byte-by-byte (low byte first), so
 *  files are portable across host endianness. */
void
putU32(std::string &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &buf, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(buf, bits);
}

void
putI32(std::string &buf, int32_t v)
{
    putU32(buf, static_cast<uint32_t>(v));
}

struct Reader
{
    const std::string &buf;
    size_t pos = 0;
    bool ok = true;

    bool
    need(size_t n)
    {
        if (!ok || buf.size() - pos < n) {
            ok = false;
            return false;
        }
        return true;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    int32_t
    i32()
    {
        return static_cast<int32_t>(u32());
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<uint8_t>(buf[pos++]);
    }
};
/** @} */

uint64_t
checksumOf(const std::string &buf)
{
    Fnv1a f;
    f.bytes(buf.data(), buf.size());
    return f.h;
}

uint64_t
computeFingerprint(const Accelerator &accel)
{
    Fnv1a f;
    f.bytes(accel.name().data(), accel.name().size());
    const int pes = accel.numPes();
    f.i32(pes);
    for (int pe = 0; pe < pes; ++pe) {
        const PeCoord &c = accel.peCoord(pe);
        f.i32(c.row);
        f.i32(c.col);
        const auto &links = accel.linkTargets(pe);
        f.i32(static_cast<int32_t>(links.size()));
        for (int dst : links)
            f.i32(dst);
    }
    f.i32(accel.registersPerPe());
    f.i32(accel.maxIi());
    f.i32(accel.temporalMapping() ? 1 : 0);
    for (int pe = 0; pe < pes; ++pe) {
        uint64_t support = 0;
        for (int op = 0; op < dfg::kNumOpCodes; ++op) {
            if (accel.supportsOp(pe, static_cast<dfg::OpCode>(op)))
                support |= uint64_t{1} << op;
        }
        f.u64(support);
    }
    return f.h;
}

} // namespace

// ---------------------------------------------------------------------------
// OracleStore

OracleStore::OracleStore(std::shared_ptr<const Mrrg> mrrg, double fu_cost,
                         double reg_cost)
    : graph(std::move(mrrg)), fu(fu_cost), reg(reg_cost),
      hopPub(static_cast<size_t>(graph->ii()) *
             static_cast<size_t>(graph->accel().numPes())),
      costPub(static_cast<size_t>(graph->accel().numPes()))
{
    const size_t n = static_cast<size_t>(graph->numResources());
    base.assign(n, 0.0);
    const auto kinds = graph->resourceKinds();
    for (size_t id = 0; id < n; ++id)
        base[id] = (kinds[id] == ResourceKind::Fu) ? fu : reg;
}

const std::vector<int32_t> &
OracleStore::ensureHopTable(int layer, int pe, uint64_t &oracle_builds,
                            uint64_t &context_misses,
                            uint64_t &context_hits)
{
    support::LockGuard lock(mu);
    const size_t slot = slotOf(layer, pe);
    // relaxed: all stores to hopPub happen under `mu`, which we hold, so
    // this load can never race a publication; no ordering needed.
    if (const auto *t = hopPub[slot].load(std::memory_order_relaxed)) {
        ++context_hits; // lost a build race, or warm-seeded
        return *t;
    }

    const size_t canonical_slot = slotOf(0, pe);
    // relaxed: same as above — publication is serialized by `mu`.
    const std::vector<int32_t> *canonical =
        hopPub[canonical_slot].load(std::memory_order_relaxed);
    if (!canonical) {
        hopStorage.emplace_back();
        std::vector<int32_t> &tab = hopStorage.back();
        buildCanonicalHops(tab, pe);
        ++oracle_builds;
        ++context_misses;
        hopPub[canonical_slot].store(&tab, std::memory_order_release);
        canonical = &tab;
    }
    if (layer == 0)
        return *canonical;

    // Materialize the rotated table: the MRRG is invariant under layer
    // rotation, so tab_L[l*P+idx] == tab_0[((l-L) mod II)*P+idx].
    const int num_layers = graph->ii();
    const size_t per_layer = static_cast<size_t>(graph->perLayerCount());
    hopStorage.emplace_back(canonical->size());
    std::vector<int32_t> &rot = hopStorage.back();
    for (int l = 0; l < num_layers; ++l) {
        const size_t src_layer = static_cast<size_t>(
            ((l - layer) % num_layers + num_layers) % num_layers);
        std::copy_n(canonical->data() + src_layer * per_layer, per_layer,
                    rot.data() + static_cast<size_t>(l) * per_layer);
    }
    ++context_misses;
    hopPub[slot].store(&rot, std::memory_order_release);
    return rot;
}

const std::vector<double> &
OracleStore::ensureCostTable(int pe, uint64_t &oracle_builds,
                             uint64_t &context_misses,
                             uint64_t &context_hits)
{
    support::LockGuard lock(mu);
    const size_t slot = static_cast<size_t>(pe);
    // relaxed: costPub stores are serialized by `mu`, which we hold.
    if (const auto *t = costPub[slot].load(std::memory_order_relaxed)) {
        ++context_hits;
        return *t;
    }
    costStorage.emplace_back();
    std::vector<double> &tab = costStorage.back();
    buildCosts(tab, pe);
    ++oracle_builds;
    ++context_misses;
    costPub[slot].store(&tab, std::memory_order_release);
    return tab;
}

void
OracleStore::buildCanonicalHops(std::vector<int32_t> &tab, int pe)
{
    tab.assign(static_cast<size_t>(graph->numResources()), -1);
    bfsQueue.clear();
    for (int g : graph->feeders(PeId{pe}, AbsTime{0})) {
        if (tab[static_cast<size_t>(g)] < 0) {
            tab[static_cast<size_t>(g)] = 0;
            bfsQueue.push_back(g);
        }
    }
    for (size_t head = 0; head < bfsQueue.size(); ++head) {
        const int n = bfsQueue[head];
        const int32_t next = tab[static_cast<size_t>(n)] + 1;
        for (int m : graph->movePreds(n)) {
            if (tab[static_cast<size_t>(m)] < 0) {
                tab[static_cast<size_t>(m)] = next;
                bfsQueue.push_back(m);
            }
        }
    }
}

void
OracleStore::buildCosts(std::vector<double> &tab, int pe)
{
    tab.assign(static_cast<size_t>(graph->numResources()), kInf);
    dijHeap.clear();
    for (int g : graph->feeders(PeId{pe}, AbsTime{0})) {
        if (tab[static_cast<size_t>(g)] > 0.0) {
            tab[static_cast<size_t>(g)] = 0.0;
            dijHeap.emplace_back(0.0, g);
        }
    }
    std::make_heap(dijHeap.begin(), dijHeap.end(), HeapGreater{});
    while (!dijHeap.empty()) {
        std::pop_heap(dijHeap.begin(), dijHeap.end(), HeapGreater{});
        auto [d, n] = dijHeap.back();
        dijHeap.pop_back();
        if (d > tab[static_cast<size_t>(n)])
            continue;
        // A forward hop into n costs base[n]; relaxing a predecessor m
        // extends the (reversed) path n -> goal to m -> n -> goal.
        const double cand = d + base[static_cast<size_t>(n)];
        for (int m : graph->movePreds(n)) {
            if (cand < tab[static_cast<size_t>(m)]) {
                tab[static_cast<size_t>(m)] = cand;
                dijHeap.emplace_back(cand, m);
                std::push_heap(dijHeap.begin(), dijHeap.end(),
                               HeapGreater{});
            }
        }
    }
}

void
OracleStore::seedCanonicalHops(int pe, std::vector<int32_t> table)
{
    support::LockGuard lock(mu);
    const size_t slot = slotOf(0, pe);
    // relaxed: publication is serialized by `mu`, which we hold.
    if (hopPub[slot].load(std::memory_order_relaxed))
        return;
    hopStorage.push_back(std::move(table));
    hopPub[slot].store(&hopStorage.back(), std::memory_order_release);
}

void
OracleStore::seedCosts(int pe, std::vector<double> table)
{
    support::LockGuard lock(mu);
    const size_t slot = static_cast<size_t>(pe);
    // relaxed: publication is serialized by `mu`, which we hold.
    if (costPub[slot].load(std::memory_order_relaxed))
        return;
    costStorage.push_back(std::move(table));
    costPub[slot].store(&costStorage.back(), std::memory_order_release);
}

size_t
OracleStore::capacityBytes() const
{
    support::LockGuard lock(mu);
    size_t total = base.capacity() * sizeof(double) +
                   hopPub.size() *
                       sizeof(std::atomic<const std::vector<int32_t> *>) +
                   costPub.size() *
                       sizeof(std::atomic<const std::vector<double> *>) +
                   bfsQueue.capacity() * sizeof(int) +
                   dijHeap.capacity() * sizeof(std::pair<double, int>);
    for (const auto &t : hopStorage)
        total += t.capacity() * sizeof(int32_t);
    for (const auto &t : costStorage)
        total += t.capacity() * sizeof(double);
    return total;
}

std::shared_ptr<OracleStore>
makePrivateOracleStore(std::shared_ptr<const Mrrg> mrrg, double fu_cost,
                       double reg_cost)
{
    return std::make_shared<OracleStore>(std::move(mrrg), fu_cost,
                                         reg_cost);
}

// ---------------------------------------------------------------------------
// ArchContext

ArchContext::ArchContext(const Accelerator &accel, std::string cache_dir)
    : arch(&accel), dir(std::move(cache_dir)),
      fp(computeFingerprint(accel)), archName(accel.name()),
      archPes(accel.numPes())
{
    // Warm the per-op capable-PE memo so mapping threads never race on the
    // first-use build (it is once_flag-guarded, but eager is free here).
    for (int op = 0; op < dfg::kNumOpCodes; ++op)
        (void)accel.opCapablePes(static_cast<dfg::OpCode>(op));

    if (!dir.empty()) {
        const std::string path = cacheFilePath();
        std::error_code ec;
        if (std::filesystem::exists(path, ec) && !ec)
            load(path); // best-effort: a stale/corrupt file = cold start
    }
}

ArchContext::~ArchContext()
{
    if (!dir.empty())
        save(cacheFilePath());
}

std::shared_ptr<const Mrrg>
ArchContext::mrrgFor(int ii, bool *hit)
{
    support::LockGuard lock(mu);
    auto it = mrrgs.find(ii);
    if (it != mrrgs.end()) {
        if (hit)
            *hit = true;
        return it->second;
    }
    auto graph = std::make_shared<const Mrrg>(*arch, ii);
    mrrgs.emplace(ii, graph);
    if (hit)
        *hit = false;
    return graph;
}

std::shared_ptr<OracleStore>
ArchContext::oracleStoreFor(const std::shared_ptr<const Mrrg> &mrrg,
                            double fu_cost, double reg_cost, bool *hit)
{
    support::LockGuard lock(mu);
    const StoreKey key{mrrg->uid(), fu_cost, reg_cost};
    auto it = stores.find(key);
    if (it != stores.end()) {
        if (hit)
            *hit = true;
        return it->second;
    }
    auto store = std::make_shared<OracleStore>(mrrg, fu_cost, reg_cost);
    if (&mrrg->accel() == arch)
        seedFromWarm(*store);
    stores.emplace(key, store);
    if (hit)
        *hit = false;
    return store;
}

void
ArchContext::seedFromWarm(OracleStore &store)
{
    for (auto it = warm.begin(); it != warm.end(); ++it) {
        if (it->ii != store.ii() || it->fu != store.fuCost() ||
            it->reg != store.regCost()) {
            continue;
        }
        const size_t n =
            static_cast<size_t>(store.mrrg().numResources());
        const size_t pes = static_cast<size_t>(archPes);
        for (size_t pe = 0; pe < pes && pe < it->canonicalHops.size();
             ++pe) {
            if (it->canonicalHops[pe].size() == n)
                store.seedCanonicalHops(static_cast<int>(pe),
                                        std::move(it->canonicalHops[pe]));
        }
        for (size_t pe = 0; pe < pes && pe < it->costTables.size(); ++pe) {
            if (it->costTables[pe].size() == n)
                store.seedCosts(static_cast<int>(pe),
                                std::move(it->costTables[pe]));
        }
        warm.erase(it);
        return;
    }
}

std::string
ArchContext::envCacheDir()
{
    const char *v = std::getenv("LISA_ARCH_CACHE");
    return (v && *v) ? std::string(v) : std::string();
}

std::string
ArchContext::cacheFilePath() const
{
    if (dir.empty())
        return "";
    std::ostringstream os;
    os << dir << "/" << archName << "-" << std::hex << fp << ".larc";
    return os.str();
}

bool
ArchContext::save(const std::string &path) const
{
    if (path.empty())
        return false;

    // Snapshot every binding: live stores first, then any warm-start
    // payload that was never consumed (so load -> save loses nothing).
    // Bindings are keyed (ii, fuCost, regCost); first writer wins.
    std::vector<WarmBinding> bindings;
    {
        support::LockGuard lock(mu);
        auto seen = [&bindings](int ii, double fu, double reg) {
            for (const WarmBinding &b : bindings)
                if (b.ii == ii && b.fu == fu && b.reg == reg)
                    return true;
            return false;
        };
        for (const auto &[key, store] : stores) {
            if (&store->mrrg().accel() != arch)
                continue; // foreign graph: not covered by the fingerprint
            if (seen(store->ii(), store->fuCost(), store->regCost()))
                continue;
            WarmBinding b;
            b.ii = store->ii();
            b.fu = store->fuCost();
            b.reg = store->regCost();
            const int pes = archPes;
            b.canonicalHops.resize(static_cast<size_t>(pes));
            b.costTables.resize(static_cast<size_t>(pes));
            bool any = false;
            for (int pe = 0; pe < pes; ++pe) {
                if (const auto *t = store->hopTable(0, pe)) {
                    b.canonicalHops[static_cast<size_t>(pe)] = *t;
                    any = true;
                }
                if (const auto *t = store->costTable(pe)) {
                    b.costTables[static_cast<size_t>(pe)] = *t;
                    any = true;
                }
            }
            if (any)
                bindings.push_back(std::move(b));
        }
        for (const WarmBinding &w : warm)
            if (!seen(w.ii, w.fu, w.reg))
                bindings.push_back(w);
    }
    if (bindings.empty())
        return false; // nothing learned: leave any existing file alone

    std::string buf;
    buf.append(kMagic, sizeof kMagic);
    putU32(buf, kFormatVersion);
    putU64(buf, fp);
    putU32(buf, static_cast<uint32_t>(bindings.size()));
    for (const WarmBinding &b : bindings) {
        putU32(buf, static_cast<uint32_t>(b.ii));
        putF64(buf, b.fu);
        putF64(buf, b.reg);
        putU32(buf, static_cast<uint32_t>(b.canonicalHops.size()));
        for (const auto &tab : b.canonicalHops) {
            buf.push_back(tab.empty() ? 0 : 1);
            if (tab.empty())
                continue;
            putU32(buf, static_cast<uint32_t>(tab.size()));
            for (int32_t v : tab)
                putI32(buf, v);
        }
        putU32(buf, static_cast<uint32_t>(b.costTables.size()));
        for (const auto &tab : b.costTables) {
            buf.push_back(tab.empty() ? 0 : 1);
            if (tab.empty())
                continue;
            putU32(buf, static_cast<uint32_t>(tab.size()));
            for (double v : tab)
                putF64(buf, v);
        }
    }
    putU64(buf, checksumOf(buf));

    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("arch cache: cannot write ", tmp);
            return false;
        }
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        if (!os) {
            warn("arch cache: short write to ", tmp);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("arch cache: cannot rename ", tmp, " -> ", path, ": ",
             ec.message());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

bool
ArchContext::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream raw;
    raw << is.rdbuf();
    const std::string buf = raw.str();

    // Header (magic, version, fingerprint) + trailing checksum.
    constexpr size_t kHeader = sizeof kMagic + 4 + 8 + 4;
    if (buf.size() < kHeader + 8)
        return false;
    const std::string body = buf.substr(0, buf.size() - 8);
    {
        Reader tail{buf, buf.size() - 8};
        if (tail.u64() != checksumOf(body))
            return false;
    }

    Reader r{body};
    char magic[4];
    if (!r.need(sizeof magic))
        return false;
    std::memcpy(magic, body.data(), sizeof magic);
    r.pos += sizeof magic;
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        return false;
    if (r.u32() != kFormatVersion)
        return false;
    if (r.u64() != fp)
        return false;

    const size_t pes = static_cast<size_t>(arch->numPes());
    const size_t per_layer =
        pes * (1 + static_cast<size_t>(arch->registersPerPe()));
    std::vector<WarmBinding> parsed;
    const uint32_t num_bindings = r.u32();
    for (uint32_t i = 0; i < num_bindings && r.ok; ++i) {
        WarmBinding b;
        b.ii = static_cast<int>(r.u32());
        b.fu = r.f64();
        b.reg = r.f64();
        if (!r.ok || b.ii < 1 || b.ii > arch->maxIi())
            return false;
        const size_t expected = per_layer * static_cast<size_t>(b.ii);
        const uint32_t hop_count = r.u32();
        if (!r.ok || hop_count != pes)
            return false;
        b.canonicalHops.resize(pes);
        for (uint32_t pe = 0; pe < hop_count; ++pe) {
            if (r.u8() == 0)
                continue;
            const uint32_t len = r.u32();
            if (!r.ok || len != expected || !r.need(size_t{len} * 4))
                return false;
            auto &tab = b.canonicalHops[pe];
            tab.resize(len);
            for (uint32_t k = 0; k < len; ++k)
                tab[k] = r.i32();
        }
        const uint32_t cost_count = r.u32();
        if (!r.ok || cost_count != pes)
            return false;
        b.costTables.resize(pes);
        for (uint32_t pe = 0; pe < cost_count; ++pe) {
            if (r.u8() == 0)
                continue;
            const uint32_t len = r.u32();
            if (!r.ok || len != expected || !r.need(size_t{len} * 8))
                return false;
            auto &tab = b.costTables[pe];
            tab.resize(len);
            for (uint32_t k = 0; k < len; ++k)
                tab[k] = r.f64();
        }
        parsed.push_back(std::move(b));
    }
    if (!r.ok || r.pos != body.size())
        return false;

    support::LockGuard lock(mu);
    warm = std::move(parsed);
    return true;
}

} // namespace lisa::arch
