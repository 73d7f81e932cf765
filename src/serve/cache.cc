#include "serve/cache.hh"

#include <cstdio>

#include "support/fnv.hh"

namespace lisa::serve {

std::shared_ptr<const CacheEntry>
MappingCache::lookup(const CacheKey &key) const
{
    support::LockGuard lock(mu);
    const auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second;
}

// lint:cold-begin(mutation and persistence; the hot path is lookup() above)

void
MappingCache::insert(std::shared_ptr<const CacheEntry> entry)
{
    if (!entry)
        return;
    support::LockGuard lock(mu);
    entries[entry->key] = std::move(entry);
}

bool
MappingCache::erase(const CacheKey &key)
{
    support::LockGuard lock(mu);
    return entries.erase(key) > 0;
}

size_t
MappingCache::size() const
{
    support::LockGuard lock(mu);
    return entries.size();
}

namespace {

constexpr char kMagic[4] = {'L', 'S', 'R', 'V'};
constexpr uint32_t kVersion = 2;

void
putU32(std::string &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putStr(std::string &buf, const std::string &s)
{
    putU64(buf, s.size());
    buf += s;
}

/** Little-endian cursor over a loaded file; sets `bad` on overrun. */
struct Reader
{
    const std::string &buf;
    size_t pos = 0;
    bool bad = false;

    uint32_t
    u32()
    {
        if (pos + 4 > buf.size()) {
            bad = true;
            return 0;
        }
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
        if (pos + 8 > buf.size()) {
            bad = true;
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    std::string
    str()
    {
        const uint64_t n = u64();
        // n is attacker-shaped (file bytes): compare against the space
        // left rather than `pos + n`, which can wrap for huge n.
        if (bad || n > buf.size() - pos) {
            bad = true;
            return {};
        }
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double d = 0.0;
        static_assert(sizeof d == sizeof bits);
        __builtin_memcpy(&d, &bits, sizeof d);
        return d;
    }
};

uint64_t
doubleBits(double d)
{
    uint64_t bits = 0;
    __builtin_memcpy(&bits, &d, sizeof bits);
    return bits;
}

} // namespace

bool
MappingCache::save(const std::string &path) const
{
    std::string buf(kMagic, sizeof kMagic);
    putU32(buf, kVersion);
    {
        support::LockGuard lock(mu);
        putU64(buf, entries.size());
        for (const auto &[key, entry] : entries) {
            putU64(buf, key.dfgHash);
            putU64(buf, key.archFingerprint);
            putStr(buf, key.budgetKey);
            putU32(buf, static_cast<uint32_t>(entry->ii));
            putU32(buf, static_cast<uint32_t>(entry->mii));
            putU64(buf, static_cast<uint64_t>(entry->attempts));
            putU64(buf, doubleBits(entry->searchSeconds));
            putStr(buf, entry->winner);
            putU64(buf, entry->modelFingerprint);
            putStr(buf, entry->mappingText);
        }
    }
    putU64(buf, support::fnv1a(buf));

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    const bool flushed = std::fclose(f) == 0;
    if (!wrote || !flushed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
MappingCache::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string buf;
    char chunk[1 << 16];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.append(chunk, n);
    std::fclose(f);

    if (buf.size() < sizeof kMagic + 4 + 8 + 8)
        return false;
    if (buf.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0)
        return false;

    // The trailing checksum covers everything before it.
    const std::string payload = buf.substr(0, buf.size() - 8);
    Reader tail{buf, buf.size() - 8, false};
    if (tail.u64() != support::fnv1a(payload))
        return false;

    Reader r{payload, sizeof kMagic, false};
    if (r.u32() != kVersion)
        return false;
    const uint64_t count = r.u64();
    std::map<CacheKey, std::shared_ptr<const CacheEntry>> loaded;
    for (uint64_t i = 0; i < count; ++i) {
        auto entry = std::make_shared<CacheEntry>();
        entry->key.dfgHash = r.u64();
        entry->key.archFingerprint = r.u64();
        entry->key.budgetKey = r.str();
        entry->ii = static_cast<int>(r.u32());
        entry->mii = static_cast<int>(r.u32());
        entry->attempts = static_cast<long>(r.u64());
        entry->searchSeconds = r.f64();
        entry->winner = r.str();
        entry->modelFingerprint = r.u64();
        entry->mappingText = r.str();
        if (r.bad)
            return false;
        CacheKey key = entry->key;
        loaded[std::move(key)] = std::move(entry);
    }
    if (r.pos != payload.size())
        return false;

    support::LockGuard lock(mu);
    for (auto &[key, entry] : loaded)
        entries[key] = std::move(entry);
    return true;
}

// lint:cold-end

} // namespace lisa::serve
