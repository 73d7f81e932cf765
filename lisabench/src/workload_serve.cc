/**
 * @file
 * The serve workloads: an in-process MappingService + ServeServer on a
 * run-private Unix socket, driven by two closed-loop client connections
 * at the "fast" budget class, with a worker pool of two threads.
 *
 *  - serve-hit: set-up warms the cache through the daemon, so every
 *    timed request is a verified hit. Requests cover the 12 PolyBench
 *    kernels and the 8 x2-unrolled variants, as-is or permuted. A traced
 *    request re-runs the hit path in-process, one public call at a time.
 *  - serve-mixed: a cold cache persisted to a run-private LSRV file;
 *    about 80% of requests repeat a PolyBench kernel, the rest are fresh
 *    random DFGs, so the miss path (admission, coalescing, the portfolio
 *    search, cache insert and save) runs alongside hits.
 */

#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "checks.hh"
#include "client.hh"
#include "dfg/canonical.hh"
#include "dfg/serialize.hh"
#include "requests.hh"
#include "serve/server.hh"
#include "stats.hh"
#include "support/fnv.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"
#include "workloads.hh"

namespace lisabench {

using namespace lisa;

namespace {

constexpr int kConnections = 2;
constexpr int kPoolThreads = 2;
constexpr int kMaxInflight = 2;
/** Percentile of the hit latency tail (thousands of samples). */
constexpr double kHitTailPct = 99.0;
/** Percentile of the miss latency tail (about a hundred misses). */
constexpr double kMissTailPct = 90.0;
/** serve-mixed inputs generated per connection (more than a run uses). */
constexpr size_t kMixedStreamCap = 1000;
/** Timed requests one client may send in a run (a full log is an
 *  error rather than a reallocation). */
constexpr size_t kMaxSentPerClient = size_t{1} << 20;
/** serve-mixed set-ups per run; setup_s reports their median. */
constexpr int kSetupRepeats = 9;

/** One timed request as its client saw it. */
struct Sent
{
    size_t input = 0;
    /** Send time, seconds since the load started. */
    double startS = 0.0;
    double ms = 0.0;
    /** Round trip plus any traced in-process probe work, seconds. */
    double busySeconds = 0.0;
    bool traced = false;
    uint64_t replyKey = 0;
};

/** Everything one client connection observed. */
struct ClientLog
{
    std::vector<Sent> sent;
    /** Distinct replies: key -> (input index, reply bytes). */
    std::map<uint64_t, std::pair<size_t, std::string>> replies;
    std::string error;
};

/**
 * Key of a reply for output checking: the request's DFG text plus the
 * reply bytes without the per-request "serviceMs" timing. Identical keys
 * mean identical answers to identical graphs, which are checked once.
 */
uint64_t
replyKey(const ServeRequest &request, const std::string &reply)
{
    support::Fnv1a h;
    h.u64(request.dfgHash);
    const std::string field = ",\"serviceMs\":";
    const size_t at = reply.find(field);
    if (at == std::string::npos) {
        h.str(reply);
        return h.h;
    }
    size_t end = at + field.size();
    while (end < reply.size() && reply[end] != ',' && reply[end] != '}')
        ++end;
    h.str(std::string_view(reply).substr(0, at));
    h.str(std::string_view(reply).substr(end));
    return h.h;
}

/** In-process daemon: the server is declared last, so it stops first. */
struct Daemon
{
    serve::MappingService service;
    serve::ServeServer server;

    Daemon(serve::ServeConfig config, const std::string &socket)
        : service(std::move(config)), server(service, socket)
    {
    }
};

/** Extra in-process work of a traced request (input, request, root). */
using Probe = std::function<void(size_t, long, long)>;

/**
 * One closed-loop client: send next()'s input, wait for the reply,
 * repeat until @p load passes @p seconds or next() runs dry. With
 * @p trace, every second request is traced: a root span around a
 * round-trip span and the @p probe work.
 */
void
runClient(const std::string &socket, const std::vector<ServeRequest> &inputs,
          const std::function<std::optional<size_t>()> &next,
          const Stopwatch &load, double seconds, bool trace, Tracer &tracer,
          long request_base, const Probe &probe, ClientLog &log)
{
    Client client;
    if (!client.connect(socket, log.error))
        return;
    // Reserved up front: a reallocation mid-run would show in peak RSS.
    log.sent.reserve(kMaxSentPerClient);
    std::string reply;
    for (long k = 0; load.seconds() < seconds; ++k) {
        const std::optional<size_t> input = next();
        if (!input)
            break;
        Sent s;
        s.input = *input;
        s.traced = trace && k % 2 == 1;
        s.startS = load.seconds();
        const std::string &line = inputs[*input].line;
        Stopwatch busy;
        bool ok = false;
        if (s.traced) {
            const long request = request_base + k;
            SpanScope root(tracer, "serve.request", request);
            SpanScope trip(tracer, "serve.roundtrip", request, root.id());
            ok = client.roundTrip(line, reply);
            s.ms = trip.close();
            if (ok && probe)
                probe(*input, request, root.id());
        } else {
            Stopwatch sw;
            ok = client.roundTrip(line, reply);
            s.ms = sw.millis();
        }
        s.busySeconds = busy.seconds();
        if (!ok) {
            log.error = "connection lost";
            return;
        }
        if (log.sent.size() == kMaxSentPerClient) {
            log.error = "request log full";
            return;
        }
        s.replyKey = replyKey(inputs[*input], reply);
        log.replies.try_emplace(s.replyKey, *input, reply);
        log.sent.push_back(s);
    }
}

/** Checked replies of every client, by reply key. */
std::map<uint64_t, ReplyCheck>
checkReplies(const std::vector<ClientLog> &logs,
             const std::vector<const std::vector<ServeRequest> *> &inputs,
             const std::string &accel_spec, RunReport &report)
{
    std::map<uint64_t, ReplyCheck> checks;
    for (size_t c = 0; c < logs.size(); ++c) {
        for (const auto &[key, entry] : logs[c].replies) {
            const ServeRequest &req = (*inputs[c])[entry.first];
            ReplyCheck check =
                checkReply(entry.second, req.dfgText, accel_spec);
            if (!check.correct) {
                report.correct = false;
                std::cerr << "lisabench: wrong reply for " << req.kernel
                          << ": " << check.error << "\n";
            } else if (!check.ok) {
                std::cerr << "lisabench: request for " << req.kernel
                          << " failed: " << check.error << "\n";
            }
            checks.emplace(key, std::move(check));
        }
    }
    return checks;
}

/** Count attempted / failed ops over every timed request. */
void
countOps(const std::vector<ClientLog> &logs,
         const std::map<uint64_t, ReplyCheck> &checks, RunReport &report)
{
    for (const ClientLog &log : logs) {
        for (const Sent &s : log.sent) {
            ++report.attempted;
            const ReplyCheck &c = checks.at(s.replyKey);
            if (!c.ok || !c.correct)
                ++report.failed;
        }
        if (!log.error.empty()) {
            // The request in flight when the connection failed.
            ++report.attempted;
            ++report.failed;
        }
    }
}

/** One row per timed request, for per-kernel analysis of a run. */
void
writeSamples(const RunEnv &env, const std::vector<ClientLog> &logs,
             const std::vector<const std::vector<ServeRequest> *> &inputs,
             const std::map<uint64_t, ReplyCheck> &checks)
{
    std::ostringstream rows;
    rows << "connection\tkernel\ttraced\tstart_s\tms\tcache_hit\tii\tmii\n";
    for (size_t c = 0; c < logs.size(); ++c) {
        for (const Sent &s : logs[c].sent) {
            const ReplyCheck &check = checks.at(s.replyKey);
            rows << c << '\t' << (*inputs[c])[s.input].kernel << '\t'
                 << s.traced << '\t' << s.startS << '\t' << s.ms << '\t'
                 << check.cacheHit << '\t' << check.ii << '\t' << check.mii
                 << '\n';
        }
    }
    env.writeSamples(rows.str());
}

bool
startDaemon(Daemon &daemon, std::string &error)
{
    if (!daemon.server.start(&error)) {
        error = "serve: " + error;
        return false;
    }
    return true;
}

/** The parts of a serve cache key that do not depend on the DFG: the
 *  fabric fingerprint and the fast budget class every request uses. */
struct KeyParts
{
    uint64_t fabric = 0;
    std::string budget;
};

KeyParts
keyParts()
{
    KeyParts k;
    k.fabric =
        arch::ArchContext(arch::CgraArch(arch::baselineCgra(4, 4)), "")
            .fingerprint();
    map::SearchOptions fast;
    fast.perIiBudget = kServePerIi;
    fast.totalBudget = kServeTotal;
    k.budget = map::budgetClassKey(fast);
    return k;
}

/**
 * Replay the hit path of request @p line in-process, one public call at
 * a time under spans that share @p request and the parent @p root:
 * decode, parse, canonicalize, cache lookup, verify-on-hit replay,
 * MappingService::map and encode. Stops after the lookup when the cache
 * holds no entry, so it never searches.
 */
void
tracedHitPath(Daemon &daemon, Tracer &tracer, const KeyParts &key,
              const std::string &line, long request, long root)
{
    serve::MapRequest req;
    std::string err;
    SpanScope decode_span(tracer, "serve.decode", request, root);
    const bool decoded = serve::decodeMapRequest(line, req, &err);
    decode_span.close();
    if (!decoded)
        return;
    SpanScope parse_span(tracer, "dfg.parse", request, root);
    auto parsed = dfg::fromText(req.dfgText, &err);
    parse_span.close();
    if (!parsed)
        return;
    SpanScope canon_span(tracer, "dfg.canonicalize", request, root);
    const dfg::CanonicalDfg canon = dfg::canonicalize(*parsed);
    canon_span.close();
    SpanScope lookup_span(tracer, "serve.lookup", request, root);
    auto entry = daemon.service.cache().lookup(
        serve::CacheKey{canon.hash, key.fabric, key.budget});
    lookup_span.close();
    if (!entry)
        return;
    SpanScope replay_span(tracer, "verify.replay", request, root);
    auto loaded = verify::mappingFromText(entry->mappingText, &err);
    if (loaded)
        verify::verifyMapping(*loaded->dfg, *loaded->mrrg, *loaded->mapping,
                              {});
    replay_span.close();
    SpanScope service_span(tracer, "serve.service", request, root);
    Stopwatch service_sw;
    const serve::MapOutcome outcome = daemon.service.map(req);
    const double service_ms = service_sw.millis();
    service_span.close();
    SpanScope encode_span(tracer, "serve.encode", request, root);
    serve::encodeMapResponse(outcome, service_ms);
}

/** The hit-path per-layer metrics, from the spans tracedHitPath and the
 *  traced round trips recorded; @p hit_ratio is the share of timed
 *  requests answered from the cache. */
void
reportHitPath(RunReport &report, const Tracer &tracer, double hit_ratio)
{
    const auto self = selfTimesByName(tracer.spans());
    report.set("serve.roundtrip_ms", selfPercentile(self, "serve.roundtrip"));
    report.set("serve.service_ms", selfPercentile(self, "serve.service"));
    report.set("serve.decode_ms", selfPercentile(self, "serve.decode"));
    report.set("dfg.parse_ms", selfPercentile(self, "dfg.parse"));
    report.set("dfg.canonicalize_ms", selfPercentile(self, "dfg.canonicalize"));
    report.set("dfg.canonicalize_p99_ms",
               selfPercentile(self, "dfg.canonicalize", 99.0));
    report.set("serve.lookup_us", selfPercentile(self, "serve.lookup") * 1e3);
    report.set("verify.replay_ms", selfPercentile(self, "verify.replay"));
    report.set("serve.encode_ms", selfPercentile(self, "serve.encode"));
    report.set("serve.hit_ratio", hit_ratio);
}

/** What the serve-mixed set-up builds: the client streams and a daemon
 *  started cold on a cache file that does not exist yet. */
struct MixedSetup
{
    std::vector<std::vector<ServeRequest>> streams;
    std::unique_ptr<Daemon> daemon;
};

/** Generate the serve-mixed client streams from the run's seed and start
 *  a cold daemon on the run-private LSRV path and socket. */
bool
setUpMixed(const RunEnv &env, MixedSetup &out, std::string &error)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    const std::string spec = verify::accelSpecOf(accel);
    for (int c = 0; c < kConnections; ++c)
        out.streams.push_back(
            mixedStream(env.options().seed, c, kMixedStreamCap, spec));
    serve::ServeConfig cfg;
    cfg.cacheFile = env.file("mixed.lsrv");
    cfg.maxInflight = kMaxInflight;
    out.daemon = std::make_unique<Daemon>(cfg, env.file("mixed.sock"));
    return startDaemon(*out.daemon, error);
}

} // namespace

bool
runServeHit(RunEnv &env, std::string &error)
{
    const RunOptions &opts = env.options();
    RunReport &report = env.report;
    env.provenance.loadThreads = kConnections;
    ThreadPool::setGlobalThreads(kPoolThreads);

    // ---- set-up --------------------------------------------------------
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    const std::string spec = verify::accelSpecOf(accel);
    const std::vector<ServeRequest> pool = hitPool(opts.seed, spec);

    serve::ServeConfig cfg;
    cfg.cacheFile = "";
    cfg.maxInflight = kMaxInflight;
    const std::string socket = env.file("hit.sock");
    Daemon daemon(cfg, socket);
    if (!startDaemon(daemon, error))
        return false;

    // Warm the cache through the daemon: every kernel's as-is variant,
    // split over the connections.
    std::vector<ServeRequest> warm_inputs = pool;
    for (ServeRequest &r : warm_inputs)
        r.line = mapRequestLine(r.dfgText, spec, opts.seed, kWarmPerIi);
    std::vector<ClientLog> warm(kConnections);
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                size_t input = static_cast<size_t>(c) * kHitVariants;
                auto next = [&]() -> std::optional<size_t> {
                    if (input >= pool.size())
                        return std::nullopt;
                    const size_t out = input;
                    input += kConnections * kHitVariants;
                    return out;
                };
                const Stopwatch unbounded;
                runClient(socket, warm_inputs, next, unbounded, 1e9, false,
                          env.tracer, 0, nullptr,
                          warm[static_cast<size_t>(c)]);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    {
        const std::vector<const std::vector<ServeRequest> *> inputs(
            kConnections, &pool);
        RunReport warm_report;
        const auto checks = checkReplies(warm, inputs, spec, warm_report);
        countOps(warm, checks, warm_report);
        if (!warm_report.correct)
            report.correct = false;
        if (warm_report.failed > 0 || !warm_report.correct) {
            error = "cache warm-up failed for " +
                    std::to_string(warm_report.failed) + " kernel(s)";
            return false;
        }
    }

    const KeyParts key = keyParts();
    const double setup_s = secondsSinceStart();

    Tracer &tracer = env.tracer;
    const Probe probe = [&](size_t input, long request, long root) {
        tracedHitPath(daemon, tracer, key, pool[input].line, request, root);
    };

    // ---- load ----------------------------------------------------------
    std::vector<ClientLog> logs(kConnections);
    Stopwatch load;
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                HitPicker picker(opts.seed, c, pool.size());
                auto next = [&]() -> std::optional<size_t> {
                    return picker.next();
                };
                runClient(socket, pool, next, load, opts.seconds,
                          opts.trace, tracer, (c + 1) * 10000000L,
                          opts.trace ? probe : nullptr,
                          logs[static_cast<size_t>(c)]);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    const double load_s = load.seconds();
    daemon.server.stop();

    // ---- checks and metrics -------------------------------------------
    const std::vector<const std::vector<ServeRequest> *> inputs(
        kConnections, &pool);
    const auto checks = checkReplies(logs, inputs, spec, report);
    countOps(logs, checks, report);
    writeSamples(env, logs, inputs, checks);

    GroupSamples untraced, traced;
    long non_hits = 0;
    for (const ClientLog &log : logs) {
        for (const Sent &s : log.sent) {
            const ReplyCheck &c = checks.at(s.replyKey);
            GroupSamples &g = s.traced ? traced : untraced;
            g.ms.push_back(s.ms);
            g.busySeconds.push_back(s.busySeconds);
            if (c.ok && c.correct)
                g.iiRatio.push_back(static_cast<double>(c.ii) / c.mii);
            non_hits += c.cacheHit ? 0 : 1;
        }
    }
    if (non_hits > 0)
        std::cerr << "lisabench: " << non_hits
                  << " serve-hit request(s) missed the cache\n";

    const double sent = static_cast<double>(untraced.ms.size() +
                                            traced.ms.size());
    if (opts.trace)
        reportHitPath(report, tracer,
                      ratio(sent - static_cast<double>(non_hits), sent));
    reportLoad(env, untraced, traced, kHitTailPct, kConnections,
               ratio(sent, load_s), setup_s);
    for (const ClientLog &log : logs)
        if (!log.error.empty())
            error = log.error;
    return error.empty();
}

bool
runServeMixed(RunEnv &env, std::string &error)
{
    const RunOptions &opts = env.options();
    RunReport &report = env.report;
    env.provenance.loadThreads = kConnections;
    ThreadPool::setGlobalThreads(kPoolThreads);

    // ---- set-up --------------------------------------------------------
    // Set-up is cheap here (input generation and a cold daemon start, about
    // 30 ms), so it runs kSetupRepeats times and setup_s takes the median;
    // the last daemon serves the load.
    const double before_setup = secondsSinceStart();
    std::vector<double> setups;
    MixedSetup mixed;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        mixed = MixedSetup{};
        Stopwatch sw;
        if (!setUpMixed(env, mixed, error))
            return false;
        setups.push_back(sw.seconds());
    }
    const double setup_s = before_setup + median(setups);
    const std::vector<std::vector<ServeRequest>> &streams = mixed.streams;
    Daemon &daemon = *mixed.daemon;
    const std::string socket = env.file("mixed.sock");
    const std::string spec =
        verify::accelSpecOf(arch::CgraArch(arch::baselineCgra(4, 4)));
    const KeyParts key = keyParts();

    // ---- load ----------------------------------------------------------
    std::vector<ClientLog> logs(kConnections);
    Stopwatch load;
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                const auto &stream = streams[static_cast<size_t>(c)];
                size_t input = 0;
                auto next = [&]() -> std::optional<size_t> {
                    if (input >= stream.size())
                        return std::nullopt;
                    return input++;
                };
                const Probe probe = [&](size_t in, long request, long root) {
                    tracedHitPath(daemon, env.tracer, key, stream[in].line,
                                  request, root);
                };
                runClient(socket, stream, next, load, opts.seconds,
                          opts.trace, env.tracer, (c + 1) * 10000000L,
                          opts.trace ? probe : nullptr,
                          logs[static_cast<size_t>(c)]);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    const double load_s = load.seconds();
    daemon.server.stop();
    const serve::ServeStats stats = daemon.service.stats();

    // ---- checks and metrics -------------------------------------------
    std::vector<const std::vector<ServeRequest> *> inputs;
    for (const auto &s : streams)
        inputs.push_back(&s);
    const auto checks = checkReplies(logs, inputs, spec, report);
    countOps(logs, checks, report);
    writeSamples(env, logs, inputs, checks);

    GroupSamples untraced, traced;
    std::vector<double> search_ms, wait_ms, hit_ms;
    std::map<std::string, double> wins;
    for (const ClientLog &log : logs) {
        for (const Sent &s : log.sent) {
            const ReplyCheck &c = checks.at(s.replyKey);
            if (!c.ok || !c.correct)
                continue;
            GroupSamples &g = s.traced ? traced : untraced;
            g.busySeconds.push_back(s.busySeconds);
            if (c.cacheHit) {
                hit_ms.push_back(s.ms);
                continue;
            }
            g.ms.push_back(s.ms);
            const double search = c.coalesced ? 0.0 : c.searchSeconds * 1e3;
            wait_ms.push_back(s.ms - search);
            if (c.coalesced)
                continue;
            search_ms.push_back(search);
            g.iiRatio.push_back(static_cast<double>(c.ii) / c.mii);
            wins[c.winner] += 1;
        }
    }

    if (opts.trace) {
        report.set("serve.search_ms", median(search_ms));
        report.set("serve.wait_ms", median(wait_ms));
        report.set("serve.searches", static_cast<double>(stats.searches));
        report.set("serve.coalesced", static_cast<double>(stats.coalesced));
        report.set("portfolio.wins_sa", wins["SA"]);
        report.set("portfolio.wins_ilp", wins["ILP*"]);
        report.set("portfolio.wins_evo", wins["EVO"]);
        std::vector<double> save_ms;
        for (int i = 0; i < 5; ++i) {
            SpanScope span(env.tracer, "serve.save", 0);
            daemon.service.cache().save(env.file("save_probe.lsrv"));
            save_ms.push_back(span.close());
        }
        report.set("serve.save_ms", median(save_ms));
        report.set("serve.cache_entries",
                   static_cast<double>(daemon.service.cache().size()));
        report.set("serve.hit_under_load_ms", median(hit_ms));
        const double hits = static_cast<double>(hit_ms.size());
        reportHitPath(report, env.tracer,
                      ratio(hits, hits + static_cast<double>(
                                             untraced.ms.size() +
                                             traced.ms.size())));
    }
    const double sent = static_cast<double>(report.attempted);
    reportLoad(env, untraced, traced, kMissTailPct, kConnections,
               ratio(sent, load_s), setup_s);
    for (const ClientLog &log : logs)
        if (!log.error.empty())
            error = log.error;
    return error.empty();
}

} // namespace lisabench
