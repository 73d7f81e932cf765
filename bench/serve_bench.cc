/**
 * @file
 * serve_bench: load generator for the lisa-serve daemon.
 *
 * Boots an in-process MappingService + ServeServer on a private Unix
 * socket, then replays fig9a (PolyBench, 4x4 baseline CGRA) kernels
 * through real socket clients at configurable concurrency and hit-ratio
 * mixes. Two phases:
 *
 *  1. cold: every kernel once, serially — these are guaranteed misses
 *     (unless --cache warm-starts) and measure the cold-search latency
 *     that hitSpeedupP50 reports the hit p50 against;
 *  2. load: --requests requests from --concurrency connections. Each
 *     request is a repeat of a phase-1 kernel with probability
 *     --hit-ratio, otherwise a fresh synthetic DFG (dfg/generator.hh) no
 *     one has mapped before — a guaranteed miss.
 *
 * Reports one "serve_bench_phase" JSON line per phase and a final
 * "serve_bench" line on stdout:
 *
 *   {"event":"serve_bench","requests":N,"concurrency":C,
 *    "hitRatioTarget":R,"hitRate":H,"p50Ms":…,"p99Ms":…,
 *    "coldP50Ms":…,"hitP50Ms":…,"hitSpeedupP50":…,
 *    "requestsPerSec":…,"attemptsPerSec":…,"verifiedAll":true}
 *
 * attemptsPerSec is the att/s-equivalent throughput: the sum of the
 * `attempts` counters of every served response (a cache hit re-serves
 * the original search's attempts for the cost of a lookup) divided by
 * the load-phase wall clock.
 *
 * Flags: --requests N, --concurrency C, --hit-ratio R, --kernels a,b,c,
 * --budget SECONDS, --per-ii SECONDS, --seed S, --cache FILE,
 * --max-inflight N, plus the common --threads from initBench.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "arch/cgra.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "harness.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stopwatch.hh"
#include "verify/mapping_io.hh"

namespace {

using namespace lisa;

/** One blocking NDJSON client connection. */
class Client
{
  public:
    explicit Client(const std::string &socket_path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("serve_bench: socket: ", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, socket_path.c_str(),
                    socket_path.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            fatal("serve_bench: connect: ", std::strerror(errno));
    }

    ~Client()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line, block for the one response line. */
    std::string
    roundTrip(const std::string &line)
    {
        std::string out = line;
        out += '\n';
        size_t off = 0;
        while (off < out.size()) {
            const ssize_t w = ::send(fd, out.data() + off,
                                     out.size() - off, MSG_NOSIGNAL);
            if (w <= 0)
                fatal("serve_bench: send failed");
            off += static_cast<size_t>(w);
        }
        size_t nl = 0;
        while ((nl = pending.find('\n')) == std::string::npos) {
            char buf[1 << 14];
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0)
                fatal("serve_bench: connection closed mid-response");
            pending.append(buf, static_cast<size_t>(n));
        }
        std::string response = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        return response;
    }

  private:
    int fd = -1;
    std::string pending;
};

struct BenchFlags
{
    int requests = 64;
    int concurrency = 4;
    double hitRatio = 1.0;
    std::string kernels; // comma list; empty = full polybench suite
    double totalBudget = 6.0;
    double perIiBudget = 1.0;
    uint64_t seed = 1;
    std::string cacheFile;
    int maxInflight = 2;
};

std::string
mapRequestLine(const std::string &dfg_text, const std::string &accel_spec,
               const BenchFlags &flags)
{
    std::ostringstream os;
    os << "{\"op\":\"map\",\"dfg\":\"" << jsonEscape(dfg_text)
       << "\",\"accel\":\"" << jsonEscape(accel_spec)
       << "\",\"perIiBudget\":" << flags.perIiBudget
       << ",\"totalBudget\":" << flags.totalBudget
       << ",\"seed\":" << flags.seed << "}";
    return os.str();
}

/** Outcome of one timed request. */
struct Sample
{
    double ms = 0.0;
    bool ok = false;
    bool hit = false;
    bool verified = false;
    long attempts = 0;
};

Sample
timedRequest(Client &client, const std::string &line)
{
    Sample s;
    Stopwatch sw;
    const std::string response = client.roundTrip(line);
    s.ms = sw.millis();
    auto doc = jsonParse(response);
    if (!doc || !doc->isObject())
        return s;
    s.ok = doc->flag("ok");
    s.hit = doc->flag("cacheHit");
    s.verified = doc->flag("verified");
    s.attempts = static_cast<long>(doc->num("attempts"));
    return s;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    lisabench::initBench(argc, argv);

    BenchFlags flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("serve_bench: ", arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--requests")
            flags.requests = std::atoi(value());
        else if (arg == "--concurrency")
            flags.concurrency = std::atoi(value());
        else if (arg == "--hit-ratio")
            flags.hitRatio = std::atof(value());
        else if (arg == "--kernels")
            flags.kernels = value();
        else if (arg == "--budget")
            flags.totalBudget = std::atof(value());
        else if (arg == "--per-ii")
            flags.perIiBudget = std::atof(value());
        else if (arg == "--seed")
            flags.seed = static_cast<uint64_t>(std::atoll(value()));
        else if (arg == "--cache")
            flags.cacheFile = value();
        else if (arg == "--max-inflight")
            flags.maxInflight = std::atoi(value());
        else if (arg == "--threads")
            ++i; // consumed by initBench
    }
    flags.requests = std::max(1, flags.requests);
    flags.concurrency = std::max(1, flags.concurrency);
    flags.hitRatio = std::clamp(flags.hitRatio, 0.0, 1.0);

    // fig9a setting: PolyBench kernels on the 4x4 baseline CGRA.
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    const std::string accel_spec = verify::accelSpecOf(accel);
    std::vector<workloads::Workload> suite;
    if (flags.kernels.empty()) {
        suite = workloads::polybenchSuite();
    } else {
        std::istringstream names(flags.kernels);
        std::string name;
        while (std::getline(names, name, ','))
            if (!name.empty())
                suite.push_back(workloads::workloadByName(name));
    }
    if (suite.empty())
        fatal("serve_bench: no kernels selected");

    serve::ServeConfig cfg;
    cfg.cacheFile = flags.cacheFile;
    cfg.maxInflight = flags.maxInflight;
    serve::MappingService service(cfg);
    std::ostringstream sock;
    sock << "/tmp/lisa_serve_bench." << ::getpid() << ".sock";
    serve::ServeServer server(service, sock.str());
    std::string error;
    if (!server.start(&error))
        fatal("serve_bench: ", error);

    // Phase 1: cold pass — one request per kernel, serially. With no
    // warm cache these all run the full search; their latencies are the
    // baseline the hit path is measured against.
    std::vector<double> cold_ms;
    long cold_hits = 0;
    {
        Client client(sock.str());
        for (const auto &w : suite) {
            const Sample s = timedRequest(
                client,
                mapRequestLine(dfg::toText(w.dfg), accel_spec, flags));
            if (!s.ok)
                fatal("serve_bench: cold map of ", w.name, " failed");
            cold_ms.push_back(s.ms);
            cold_hits += s.hit ? 1 : 0;
        }
    }
    const double cold_p50 = percentile(cold_ms, 0.5);
    std::cout << "{\"event\":\"serve_bench_phase\",\"phase\":\"cold\""
              << ",\"kernels\":" << suite.size()
              << ",\"hits\":" << cold_hits << ",\"p50Ms\":" << cold_p50
              << ",\"p99Ms\":" << percentile(cold_ms, 0.99) << "}\n";

    // Phase 2: concurrent load at the requested hit-ratio mix.
    const int per_thread =
        (flags.requests + flags.concurrency - 1) / flags.concurrency;
    std::vector<std::vector<Sample>> results(
        static_cast<size_t>(flags.concurrency));
    Stopwatch load_wall;
    {
        std::vector<std::thread> clients;
        clients.reserve(static_cast<size_t>(flags.concurrency));
        for (int t = 0; t < flags.concurrency; ++t) {
            clients.emplace_back([&, t] {
                Client client(sock.str());
                Rng rng = Rng(flags.seed).split(
                    0x5e7feull + static_cast<uint64_t>(t));
                dfg::GeneratorConfig gen;
                auto &out = results[static_cast<size_t>(t)];
                for (int r = 0; r < per_thread; ++r) {
                    std::string text;
                    if (rng.uniform() < flags.hitRatio) {
                        const auto &w = suite[rng.index(suite.size())];
                        text = dfg::toText(w.dfg);
                    } else {
                        dfg::Dfg synth = dfg::generateRandomDfg(gen, rng);
                        text = dfg::toText(synth);
                    }
                    out.push_back(timedRequest(
                        client,
                        mapRequestLine(text, accel_spec, flags)));
                }
            });
        }
        for (auto &t : clients)
            t.join();
    }
    const double load_seconds = load_wall.seconds();
    server.stop();

    long ok = 0, hits = 0, verified = 0, attempts = 0;
    std::vector<double> all_ms, hit_ms;
    for (const auto &thread_samples : results) {
        for (const Sample &s : thread_samples) {
            all_ms.push_back(s.ms);
            ok += s.ok ? 1 : 0;
            verified += s.verified ? 1 : 0;
            attempts += s.attempts;
            if (s.hit) {
                ++hits;
                hit_ms.push_back(s.ms);
            }
        }
    }
    const long total = static_cast<long>(all_ms.size());
    const double hit_p50 = percentile(hit_ms, 0.5);
    const double speedup =
        hit_p50 > 0.0 ? cold_p50 / hit_p50 : 0.0;
    const serve::ServeStats stats = service.stats();

    std::cout << "{\"event\":\"serve_bench\",\"requests\":" << total
              << ",\"concurrency\":" << flags.concurrency
              << ",\"hitRatioTarget\":" << flags.hitRatio
              << ",\"ok\":" << ok << ",\"hitRate\":"
              << (total > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(total)
                            : 0.0)
              << ",\"p50Ms\":" << percentile(all_ms, 0.5)
              << ",\"p99Ms\":" << percentile(all_ms, 0.99)
              << ",\"coldP50Ms\":" << cold_p50
              << ",\"hitP50Ms\":" << hit_p50
              << ",\"hitSpeedupP50\":" << speedup
              << ",\"requestsPerSec\":"
              << (load_seconds > 0.0
                      ? static_cast<double>(total) / load_seconds
                      : 0.0)
              << ",\"attemptsPerSec\":"
              << (load_seconds > 0.0
                      ? static_cast<double>(attempts) / load_seconds
                      : 0.0)
              << ",\"verifiedAll\":"
              << (verified == ok ? "true" : "false")
              << ",\"stats\":" << stats.toJson() << "}\n";
    return 0;
}
