#include "run_env.hh"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "support/json.hh"

extern char **environ;

namespace lisabench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ",\"" : "\"") + lisa::jsonEscape(items[i]) + "\"";
    return out + "]";
}

} // namespace

std::vector<std::string>
clearLisaEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("LISA_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    return names;
}

double
secondsSinceStart()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kProcessStart)
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

RunEnv::RunEnv(RunOptions options) : opts(std::move(options))
{
    std::ostringstream name;
    name << opts.workDir << "/runs/" << opts.workload << '-' << ::getpid();
    dir = name.str();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

RunEnv::~RunEnv()
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

std::string
RunEnv::file(const std::string &name) const
{
    return dir + "/" + name;
}

void
RunEnv::recordModelFingerprint(const std::string &fingerprint)
{
    provenance.modelFingerprint = fingerprint;
    const std::string ledger = opts.workDir + "/model_fingerprints.tsv";
    const std::string key = opts.sourceId + '\t' + opts.workload + '\t';
    bool seen = false;
    {
        std::ifstream in(ledger);
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind(key, 0) != 0)
                continue;
            seen = true;
            if (line.substr(key.size()) != fingerprint)
                provenance.comparable = false;
        }
    }
    if (!seen) {
        std::ofstream out(ledger, std::ios::app);
        out << key << fingerprint << '\n';
    }
}

void
RunEnv::writeSamples(const std::string &tsv) const
{
    const std::string samples = opts.workDir + "/samples";
    std::filesystem::create_directories(samples);
    std::ofstream out(samples + "/" + opts.workload + "-seed" +
                      std::to_string(opts.seed) + ".tsv");
    out << tsv;
}

std::string
RunEnv::provenanceJson() const
{
    std::ostringstream os;
    os << "{\"provenance\":{\"workload\":\"" << opts.workload
       << "\",\"seed\":" << opts.seed << ",\"seconds\":" << opts.seconds
       << ",\"trace\":" << (opts.trace ? "true" : "false")
       << ",\"commit\":\"" << lisa::jsonEscape(opts.commit)
       << "\",\"source_id\":\"" << lisa::jsonEscape(opts.sourceId)
       << "\",\"build_type\":\"" << LISABENCH_BUILD_TYPE
       << "\",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"load_threads\":" << provenance.loadThreads
       << ",\"latency_samples\":" << provenance.latencySamples
       << ",\"cleared_env\":" << jsonList(provenance.clearedEnv)
       << ",\"model_fingerprint\":\"" << provenance.modelFingerprint
       << "\",\"routability_model\":\"" << provenance.routabilityModel
       << "\",\"comparable\":" << (provenance.comparable ? "true" : "false")
       << "}}";
    return os.str();
}

} // namespace lisabench
