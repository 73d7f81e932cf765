#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "stats.hh"
#include "support/json.hh"

namespace lisabench {

Tracer::Tracer() : epoch(std::chrono::steady_clock::now()) {}

double
Tracer::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mu);
    recorded.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::setprecision(12);
    for (const Span &s : spans()) {
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << ",\"name\":\""
           << lisa::jsonEscape(s.name) << "\",\"startMs\":" << s.startMs
           << ",\"endMs\":" << s.endMs << "}\n";
    }
    return static_cast<bool>(os);
}

SpanScope::SpanScope(Tracer &tracer, std::string name, long request,
                     long parent)
    : sink(tracer)
{
    span.name = std::move(name);
    span.id = sink.nextId();
    span.parent = parent;
    span.request = request;
    span.startMs = sink.nowMs();
}

SpanScope::~SpanScope()
{
    close();
}

double
SpanScope::close()
{
    if (open) {
        span.endMs = sink.nowMs();
        open = false;
        sink.record(span);
    }
    return span.durationMs();
}

std::map<long, double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::map<long, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<long, double> self;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> cover;
        for (const Span *c : children[s.id]) {
            const double lo = std::max(c->startMs, s.startMs);
            const double hi = std::min(c->endMs, s.endMs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double run_lo = 0.0, run_hi = 0.0;
        bool in_run = false;
        for (const auto &[lo, hi] : cover) {
            if (in_run && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (in_run)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            in_run = true;
        }
        if (in_run)
            covered += run_hi - run_lo;
        self[s.id] = s.durationMs() - covered;
    }
    return self;
}

std::map<std::string, std::vector<double>>
selfTimesByName(const std::vector<Span> &spans)
{
    const std::map<long, double> self = selfTimesMs(spans);
    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans)
        out[s.name].push_back(self.at(s.id));
    return out;
}

double
selfPercentile(const std::map<std::string, std::vector<double>> &by_name,
               const std::string &name, double pct)
{
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : percentile(it->second, pct);
}

} // namespace lisabench
