/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark opens a span around each call it makes into a layer's
 * public function: name, start, end, the span that caused it (parent)
 * and the request it belongs to. Spans stay in memory and are written
 * once, as JSON lines, when the run ends. A layer's self time is its
 * span's duration minus the part of that interval its child spans
 * cover.
 */

#ifndef LISABENCH_TRACE_HH
#define LISABENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lisabench {

/** One finished span. Times are milliseconds since the tracer's epoch. */
struct Span
{
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    long id = 0;
    /** Id of the enclosing span; 0 for a root span. */
    long parent = 0;
    /** Request the span belongs to (spans of one request share it). */
    long request = 0;

    double durationMs() const { return endMs - startMs; }
};

/** Thread-safe span sink. */
class Tracer
{
  public:
    Tracer();

    /** Milliseconds since construction. */
    double nowMs() const;

    /** Reserve a fresh span id (ids start at 1). */
    long nextId() { return ids.fetch_add(1) + 1; }

    void record(Span span);

    /** Snapshot of every recorded span, in recording order. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON object per line. @return false on
     *  I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch;
    std::atomic<long> ids{0};
    mutable std::mutex mu;
    std::vector<Span> recorded; ///< guarded by mu
};

/** RAII span: opens at construction, records at close() or scope exit. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::string name, long request,
              long parent = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    long id() const { return span.id; }

    /** Record the span now (idempotent). @return its duration, ms. */
    double close();

  private:
    Tracer &sink;
    Span span;
    bool open = true;
};

/** Self time of every span, keyed by span id. */
std::map<long, double> selfTimesMs(const std::vector<Span> &spans);

/** Self times grouped by span name, in recording order. */
std::map<std::string, std::vector<double>>
selfTimesByName(const std::vector<Span> &spans);

/** Percentile @p pct of @p name's self times in @p by_name; 0 when no
 *  span has that name. */
double selfPercentile(
    const std::map<std::string, std::vector<double>> &by_name,
    const std::string &name, double pct = 50.0);

} // namespace lisabench

#endif // LISABENCH_TRACE_HH
