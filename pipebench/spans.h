/**
 * @file
 * In-memory spans for the pipeline benchmark's traced run. A span is
 * recorded around each call the benchmark makes into a layer of the
 * program (name, layer, start, end, parent span, run id). Spans are
 * kept in memory and written out when the benchmark ends, together
 * with a per-layer self-time table.
 *
 * `Phase` doubles as the benchmark's stopwatch: it always reads the
 * clock (the untraced run needs phase durations for its end-to-end
 * metrics) and records a span only when the log is enabled.
 */

#ifndef URSA_PIPEBENCH_SPANS_H
#define URSA_PIPEBENCH_SPANS_H

#include <atomic>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pipebench
{

/** Host seconds since the first call in this process. */
double hostNow();

/** `s` as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

struct Span
{
    int id = 0;
    int parent = -1; ///< -1: root
    int run = 0;     ///< iteration index within the process
    std::string layer;
    std::string name;
    double start = 0.0; ///< host seconds (hostNow)
    double end = 0.0;
};

/** Per-layer aggregate of the spans of one log. */
struct LayerTime
{
    int spans = 0;
    double totalS = 0.0; ///< summed span durations
    double selfS = 0.0;  ///< durations minus the union of child spans
};

/** Thread-safe span store; disabled logs record nothing. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    void setRun(int run) { run_ = run; }

    /** A fresh span id (ids are unique within the log). */
    int reserveId() { return next_.fetch_add(1); }
    void record(Span span);

    /**
     * Self time per layer: a span's duration minus the part of its
     * interval that its children cover (children of one parent may run
     * in parallel, so their union is subtracted, not their sum).
     */
    std::map<std::string, LayerTime> selfTimes() const;

    /** Write spans and the self-time table as one JSON object. */
    void writeJson(std::ostream &out, const std::string &hostJson) const;

  private:
    std::vector<Span> spans() const;

    bool enabled_;
    int run_ = 0;
    std::atomic<int> next_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/**
 * Times one call into a layer. The elapsed time is always available;
 * the span is recorded (when the log is enabled) on destruction or on
 * an explicit stop().
 */
class Phase
{
  public:
    Phase(SpanLog &log, int parent, std::string layer, std::string name);
    ~Phase() { stop(); }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Span id, usable as the parent of nested phases. */
    int id() const { return id_; }
    /** End the phase (idempotent); returns its duration in seconds. */
    double stop();

  private:
    SpanLog &log_;
    int id_;
    int parent_;
    std::string layer_;
    std::string name_;
    double start_;
    double end_ = -1.0;
};

} // namespace pipebench

#endif // URSA_PIPEBENCH_SPANS_H
