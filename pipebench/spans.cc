#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace pipebench
{

double
hostNow()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
SpanLog::record(Span span)
{
    span.run = run_;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, LayerTime>
SpanLog::selfTimes() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<int, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : all)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, LayerTime> out;
    for (const Span &s : all) {
        double covered = 0.0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curLo = 0.0, curHi = -1.0;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start);
                hi = std::min(hi, s.end);
                if (hi <= lo)
                    continue;
                if (lo > curHi) {
                    if (curHi > curLo)
                        covered += curHi - curLo;
                    curLo = lo;
                    curHi = hi;
                } else {
                    curHi = std::max(curHi, hi);
                }
            }
            if (curHi > curLo)
                covered += curHi - curLo;
        }
        LayerTime &lt = out[s.layer];
        ++lt.spans;
        lt.totalS += s.end - s.start;
        lt.selfS += std::max(0.0, (s.end - s.start) - covered);
    }
    return out;
}

void
SpanLog::writeJson(std::ostream &out, const std::string &hostJson) const
{
    char buf[64];
    out << "{\"host\": " << hostJson << ",\n \"self_time\": {";
    bool first = true;
    for (const auto &[layer, lt] : selfTimes()) {
        std::snprintf(buf, sizeof buf, "%.9g", lt.selfS);
        out << (first ? "\n  " : ",\n  ") << jsonQuote(layer)
            << ": {\"spans\": " << lt.spans << ", \"self_s\": " << buf;
        std::snprintf(buf, sizeof buf, "%.9g", lt.totalS);
        out << ", \"total_s\": " << buf << "}";
        first = false;
    }
    out << "},\n \"spans\": [";
    first = true;
    for (const Span &s : spans()) {
        out << (first ? "\n  " : ",\n  ") << "{\"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"run\": " << s.run
            << ", \"layer\": " << jsonQuote(s.layer)
            << ", \"name\": " << jsonQuote(s.name);
        std::snprintf(buf, sizeof buf, "%.9f", s.start);
        out << ", \"start\": " << buf;
        std::snprintf(buf, sizeof buf, "%.9f", s.end);
        out << ", \"end\": " << buf << "}";
        first = false;
    }
    out << "]}\n";
}

Phase::Phase(SpanLog &log, int parent, std::string layer, std::string name)
    : log_(log), id_(log.enabled() ? log.reserveId() : -1), parent_(parent),
      layer_(std::move(layer)), name_(std::move(name)), start_(hostNow())
{
}

double
Phase::stop()
{
    if (end_ < 0.0) {
        end_ = hostNow();
        if (log_.enabled())
            log_.record(Span{id_, parent_, 0, std::move(layer_),
                             std::move(name_), start_, end_});
    }
    return end_ - start_;
}

} // namespace pipebench
