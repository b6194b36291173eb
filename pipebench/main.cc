/**
 * @file
 * pipebench — the Ursa pipeline benchmark binary.
 *
 *   pipebench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--out DIR] [--source-id ID] [--corrupt-count]
 *
 * Runs the workload from its seed again and again until the next
 * iteration would overrun S seconds (at least twice), checks every
 * iteration's outputs, and prints one JSON result as its last line:
 * with --trace 0 the end-to-end metrics (medians over iterations), with
 * --trace 1 the per-layer metrics. A --trace 1 run alternates untraced
 * and traced iterations so the tracing overhead is measured in the same
 * process; its spans and per-layer self-time table go to
 * DIR/trace_<workload>_<seed>.json. --tiny is the self-test size;
 * --corrupt-count plants a wrong expected event count, which the
 * correctness check must catch. Exit status: 0 when every check
 * passed, 1 when one failed (the result is still printed), 2 on bad
 * usage.
 */

#include "pipeline.h"
#include "spans.h"

#include "check/check.h"
#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace pipebench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 2024;
    double seconds = 20.0;
    bool trace = false;
    bool tiny = false;
    bool corruptCount = false;
    std::string outDir = ".bench_out";
    std::string sourceId = "unknown";
};

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--tiny") {
            o.tiny = true;
        } else if (a == "--corrupt-count") {
            o.corruptCount = true;
        } else if (v == nullptr) {
            return false;
        } else {
            ++i;
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::strtoull(v, nullptr, 10);
            else if (a == "--seconds")
                o.seconds = std::atof(v);
            else if (a == "--trace")
                o.trace = std::string(v) == "1";
            else if (a == "--out")
                o.outDir = v;
            else if (a == "--source-id")
                o.sourceId = v;
            else
                return false;
        }
    }
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), o.workload) !=
               names.end() &&
           o.seconds > 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double
medianOf(const std::vector<IterationResult> &runs, F field)
{
    std::vector<double> v;
    for (const auto &r : runs)
        v.push_back(field(r));
    return median(v);
}

/**
 * Hand freed heap back to the kernel and reset its resident-set
 * high-water mark (VmHWM), so the next iteration's peak is its own and
 * it starts as cold as a fresh process.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/**
 * Resident-set high-water mark in MB: VmHWM since the last reset, or
 * getrusage's lifetime peak where /proc cannot be reset.
 */
double
peakRssMb(bool sinceReset)
{
    if (sinceReset) {
        std::ifstream in("/proc/self/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0; // kB
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostJson(const Options &o)
{
    char name[256] = {};
    gethostname(name, sizeof name - 1);
    const char *threadsEnv = std::getenv("URSA_THREADS");
    std::ostringstream s;
    s << "{\"host\": " << jsonQuote(name) << ", \"nproc\": "
      << sysconf(_SC_NPROCESSORS_ONLN) << ", \"ursa_threads_env\": "
      << jsonQuote(threadsEnv ? threadsEnv : "") << ", \"exec_threads\": "
      << ursa::exec::threadCount()
      << ", \"compiler\": " << jsonQuote(PIPEBENCH_COMPILER)
      << ", \"build_type\": " << jsonQuote(PIPEBENCH_BUILD_TYPE)
      << ", \"check_level\": " << URSA_CHECK_LEVEL
      << ", \"source\": " << jsonQuote(o.sourceId)
      << ", \"workload\": " << jsonQuote(o.workload) << ", \"seed\": " << o.seed
      << ", \"tiny\": " << (o.tiny ? "true" : "false") << "}";
    return s.str();
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** End-to-end metrics, medians over the untraced iterations. */
std::vector<Metric>
endToEnd(const std::vector<IterationResult> &runs)
{
    return {
        {"pipeline_s",
         medianOf(runs, [](auto &r) { return r.timings.pipelineS; }), "s"},
        {"setup_s", medianOf(runs, [](auto &r) { return r.timings.setupS; }),
         "s"},
        {"sim_x_realtime", medianOf(runs,
                                    [](auto &r) {
                                        return r.counts.managedSimS /
                                               r.timings.managedRunS;
                                    }),
         "sim-s/s"},
    };
}

/** Per-layer metrics: timings are medians over the traced iterations. */
std::vector<Metric>
perLayer(const std::vector<IterationResult> &traced,
         const std::vector<IterationResult> &untraced)
{
    const Counts &c = traced.front().counts;
    const TraceDetail &td = traced.front().trace;
    auto med = [&](auto field) { return medianOf(traced, field); };
    std::vector<double> solves;
    for (const auto &r : traced)
        solves.insert(solves.end(), r.timings.solveMs.begin(),
                      r.timings.solveMs.end());
    const double runS = med([](auto &r) { return r.timings.managedRunS; });
    const double exploreS = med([](auto &r) { return r.timings.exploreS; });
    const double svcSum = med([](auto &r) { return r.trace.serviceSSum; });
    const double pipeTraced =
        med([](auto &r) { return r.timings.pipelineS; });
    const double pipeUntraced =
        medianOf(untraced, [](auto &r) { return r.timings.pipelineS; });
    const char *sys[3] = {"sinan", "firm", "auto-b"};

    std::vector<Metric> m = {
        {"sla_violation_pct", c.slaViolationPct, "%"},
        {"cpu_cores", c.cpuCores, "cores"},
        {"req_miss_pct",
         c.measured ? 100.0 * static_cast<double>(c.missed) /
                          static_cast<double>(c.measured)
                    : 0.0,
         "%"},
        {"explore_sim_min", c.exploreSimMin, "sim-min"},
        {"peak_rss_mb",
         medianOf(untraced, [](auto &r) { return r.timings.peakRssMb; }),
         "MB"},
        {"sim.events", static_cast<double>(c.events), "count"},
        {"sim.requests", static_cast<double>(c.requests), "count"},
        {"workload.submitted", static_cast<double>(c.submitted), "count"},
        {"sim.run_s", runS, "s"},
        {"sim.ns_per_event",
         c.events ? runS * 1e9 / static_cast<double>(c.events) : 0.0, "ns"},
        {"sim.replicas_mean", c.replicasMean, "replicas"},
        {"apps.build_s", med([](auto &r) { return r.timings.appBuildS; }),
         "s"},
        {"core.explorer.s", exploreS, "s"},
        {"core.explorer.service_s_max",
         med([](auto &r) { return r.trace.serviceSMax; }), "s"},
        {"core.explorer.service_s_sum", svcSum, "s"},
        {"core.explorer.samples", static_cast<double>(c.samples), "count"},
        {"core.explorer.levels", static_cast<double>(c.levels), "count"},
        {"core.bp_profiler.s", med([](auto &r) { return r.trace.bpS; }),
         "s"},
        {"core.bp_profiler.steps", static_cast<double>(td.bpSteps), "count"},
        {"core.bp_profiler.unconverged",
         static_cast<double>(td.bpUnconverged), "count"},
        {"exec.explore_efficiency",
         exploreS > 0.0 ? svcSum / (exploreS * td.threads) : 0.0, "ratio"},
        {"core.mip_model.solve_ms", median(solves), "ms"},
        {"core.mip_model.solve_ms_max",
         solves.empty() ? 0.0
                        : *std::max_element(solves.begin(), solves.end()),
         "ms"},
        {"core.mip_model.solves", static_cast<double>(c.solves), "count"},
        {"core.mip_model.nodes", static_cast<double>(c.nodes), "count"},
        {"core.mip_model.capped", static_cast<double>(c.capped), "count"},
        {"core.mip_model.infeasible", static_cast<double>(c.infeasible),
         "count"},
        {"core.manager.recalcs", static_cast<double>(c.recalcs), "count"},
        {"core.manager.tick_us", med([](auto &r) { return r.timings.tickUs; }),
         "us"},
        {"core.manager.update_us",
         med([](auto &r) { return r.timings.updateUs; }), "us"},
        {"core.resource_controller.ticks",
         static_cast<double>(c.controllerTicks), "count"},
        {"core.resource_controller.replica_changes",
         static_cast<double>(c.replicaChanges), "count"},
        {"baselines.sinan.collect_s",
         med([](auto &r) { return r.timings.sinanCollectS; }), "s"},
        {"baselines.sinan.samples", static_cast<double>(c.sinanSamples),
         "count"},
        {"baselines.sinan.events", static_cast<double>(c.sinanEvents),
         "count"},
        {"ml.sinan_train_s",
         med([](auto &r) { return r.timings.sinanTrainS; }), "s"},
        {"baselines.firm.train_s",
         med([](auto &r) { return r.timings.firmTrainS; }), "s"},
        {"baselines.firm.steps", static_cast<double>(c.firmSteps), "count"},
        {"baselines.firm.events", static_cast<double>(c.firmEvents),
         "count"},
        {"ml.firm_step_us", med([](auto &r) { return r.timings.firmStepUs; }),
         "us"},
    };
    for (int b = 0; b < 3; ++b) {
        const std::string p = std::string("baselines.") + sys[b];
        m.push_back({p + ".decision_us", med([b](auto &r) {
                         return r.timings.baseDecisionUs[b];
                     }),
                     "us"});
        m.push_back({p + ".violation_pct", c.baseViolationPct[b], "%"});
        m.push_back({p + ".cpu_cores", c.baseCpuCores[b], "cores"});
    }
    m.push_back({"bench.trace_overhead_pct",
                 pipeUntraced > 0.0
                     ? 100.0 * (pipeTraced - pipeUntraced) / pipeUntraced
                     : 0.0,
                 "%"});
    return m;
}

void
printSelfTimes(const SpanLog &log)
{
    std::printf("# per-layer self time over the traced iterations\n");
    std::printf("# %-26s %6s %12s %12s\n", "layer", "spans", "self_s",
                "total_s");
    for (const auto &[layer, lt] : log.selfTimes())
        std::printf("# %-26s %6d %12.6f %12.6f\n", layer.c_str(), lt.spans,
                    lt.selfS, lt.totalS);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: pipebench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--tiny] [--out DIR] "
                     "[--source-id ID] [--corrupt-count]\n");
        return 2;
    }
    Scale scale;
    if (o.tiny) {
        scale.tiny = true;
        scale.sinanSamples = 8;
        scale.firmSteps = 4;
    }
    const std::string host = hostJson(o);
    std::printf("# host %s\n", host.c_str());
    std::printf("# scale sinan_samples=%d firm_steps=%d tiny=%d\n",
                scale.sinanSamples, scale.firmSteps, scale.tiny ? 1 : 0);

    SpanLog log(false);
    std::vector<IterationResult> untraced, traced;
    const double t0 = hostNow();
    double longest = 0.0;
    for (int iter = 0;; ++iter) {
        // At least two iterations (one of them traced under --trace 1),
        // then as many as fit in the time given.
        const bool enough = iter >= 2 && (!o.trace || !traced.empty());
        if (enough && (o.tiny || iter >= 64 ||
                       hostNow() - t0 + longest > o.seconds))
            break;
        const bool tr = o.trace && iter % 2 == 1;
        log.setEnabled(tr);
        log.setRun(iter);
        const bool rssReset = resetPeakRss();
        const double start = hostNow();
        IterationResult r = runIteration(o.workload, o.seed, scale, log);
        r.timings.peakRssMb = peakRssMb(rssReset);
        longest = std::max(longest, hostNow() - start);
        std::fprintf(stderr,
                     "[pipebench] %s seed %llu iter %d%s: %.3f s "
                     "(setup %.3f s, %llu events)\n",
                     o.workload.c_str(),
                     static_cast<unsigned long long>(o.seed), iter,
                     tr ? " traced" : "", r.timings.pipelineS,
                     r.timings.setupS,
                     static_cast<unsigned long long>(r.counts.events));
        (tr ? traced : untraced).push_back(std::move(r));
    }

    // Correctness: per-iteration checks, then counts that must repeat
    // bit for bit across iterations and between untraced and traced.
    std::vector<std::string> failures;
    Counts expected = untraced.front().counts;
    if (o.corruptCount)
        expected.events += 1;
    auto compare = [&](const std::vector<IterationResult> &runs,
                       const char *kind) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            for (const auto &f : runs[i].failures)
                failures.push_back(f);
            if (!(runs[i].counts == expected))
                failures.push_back(std::string(kind) + " iteration " +
                                   std::to_string(i) +
                                   ": counts differ from the reference");
        }
    };
    compare(untraced, "untraced");
    compare(traced, "traced");
    if (ursa::check::violationCount() != 0)
        failures.push_back("ursa::check reported invariant violations");
    for (const auto &f : failures)
        std::printf("# check failed: %s\n", f.c_str());
    const bool correct = failures.empty();

    const Counts &c = untraced.front().counts;
    const std::uint64_t attempted =
        c.submitted + static_cast<std::uint64_t>(c.solves);
    const std::uint64_t failed =
        correct ? static_cast<std::uint64_t>(c.capped + c.infeasible)
                : attempted;

    const std::vector<Metric> metrics =
        o.trace ? perLayer(traced, untraced) : endToEnd(untraced);
    if (o.trace) {
        printSelfTimes(log);
        std::error_code ec;
        std::filesystem::create_directories(o.outDir, ec);
        const std::string path = o.outDir + "/trace_" + o.workload + "_" +
                                 std::to_string(o.seed) + ".json";
        std::ofstream out(path);
        log.writeJson(out, host);
        std::printf("# spans written to %s\n", path.c_str());
    }
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << formatValue(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
