/**
 * @file
 * e2e_driver: runs one end-to-end workload in a closed loop and prints
 * its raw measurements as one JSON line. run.py turns them into the
 * benchmark's metrics; see README.md in this directory.
 *
 *   e2e_driver --workload NAME --seed N --seconds S --trace 0|1
 *              --run-dir DIR [--max-connections N] [--corrupt-op I]
 *
 * Exit codes: 0 ok, 2 usage, 3 exact-count mismatch (nondeterminism),
 * 4 any other error.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "workloads.hh"

namespace ppm::e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    Params params;
    double seconds = 10.0;
    bool trace = false;
    long corrupt_op = -1;
};

/** Thrown when an op does not repeat its period slot's exact counts. */
class ExactMismatch : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Registry counters whose per-op deltas must repeat exactly. */
const std::vector<std::pair<const char *, std::vector<const char *>>> &
exactCounters()
{
    static const std::vector<
        std::pair<const char *, std::vector<const char *>>>
        table = {
            {"sim.points", {"oracle.simulations"}},
            // A request that waits on an in-flight duplicate is a hit
            // whose hit-vs-wait split depends on scheduling.
            {"cache.hit", {"cache.hit", "cache.dedup_wait"}},
            {"cache.miss", {"cache.miss"}},
            {"cache.insert", {"cache.insert"}},
            {"cache.evict", {"cache.evict"}},
            {"pool.items", {"pool.items"}},
            {"archive.appends", {"archive.appends"}},
            {"serve.requests", {"serve.requests", "predict.requests"}},
            {"serve.points", {"serve.points", "predict.points"}},
            {"rbf.batch_calls", {"rbf.batch.calls"}},
            {"rbf.batch_points", {"rbf.batch.points"}},
            {"train.folds", {"train.folds"}},
            {"train.refits", {"train.refits"}},
            {"train.tail_records", {"train.tail.records"}},
        };
    return table;
}

/** Histograms whose per-op observation counts must repeat exactly. */
const std::vector<std::pair<const char *, const char *>> &
exactHistograms()
{
    static const std::vector<std::pair<const char *, const char *>>
        table = {
            {"rbf.grid_cells", "span.rbf.grid_cell"},
            {"serve.connects", "span.remote.connect"},
        };
    return table;
}

/** Period-slot values reported as a mean over the period, not a sum. */
bool
meanOverPeriod(const std::string &name)
{
    return name == "rbf.centers" || name == "model_err_pct";
}

Values
readExact()
{
    obs::Registry &reg = obs::Registry::instance();
    Values out;
    for (const auto &[name, sources] : exactCounters()) {
        double v = 0.0;
        for (const char *src : sources)
            v += static_cast<double>(reg.counter(src).value());
        out[name] = v;
    }
    for (const auto &[name, hist] : exactHistograms())
        out[name] = static_cast<double>(reg.histogram(hist).data().count);
    return out;
}

/**
 * Restart the process's peak-RSS counter (VmHWM) at its current RSS,
 * so each rate window reports its own peak. Free heap goes back to the
 * OS first, so the peak counts what the window's ops hold, not what
 * earlier ops left fragmented in the allocator's arenas.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM in MiB: the peak RSS since the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Phase
{
    bool traced = false;
    std::vector<double> op_ms;
    std::vector<std::uint64_t> points;
    std::vector<unsigned> lanes;
    /** Peak RSS within each whole window of windowOps() ops. */
    std::vector<double> window_rss_mb;
    std::uint64_t failed = 0;
    obs::Snapshot delta;
    double covered_ms = 0.0;
};

class Runner
{
  public:
    Runner(Workload &workload, const Options &options)
        : wl_(workload), options_(options)
    {
    }

    Phase
    runPhase(double seconds, bool traced)
    {
        Phase phase;
        phase.traced = traced;
        obs::setTraceSampleEvery(traced ? 1 : 0);
        wl_.resetPhase();
        const obs::Snapshot before = obs::Registry::instance().snapshot();
        const std::size_t period = wl_.period();
        // Enough ops that >= 10 lie beyond the p99 where it is reported.
        const std::size_t min_ops = wl_.tailRule() ? 1000 : 0;
        const std::size_t window = wl_.windowOps();
        const auto start = Clock::now();
        for (std::size_t periods = 1;; ++periods) {
            for (std::size_t k = 0; k < period; ++k) {
                if (phase.op_ms.size() % window == 0)
                    resetPeakRss();
                runOp(phase, traced);
                if (phase.op_ms.size() % window == 0)
                    phase.window_rss_mb.push_back(peakRssMb());
            }
            const double elapsed =
                std::chrono::duration<double>(Clock::now() - start).count();
            // Two whole periods at least, so every slot repeats once.
            if (elapsed >= seconds && periods >= 2 &&
                phase.op_ms.size() >= min_ops)
                break;
        }
        obs::setTraceSampleEvery(0);
        phase.delta =
            obs::delta(obs::Registry::instance().snapshot(), before);
        phase.covered_ms = wl_.coveredMs(phase.delta);
        return phase;
    }

    /** Sums (means, see meanOverPeriod) over the first period. */
    Values
    firstPeriod() const
    {
        Values out;
        for (const auto &[slot, values] : refs_)
            for (const auto &[name, v] : values)
                out[name] += v;
        for (auto &[name, v] : out)
            if (meanOverPeriod(name))
                v /= static_cast<double>(refs_.size());
        return out;
    }

  private:
    void
    runOp(Phase &phase, bool traced)
    {
        const std::size_t i = next_++;
        wl_.prepare(i);
        const Values before = readExact();
        bool ok = true;
        OpOutcome outcome;
        const auto t0 = Clock::now();
        try {
            if (traced) {
                obs::TraceRoot root("e2e.op");
                outcome = wl_.op(i);
            } else {
                outcome = wl_.op(i);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "e2e_driver: op %zu threw: %s\n", i,
                         e.what());
            ok = false;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        Values exact = readExact();
        for (auto &[name, v] : exact)
            v -= before.at(name);
        if (ok) {
            try {
                ok = wl_.verify(i, static_cast<long>(i) == options_.corrupt_op,
                                exact);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "e2e_driver: check of op %zu threw: %s\n",
                             i, e.what());
                ok = false;
            }
        }
        if (traced)
            obs::SpanBuffer::instance().clear();

        phase.op_ms.push_back(ms);
        phase.points.push_back(outcome.points);
        phase.lanes.push_back(outcome.lanes);
        if (!ok) {
            ++phase.failed;
            return;
        }
        const std::size_t slot = i % wl_.period();
        const auto [ref_it, first] = refs_.emplace(slot, exact);
        if (first)
            return;
        for (const auto &[name, v] : exact) {
            const double ref = ref_it->second.at(name);
            if (v != ref) {
                std::ostringstream msg;
                msg << "op " << i << " (period slot " << slot << "): "
                    << name << " = " << v << ", first run of the slot gave "
                    << ref;
                throw ExactMismatch(msg.str());
            }
        }
    }

    Workload &wl_;
    const Options &options_;
    std::size_t next_ = 0;
    /** Exact values of the first passing op of each period slot. */
    std::map<std::size_t, Values> refs_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sampleMedian(const Workload &wl, const std::string &name)
{
    const auto &samples = wl.layerTimes().samples;
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
}

/** Mean of histogram @p name in @p snap, in µs (0 when empty). */
double
meanUs(const obs::Snapshot &snap, const std::string &name)
{
    const std::uint64_t n = histogramCount(snap, name);
    return n ? histogramMs(snap, name) * 1e3 / static_cast<double>(n) : 0.0;
}

/** Per-layer metrics of a traced run (names as in BENCHMARK.json). */
Values
layerMetrics(const Workload &wl, const Phase &untraced, const Phase &traced,
             const Values &exact)
{
    const obs::Snapshot &d = traced.delta;
    const double ops = static_cast<double>(traced.op_ms.size());
    double lane_ms = 0.0;
    for (std::size_t k = 0; k < traced.op_ms.size(); ++k)
        lane_ms += traced.op_ms[k] * traced.lanes[k];
    auto ex = [&](const char *name) {
        const auto it = exact.find(name);
        return it == exact.end() ? 0.0 : it->second;
    };
    auto count = [&](const char *name) {
        return static_cast<double>(counterValue(d, name));
    };

    Values m;
    m["trace.generate_ms"] = sampleMedian(wl, "trace.generate_ms");
    m["sampling.lhs_ms"] = sampleMedian(wl, "sampling.lhs_ms");
    m["sim.point_ms"] = sampleMedian(wl, "sim.point_ms");
    m["sim.minstr_per_s"] =
        m["sim.point_ms"] > 0
            ? static_cast<double>(wl.traceLength()) / (m["sim.point_ms"] * 1e3)
            : 0.0;
    m["sim.points"] = ex("sim.points");
    m["sim.cycles_sum"] = ex("sim.cycles_sum");

    m["core.evaluate_ms"] = sampleMedian(wl, "core.evaluate_ms");
    m["core.simulations"] =
        exact.count("core.simulations") ? ex("core.simulations")
                                        : ex("sim.points");
    m["core.dedup_waits"] = count("cache.dedup_wait");
    m["pool.forEach_ms"] = histogramMs(d, "span.pool.forEach") / ops;
    m["pool.items"] = ex("pool.items");

    m["cache.hit"] = ex("cache.hit");
    m["cache.miss"] = ex("cache.miss");
    m["cache.insert"] = ex("cache.insert");
    m["cache.evict"] = ex("cache.evict");
    const double probes = m["cache.hit"] + m["cache.miss"];
    m["cache.hit_ratio"] = probes > 0 ? m["cache.hit"] / probes : 0.0;
    m["cache.lookup_us"] = meanUs(d, "span.cache.lookup");

    const double server_ms =
        histogramMs(d, "slo.eval") + histogramMs(d, "slo.predict");
    const std::uint64_t server_n =
        histogramCount(d, "slo.eval") + histogramCount(d, "slo.predict");
    const bool served = server_n > 0;
    m["serve.chunk_us"] = meanUs(d, "span.remote.chunk");
    m["serve.connects"] = ex("serve.connects");
    m["serve.retries"] = count("remote.retries");
    m["serve.fallback_points"] =
        count("remote.fallback_points") + count("predict.fallback_points");
    m["serve.client_wait_us"] =
        served ? (lane_ms - server_ms) * 1e3 / ops : 0.0;
    m["serve.request_us"] =
        served ? server_ms * 1e3 / static_cast<double>(server_n) : 0.0;
    m["serve.requests"] = ex("serve.requests");
    m["serve.points"] = ex("serve.points");

    m["archive.appends"] = ex("archive.appends");
    m["archive.append_us"] = meanUs(d, "span.archive.append");
    m["archive.preloaded"] = static_cast<double>(
        obs::Registry::instance().counter("archive.preloaded").value());
    m["model.install_ms"] = sampleMedian(wl, "model.install_ms");

    m["rbf.batch_calls"] = ex("rbf.batch_calls");
    m["rbf.batch_points"] = ex("rbf.batch_points");
    const double kernel_points = count("rbf.batch.points");
    m["rbf.kernel_ns_per_point"] =
        kernel_points > 0
            ? histogramMs(d, "span.rbf.batch") * 1e6 / kernel_points
            : 0.0;
    m["rbf.train_ms"] = histogramMs(d, "span.rbf.grid_search") / ops;
    m["rbf.grid_cells"] = ex("rbf.grid_cells");
    m["rbf.cell_ms"] = meanUs(d, "span.rbf.grid_cell") / 1e3;
    m["rbf.centers"] = ex("rbf.centers");

    const double step_ms = histogramMs(d, "span.train.step");
    const double refit_ms = histogramMs(d, "span.train.refit");
    const double folds = count("train.folds");
    const double refits = count("train.refits");
    m["train.step_ms"] = step_ms / ops;
    m["train.fold_us"] =
        folds > 0 ? (step_ms - refit_ms - histogramMs(d, "span.train.tail")) *
                        1e3 / folds
                  : 0.0;
    m["train.refit_ms"] = refits > 0 ? refit_ms / refits : 0.0;
    m["train.folds"] = ex("train.folds");
    m["train.refits"] = ex("train.refits");
    m["train.tail_records"] = ex("train.tail_records");

    m["run.trace_overhead_ms"] = median(traced.op_ms) - median(untraced.op_ms);
    m["run.coverage_pct"] = lane_ms > 0 ? 100.0 * traced.covered_ms / lane_ms
                                        : 0.0;
    return m;
}

// --- output ----------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite measurement");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T>
std::string
array(const std::vector<T> &values)
{
    std::string out = "[";
    for (std::size_t k = 0; k < values.size(); ++k) {
        if (k)
            out += ',';
        out += num(static_cast<double>(values[k]));
    }
    return out + "]";
}

std::string
object(const Values &values)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, v] : values) {
        out += (first ? "\"" : ",\"") + name + "\":" + num(v);
        first = false;
    }
    return out + "}";
}

std::string
phaseJson(const Phase &phase)
{
    return std::string("{\"traced\":") + (phase.traced ? "true" : "false") +
           ",\"failed\":" + num(static_cast<double>(phase.failed)) +
           ",\"op_ms\":" + array(phase.op_ms) +
           ",\"points\":" + array(phase.points) +
           ",\"lanes\":" + array(phase.lanes) +
           ",\"window_rss_mb\":" + array(phase.window_rss_mb) + "}";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2e_driver: %s\nusage: e2e_driver --workload NAME "
                 "--seed N --seconds S --trace 0|1 --run-dir DIR "
                 "[--max-connections N] [--corrupt-op I]\n",
                 why);
    return 2;
}

int
run(int argc, char **argv)
{
    Options options;
    for (int k = 1; k + 1 < argc; k += 2) {
        const std::string flag = argv[k];
        const char *value = argv[k + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.params.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::string(value) == "1";
        else if (flag == "--run-dir")
            options.params.run_dir = value;
        else if (flag == "--max-connections")
            options.params.max_connections =
                static_cast<unsigned>(std::strtoul(value, nullptr, 10));
        else if (flag == "--corrupt-op")
            options.corrupt_op = std::strtol(value, nullptr, 10);
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (options.workload.empty() || options.params.run_dir.empty() ||
        options.seconds <= 0)
        return usage("--workload, --run-dir and --seconds are required");

    std::unique_ptr<Workload> wl =
        makeWorkload(options.workload, options.params);

    // Set-up is repeated (each one torn down but the last) and
    // reported as a list; run.py takes the median. On a shared VM the
    // host's speed changes in stretches of 0.1-2 s, so repeats are
    // spaced by an untimed pause: back to back, 200 repeats of
    // paper_loop's 3 ms set-up fell into one stretch and their median
    // split into 2 ms and 3 ms modes from run to run.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    for (;;) {
        const auto t0 = Clock::now();
        wl->setup();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        setup_s.push_back(s);
        setup_total += s;
        const bool enough = setup_s.size() >= 11 ||
                            (setup_s.size() >= 5 && setup_total >= 2.0);
        if (enough)
            break;
        wl->teardown();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }

    Runner runner(*wl, options);
    std::vector<Phase> phases;
    if (options.trace) {
        phases.push_back(runner.runPhase(options.seconds / 2, false));
        phases.push_back(runner.runPhase(options.seconds / 2, true));
    } else {
        phases.push_back(runner.runPhase(options.seconds, false));
    }
    Values exact = runner.firstPeriod();
    for (const auto &[name, v] : wl->runExact())
        exact[name] = v;
    const double model_err = wl->modelErrPct();
    wl->teardown();

    std::string out = "{\"workload\":\"" + options.workload + "\"";
    out += ",\"setup_s\":" + array(setup_s);
    out += ",\"period\":" + num(static_cast<double>(wl->period()));
    out += ",\"window_ops\":" + num(static_cast<double>(wl->windowOps()));
    out += std::string(",\"tail_rule\":") + (wl->tailRule() ? "true" : "false");
    out += ",\"model_err_pct\":" + num(model_err);
    out += ",\"exact\":" + object(exact);
    if (options.trace)
        out += ",\"layers\":" +
               object(layerMetrics(*wl, phases[0], phases[1], exact));
    out += ",\"phases\":[";
    for (std::size_t k = 0; k < phases.size(); ++k)
        out += (k ? "," : "") + phaseJson(phases[k]);
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace
} // namespace ppm::e2e

int
main(int argc, char **argv)
{
    try {
        return ppm::e2e::run(argc, argv);
    } catch (const ppm::e2e::ExactMismatch &e) {
        std::fprintf(stderr, "e2e_driver: EXACT-COUNT MISMATCH: %s\n",
                     e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_driver: %s\n", e.what());
        return 4;
    }
}
