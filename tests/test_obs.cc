/**
 * @file
 * Observability-layer suite: metric primitives are exact under
 * concurrency, snapshots taken mid-increment are sane, the JSONL
 * event log and span dumps emit well-formed JSON, a local model build
 * traced via PPM_TRACE_SAMPLE merges into a Chrome trace with the real
 * ppm_trace binary, and — the layer's hard invariant — enabling
 * logging and tracing perturbs no pipeline result bit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/adaptive.hh"
#include "core/model_builder.hh"
#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

extern char **environ;

namespace {

using namespace ppm;
using namespace ppm::obs;

// --- a minimal JSON validator ----------------------------------------
// Accepts exactly the JSON grammar; no extensions. Used to prove every
// emitted log line / trace file / stats rendering is machine-parsable.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control character
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i)
                        if (pos_ + i >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i])))
                            return false;
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        return pos_ > start;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string &s_;
    std::size_t pos_ = 0;
};

std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "ppm_obs_" + tag + "_" +
           std::to_string(::getpid()) + ".json";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// --- metric primitives ------------------------------------------------

TEST(ObsMetrics, CounterCountsExactly)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeTracksLevel)
{
    Gauge g;
    g.add(5);
    g.sub(7);
    EXPECT_EQ(g.value(), -2);
    g.set(100);
    EXPECT_EQ(g.value(), 100);
}

TEST(ObsMetrics, HistogramBucketBoundaries)
{
    // Bucket b spans (1us << (b-1), 1us << b]; bucket 0 starts at 0.
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1000), 0);
    EXPECT_EQ(Histogram::bucketIndex(1001), 1);
    EXPECT_EQ(Histogram::bucketIndex(2000), 1);
    EXPECT_EQ(Histogram::bucketIndex(2001), 2);
    for (int b = 0; b + 1 < Histogram::kBuckets; ++b) {
        const std::uint64_t upper = Histogram::bucketUpperNs(b);
        EXPECT_EQ(Histogram::bucketIndex(upper), b) << "bucket " << b;
        EXPECT_EQ(Histogram::bucketIndex(upper + 1), b + 1)
            << "bucket " << b;
    }
    // Far beyond the last bound lands in the unbounded tail bucket.
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}),
              Histogram::kBuckets - 1);
}

TEST(ObsMetrics, HistogramAggregatesExactly)
{
    Histogram h;
    h.observe(500);     // bucket 0
    h.observe(1500);    // bucket 1
    h.observe(1500);    // bucket 1
    h.observe(3000000); // ~3ms
    const Histogram::Data d = h.data();
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.total_ns, 500u + 1500 + 1500 + 3000000);
    EXPECT_EQ(d.buckets[0], 1u);
    EXPECT_EQ(d.buckets[1], 2u);
    std::uint64_t spread = 0;
    for (std::uint64_t b : d.buckets)
        spread += b;
    EXPECT_EQ(spread, 4u);
}

TEST(ObsMetrics, CounterExactUnderConcurrency)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add();
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kAdds);
}

TEST(ObsMetrics, SnapshotUnderConcurrentIncrement)
{
    // Writers hammer a counter and a histogram while the main thread
    // snapshots the registry. Every snapshot must be internally sane
    // (monotone counter, histogram count == bucket sum) even though
    // it races the writers.
    Registry &reg = Registry::instance();
    Counter &c = reg.counter("test.obs.race_counter");
    Histogram &h = reg.histogram("test.obs.race_hist");
    c.reset();
    h.reset();

    std::atomic<bool> stop{false};
    constexpr int kThreads = 4;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&] {
            std::uint64_t ns = 1;
            while (!stop.load(std::memory_order_relaxed)) {
                c.add();
                h.observe(ns);
                ns = ns * 2 + 1;
                if (ns > (std::uint64_t{1} << 40))
                    ns = 1;
            }
        });

    std::uint64_t prev_count = 0;
    for (int round = 0; round < 200; ++round) {
        const Snapshot snap = reg.snapshot();
        std::uint64_t count = 0;
        for (const auto &cv : snap.counters)
            if (cv.name == "test.obs.race_counter")
                count = cv.value;
        EXPECT_GE(count, prev_count);
        prev_count = count;
        for (const auto &hv : snap.histograms) {
            if (hv.name != "test.obs.race_hist")
                continue;
            std::uint64_t bucket_sum = 0;
            for (std::uint64_t b : hv.buckets)
                bucket_sum += b;
            // Shards are read in order, so the bucket sum can trail
            // or lead the count slightly but never wildly.
            EXPECT_LE(bucket_sum > hv.count ? bucket_sum - hv.count
                                            : hv.count - bucket_sum,
                      std::uint64_t{kThreads} * Histogram::kBuckets);
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &writer : writers)
        writer.join();

    const std::uint64_t final_count = c.value();
    const Histogram::Data d = h.data();
    EXPECT_EQ(d.count, final_count);
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t b : d.buckets)
        bucket_sum += b;
    EXPECT_EQ(bucket_sum, final_count);
}

TEST(ObsMetrics, RegistryHandlesAreStable)
{
    Registry &reg = Registry::instance();
    Counter &a = reg.counter("test.obs.stable");
    Counter &b = reg.counter("test.obs.stable");
    EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, MergeSumsByName)
{
    Snapshot a;
    a.counters = {{"x", 1}, {"y", 2}};
    a.gauges = {{"g", 5}};
    Snapshot b;
    b.counters = {{"y", 10}, {"z", 100}};
    b.gauges = {{"g", -2}};
    merge(a, b);
    ASSERT_EQ(a.counters.size(), 3u);
    EXPECT_EQ(a.counters[0].name, "x");
    EXPECT_EQ(a.counters[0].value, 1u);
    EXPECT_EQ(a.counters[1].name, "y");
    EXPECT_EQ(a.counters[1].value, 12u);
    EXPECT_EQ(a.counters[2].name, "z");
    EXPECT_EQ(a.counters[2].value, 100u);
    ASSERT_EQ(a.gauges.size(), 1u);
    EXPECT_EQ(a.gauges[0].value, 3);
}

TEST(ObsMetrics, DeltaSubtractsCountersClampedAtZero)
{
    Snapshot older;
    older.counters = {{"gone", 9}, {"grew", 10}, {"reset", 500}};
    Snapshot newer;
    newer.counters = {{"fresh", 7}, {"grew", 25}, {"reset", 40}};
    const Snapshot d = delta(newer, older);
    ASSERT_EQ(d.counters.size(), 3u);
    // Order follows `newer`; "gone" (only in older) is dropped.
    EXPECT_EQ(d.counters[0].name, "fresh");
    EXPECT_EQ(d.counters[0].value, 7u); // no baseline = started at 0
    EXPECT_EQ(d.counters[1].name, "grew");
    EXPECT_EQ(d.counters[1].value, 15u);
    // A server restart reset the counter below its old value: the
    // delta clamps to zero instead of wrapping to ~2^64.
    EXPECT_EQ(d.counters[2].name, "reset");
    EXPECT_EQ(d.counters[2].value, 0u);
}

TEST(ObsMetrics, DeltaKeepsGaugeLevels)
{
    Snapshot older;
    older.gauges = {{"depth", 12}};
    Snapshot newer;
    newer.gauges = {{"depth", 3}, {"new_level", -4}};
    const Snapshot d = delta(newer, older);
    // Gauges are levels, not accumulating totals: report the current
    // reading, never a difference.
    ASSERT_EQ(d.gauges.size(), 2u);
    EXPECT_EQ(d.gauges[0].value, 3);
    EXPECT_EQ(d.gauges[1].value, -4);
}

TEST(ObsMetrics, DeltaSubtractsHistogramsBucketwise)
{
    HistogramValue before;
    before.name = "lat";
    before.count = 10;
    before.total_ns = 1000;
    before.buckets = {4, 6, 0};
    HistogramValue after = before;
    after.count = 17;
    after.total_ns = 1800;
    after.buckets = {6, 10, 1};
    Snapshot older, newer;
    older.histograms = {before};
    newer.histograms = {after};
    const Snapshot d = delta(newer, older);
    ASSERT_EQ(d.histograms.size(), 1u);
    EXPECT_EQ(d.histograms[0].count, 7u);
    EXPECT_EQ(d.histograms[0].total_ns, 800u);
    const std::vector<std::uint64_t> want = {2, 4, 1};
    EXPECT_EQ(d.histograms[0].buckets, want);

    // Restarted source: every histogram field clamps independently.
    const Snapshot wrapped = delta(older, newer);
    EXPECT_EQ(wrapped.histograms[0].count, 0u);
    EXPECT_EQ(wrapped.histograms[0].total_ns, 0u);
    const std::vector<std::uint64_t> zeros = {0, 0, 0};
    EXPECT_EQ(wrapped.histograms[0].buckets, zeros);
}

TEST(ObsMetrics, DeltaOfLivePollsMatchesHandIncrements)
{
    // The exact scenario ppm_stats --watch runs: two snapshots of a
    // live registry with known traffic in between.
    Registry &reg = Registry::instance();
    Counter &c = reg.counter("test.obs.delta_live");
    Histogram &h = reg.histogram("test.obs.delta_live_hist");
    c.add(5);
    h.observe(1500);
    const Snapshot first = reg.snapshot();
    c.add(37);
    h.observe(1500);
    h.observe(900);
    const Snapshot d = delta(reg.snapshot(), first);
    std::uint64_t counter_delta = 0;
    for (const auto &cv : d.counters)
        if (cv.name == "test.obs.delta_live")
            counter_delta = cv.value;
    EXPECT_EQ(counter_delta, 37u);
    for (const auto &hv : d.histograms)
        if (hv.name == "test.obs.delta_live_hist") {
            EXPECT_EQ(hv.count, 2u);
            EXPECT_EQ(hv.total_ns, 2400u);
        }
}

TEST(ObsMetrics, QuantileFindsBucketUpperBound)
{
    HistogramValue hv;
    hv.buckets.assign(Histogram::kBuckets, 0);
    hv.buckets[2] = 50; // <= 4us
    hv.buckets[5] = 50; // <= 32us
    hv.count = 100;
    EXPECT_EQ(quantileNs(hv, 0.25), Histogram::bucketUpperNs(2));
    EXPECT_EQ(quantileNs(hv, 0.99), Histogram::bucketUpperNs(5));
    HistogramValue empty;
    EXPECT_EQ(quantileNs(empty, 0.5), 0u);
}

TEST(ObsMetrics, SnapshotJsonIsWellFormed)
{
    Registry &reg = Registry::instance();
    reg.counter("test.obs.json \"quoted\"\n").add(3);
    reg.gauge("test.obs.json_gauge").set(-7);
    reg.histogram("test.obs.json_hist").observe(12345);
    const std::string json = toJson(reg.snapshot());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    const std::string table = toTable(reg.snapshot());
    EXPECT_NE(table.find("test.obs.json_gauge"), std::string::npos);
}

// --- span macros ------------------------------------------------------

TEST(ObsSpan, SpanFeedsRegistryHistogram)
{
    Registry &reg = Registry::instance();
    reg.histogram("span.test.scope").reset();
    for (int i = 0; i < 3; ++i) {
        OBS_SPAN("test.scope");
    }
#ifndef PPM_OBS_DISABLED
    EXPECT_EQ(reg.histogram("span.test.scope").data().count, 3u);
#else
    EXPECT_EQ(reg.histogram("span.test.scope").data().count, 0u);
#endif
}

TEST(ObsSpan, CounterMacroFeedsRegistry)
{
    Registry::instance().counter("test.macro.count").reset();
    for (int i = 0; i < 5; ++i) {
        OBS_STATIC_COUNTER(hits, "test.macro.count");
        OBS_ADD(hits, 2);
    }
#ifndef PPM_OBS_DISABLED
    EXPECT_EQ(Registry::instance().counter("test.macro.count").value(),
              10u);
#endif
}

// --- event log --------------------------------------------------------

TEST(ObsEventLog, EmitsWellFormedJsonl)
{
    const std::string path = tempPath("log");
    EventLog log;
    log.configure(path, LogLevel::Debug);
    log.write(LogLevel::Info, "test", "kinds",
              {{"str", std::string("a \"b\"\n\x01")},
               {"int", -42},
               {"uint", std::uint64_t{1} << 63},
               {"float", 2.5},
               {"inf", std::numeric_limits<double>::infinity()},
               {"nan", std::nan("")},
               {"flag", true}});
    log.write(LogLevel::Error, "test", "plain", {});
    log.configure("", LogLevel::Info); // close

    std::ifstream in(path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
    }
    EXPECT_EQ(lines, 2);
    const std::string all = slurp(path);
    EXPECT_NE(all.find("\"comp\":\"test\""), std::string::npos);
    // Non-finite doubles must degrade to null, not break the JSON.
    EXPECT_NE(all.find("\"inf\":null"), std::string::npos);
    EXPECT_NE(all.find("\"nan\":null"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsEventLog, LevelFilterDropsBelowMinimum)
{
    const std::string path = tempPath("level");
    EventLog log;
    log.configure(path, LogLevel::Warn);
    EXPECT_FALSE(log.enabled(LogLevel::Info));
    EXPECT_TRUE(log.enabled(LogLevel::Error));
    if (log.enabled(LogLevel::Debug))
        log.write(LogLevel::Debug, "test", "dropped", {});
    log.write(LogLevel::Warn, "test", "kept", {});
    log.configure("", LogLevel::Info);
    const std::string all = slurp(path);
    EXPECT_EQ(all.find("dropped"), std::string::npos);
    EXPECT_NE(all.find("kept"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsEventLog, DisabledLogIsSilent)
{
    EventLog log;
    EXPECT_FALSE(log.enabled(LogLevel::Error));
    // Writing to an unconfigured log must be a harmless no-op.
    log.write(LogLevel::Error, "test", "nowhere", {});
}

// --- the zero-perturbation invariant ----------------------------------

double
response(const dspace::DesignPoint &p)
{
    using namespace ppm::dspace;
    return 0.5 + 25.0 / p[kRobSize] + 0.25 * p[kDl1Lat] +
        300.0 / (p[kL2SizeKB] + 400.0);
}

core::AdaptiveResult
runPipeline()
{
    core::FunctionOracle oracle(response);
    auto train = dspace::paperTrainSpace();
    auto test = dspace::paperTestSpace();
    core::AdaptiveSampler sampler(train, test, oracle);
    core::AdaptiveOptions opts;
    opts.initial_size = 20;
    opts.batch_size = 8;
    opts.max_samples = 36;
    opts.candidate_pool = 150;
    opts.num_test_points = 25;
    opts.lhs_candidates = 5;
    opts.trainer.p_min_grid = {1};
    opts.trainer.alpha_grid = {4};
    opts.target_mean_error = 0.0; // run every round
    opts.seed = 20240806;
    return sampler.build(opts);
}

void
expectBitIdentical(const core::AdaptiveResult &a,
                   const core::AdaptiveResult &b)
{
    ASSERT_EQ(a.sample.size(), b.sample.size());
    for (std::size_t i = 0; i < a.sample.size(); ++i)
        EXPECT_EQ(a.sample[i], b.sample[i]) << "sample " << i;
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].error.mean_error,
                  b.history[i].error.mean_error)
            << "round " << i;
        EXPECT_EQ(a.history[i].error.max_error,
                  b.history[i].error.max_error)
            << "round " << i;
    }
    // Trained networks must agree prediction-for-prediction.
    auto train = dspace::paperTrainSpace();
    math::Rng rng(7);
    for (int i = 0; i < 10; ++i) {
        const auto p = train.randomPoint(rng);
        EXPECT_EQ(a.model->predict(p), b.model->predict(p))
            << "probe " << i;
    }
}

/** Set PPM_TRACE_SAMPLE (nullptr unsets) and re-read the env. */
void
setTraceSampleEnv(const char *every)
{
    if (every == nullptr)
        unsetenv("PPM_TRACE_SAMPLE");
    else
        setenv("PPM_TRACE_SAMPLE", every, 1);
    reconfigureFromEnv();
}

TEST(ObsTraceEnv, UnsetOrEmptySampleVariableTurnsTracingOff)
{
    setTraceSampleEnv("4");
    EXPECT_EQ(traceSampleEvery(), 4u);
    setTraceSampleEnv(nullptr);
    EXPECT_EQ(traceSampleEvery(), 0u);
    EXPECT_FALSE(tracingEnabled());

    setTraceSampleEnv("4");
    setTraceSampleEnv("");
    EXPECT_EQ(traceSampleEvery(), 0u);
    setTraceSampleEnv(nullptr);
}

TEST(ObsZeroPerturbation, LoggingAndTracingChangeNoResultBit)
{
    // Baseline: observability sinks disabled.
    unsetenv("PPM_LOG");
    setTraceSampleEnv(nullptr);
    SpanBuffer::instance().clear();
    const core::AdaptiveResult off = runPipeline();

    // Hot run: JSONL log at debug level plus every trace root sampled.
    const std::string log_path = tempPath("zp_log");
    const std::string spans_path = tempPath("zp_spans");
    setenv("PPM_LOG", log_path.c_str(), 1);
    setenv("PPM_LOG_LEVEL", "debug", 1);
    setTraceSampleEnv("1");
    const core::AdaptiveResult on = runPipeline();

    // Sinks off again; dump the spans the hot run buffered.
    unsetenv("PPM_LOG");
    unsetenv("PPM_LOG_LEVEL");
    setTraceSampleEnv(nullptr);
    const bool dumped = SpanBuffer::instance().writeJsonl(spans_path);
    SpanBuffer::instance().clear();

    expectBitIdentical(off, on);

#ifndef PPM_OBS_DISABLED
    // The instrumented run must actually have produced output — a
    // silent no-op would make this test vacuous.
    const std::string log = slurp(log_path);
    EXPECT_FALSE(log.empty());
    std::istringstream lines(log);
    std::string line;
    while (std::getline(lines, line))
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ASSERT_TRUE(dumped);
    const std::string spans = slurp(spans_path);
    EXPECT_FALSE(spans.empty());
    std::istringstream span_lines(spans);
    while (std::getline(span_lines, line))
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
    EXPECT_NE(spans.find("\"adaptive.refit\""), std::string::npos);
#endif
    std::remove(log_path.c_str());
    std::remove(spans_path.c_str());
}

#ifndef PPM_OBS_DISABLED
TEST(ObsLocalTrace, PpmTraceMergesModelBuildSpans)
{
    // A local paper-loop run, traced without a rebuild: sample every
    // root, dump the SpanBuffer, merge the dump with ppm_trace --in.
    SpanBuffer::instance().clear();
    setTraceSampleEnv("1");
    {
        core::FunctionOracle oracle(response);
        core::ModelBuilder builder(dspace::paperTrainSpace(),
                                   dspace::paperTestSpace(), oracle);
        core::BuildOptions opts;
        opts.sample_sizes = {20};
        opts.lhs_candidates = 2;
        opts.num_test_points = 10;
        opts.trainer.p_min_grid = {1};
        opts.trainer.alpha_grid = {4};
        (void)builder.build(opts);
    }
    setTraceSampleEnv(nullptr);
    const std::string spans_path = tempPath("local_spans");
    const std::string trace_path = tempPath("local_trace");
    ASSERT_TRUE(SpanBuffer::instance().writeJsonl(spans_path));
    SpanBuffer::instance().clear();

    const char *argv[] = {PPM_TRACE_BIN, "--in", spans_path.c_str(),
                          "--out", trace_path.c_str(), nullptr};
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, argv[0], nullptr, nullptr,
                            const_cast<char *const *>(argv), environ),
              0);
    int status = -1;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "ppm_trace failed (status " << status << ")";

    const std::string doc = slurp(trace_path);
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    // The build's root span and the layers beneath it.
    EXPECT_NE(doc.find("\"model_builder.build\""), std::string::npos);
    EXPECT_NE(doc.find("\"rbf.grid_search\""), std::string::npos);
    std::remove(spans_path.c_str());
    std::remove(trace_path.c_str());
}
#endif

TEST(ObsZeroPerturbation, RepeatedRunsAreBitIdentical)
{
    const core::AdaptiveResult a = runPipeline();
    const core::AdaptiveResult b = runPipeline();
    expectBitIdentical(a, b);
}

} // namespace
