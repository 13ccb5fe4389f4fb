#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "core/evaluator.hh"
#include "core/model_builder.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "linreg/model_selection.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/remote_oracle.hh"
#include "serve/result_archive.hh"
#include "serve/sim_server.hh"
#include "sim/simulator.hh"
#include "train/online_trainer.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "util/thread_pool.hh"

namespace ppm::e2e {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/** The one SPEC-like profile every workload simulates. */
constexpr const char *kProfile = "twolf";

/**
 * Seed of the fixed data sets a model is fitted to and scored on.
 * They do not vary with --seed, so model_err_pct compares the same
 * fit on every run and the fit-dependent work (tree, grid search,
 * selected centers) costs the same; --seed drives the op inputs that
 * the cost does not depend on (query points, repeat choice, order).
 */
constexpr std::uint64_t kDataSeed = 1;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Exact (bitwise) double equality: the determinism contract. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Flip the lowest mantissa bit (the corrupted-reply self-test). */
double
flipLowBit(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::uint64_t
counter(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

/**
 * Simulated cycles behind @p cpis: every point of a context commits
 * the same @p instructions, so cycles = CPI x instructions exactly.
 */
std::uint64_t
cyclesSum(const std::vector<double> &cpis, std::uint64_t instructions)
{
    std::uint64_t cycles = 0;
    for (double cpi : cpis)
        cycles += static_cast<std::uint64_t>(
            std::llround(cpi * static_cast<double>(instructions)));
    return cycles;
}

/** Unit-space copies of @p points (trainer inputs). */
std::vector<dspace::UnitPoint>
toUnit(const dspace::DesignSpace &space,
       const std::vector<dspace::DesignPoint> &points)
{
    std::vector<dspace::UnitPoint> out;
    out.reserve(points.size());
    for (const auto &p : points)
        out.push_back(space.toUnit(p));
    return out;
}

/** Timed trace generation, recorded as trace.generate_ms. */
trace::Trace
generateTimed(LayerTimes &times, std::size_t length)
{
    const auto t0 = Clock::now();
    trace::Trace trace =
        trace::generateTrace(trace::profileByName(kProfile), length);
    times.add("trace.generate_ms", msSince(t0));
    return trace;
}

/**
 * Decorator that times every batched call into the oracle layer
 * (core.evaluate_ms) and keeps each answered point and value so the
 * driver can check them against direct simulation afterwards.
 */
class RecordingOracle final : public core::CpiOracle
{
  public:
    explicit RecordingOracle(core::CpiOracle &inner) : inner_(inner) {}

    double
    cpi(const dspace::DesignPoint &point) override
    {
        return evaluateAll({point}).front();
    }

    std::vector<double>
    evaluateAll(const std::vector<dspace::DesignPoint> &points) override
    {
        const auto t0 = Clock::now();
        std::vector<double> values = inner_.evaluateAll(points);
        evaluate_ms += msSince(t0);
        this->points.insert(this->points.end(), points.begin(),
                            points.end());
        this->values.insert(this->values.end(), values.begin(),
                            values.end());
        return values;
    }

    std::uint64_t evaluations() const override
    {
        return inner_.evaluations();
    }

    std::vector<dspace::DesignPoint> points;
    std::vector<double> values;
    double evaluate_ms = 0.0;

  private:
    core::CpiOracle &inner_;
};

// --- paper_loop ------------------------------------------------------

/**
 * One op = one ModelBuilder::build (n=200 LHS + 50 validation points)
 * against an in-process SimulatorOracle with a cold result cache.
 * Ops cycle through a fixed pool of kSeeds build seeds; --seed picks
 * which one comes first.
 */
class PaperLoop final : public Workload
{
  public:
    static constexpr std::size_t kTraceLength = 20000;
    static constexpr std::uint64_t kWarmup = 5000;
    static constexpr int kSampleSize = 200;
    static constexpr int kTestPoints = 50;
    static constexpr std::size_t kSeeds = 4;

    explicit PaperLoop(const Params &params)
        : params_(params), train_(dspace::paperTrainSpace()),
          test_(dspace::paperTestSpace())
    {
        sim_options_.warmup_instructions = kWarmup;
    }

    std::size_t period() const override { return kSeeds; }
    std::size_t traceLength() const override { return kTraceLength; }
    std::size_t windowOps() const override { return 1; }

    void
    setup() override
    {
        trace_ = std::make_unique<trace::Trace>(
            generateTimed(layer_times_, kTraceLength));
        // Spawn the pool's workers before the first timed op. Only the
        // first set-up does: in a repeat this empty dispatch would time
        // nothing but the cross-CPU wake-up of parked workers.
        if (!pool_started_) {
            util::parallelFor(util::globalPool().size(), [](std::size_t) {});
            pool_started_ = true;
        }
    }

    void teardown() override { trace_.reset(); }

    void
    prepare(std::size_t i) override
    {
        (void)i;
        // Cold, private table per op, allocated outside the timer.
        cache::CacheConfig config;
        config.key_words = train_.size() + 1;
        config.budget_bytes = 4u << 20;
        auto table = std::make_shared<cache::ResultCache>(config);
        oracle_ = std::make_unique<core::SimulatorOracle>(
            train_, *trace_, sim_options_);
        oracle_->attachSharedCache(std::move(table), 0);
        recorder_ = std::make_unique<RecordingOracle>(*oracle_);
    }

    OpOutcome
    op(std::size_t i) override
    {
        core::ModelBuilder builder(train_, test_, *recorder_);
        result_ = builder.build(buildOptions(i));
        phase_layer_ms_ += recorder_->evaluate_ms;
        return {result_.simulations, 1};
    }

    bool
    verify(std::size_t i, bool corrupt, Values &exact) override
    {
        const std::vector<double> &values = recorder_->values;
        const std::size_t n = values.size();
        bool ok = n == static_cast<std::size_t>(kSampleSize + kTestPoints);

        // The oracle's CPIs must be bit-identical to direct
        // simulation; two rotating points per op, timed as sim.point_ms.
        for (std::size_t k = 0; k < 2 && n > 0; ++k) {
            const std::size_t j = (i * 2 + k) * 7919 % n;
            const auto t0 = Clock::now();
            const sim::SimStats stats = sim::simulate(
                *trace_, train_, recorder_->points[j], sim_options_);
            layer_times_.add("sim.point_ms", msSince(t0));
            instructions_ = stats.instructions;
            const double served =
                corrupt && k == 0 ? flipLowBit(values[j]) : values[j];
            ok = ok && sameBits(served, stats.cpi());
        }

        // The sample must be the one sampling::bestLatinHypercube
        // draws for this seed; re-drawing it also times the layer.
        math::Rng rng(buildOptions(i).seed);
        rng.split(); // the builder's validation-set stream
        const auto t0 = Clock::now();
        const sampling::OptimizedSample sample =
            sampling::bestLatinHypercube(train_, kSampleSize,
                                         core::BuildOptions{}.lhs_candidates,
                                         rng);
        const double lhs_ms = msSince(t0);
        layer_times_.add("sampling.lhs_ms", lhs_ms);
        phase_layer_ms_ += lhs_ms;
        for (std::size_t k = 0; ok && k < sample.points.size(); ++k)
            ok = sample.points[k] ==
                 recorder_->points[static_cast<std::size_t>(kTestPoints) + k];

        layer_times_.add("core.evaluate_ms", recorder_->evaluate_ms);
        exact["sim.cycles_sum"] =
            static_cast<double>(cyclesSum(values, instructions_));
        exact["core.simulations"] = static_cast<double>(result_.simulations);
        exact["rbf.centers"] =
            static_cast<double>(result_.final().num_centers);
        exact["model_err_pct"] = result_.final().rbf_error.mean_error;
        if (i < kSeeds)
            errors_.push_back(result_.final().rbf_error.mean_error);
        return ok;
    }

    double
    modelErrPct() override
    {
        double sum = 0.0;
        for (double e : errors_)
            sum += e;
        return errors_.empty() ? 0.0
                               : sum / static_cast<double>(errors_.size());
    }

    double
    coveredMs(const obs::Snapshot &delta) const override
    {
        // Sampling (re-timed in verify) + oracle batches + training.
        return phase_layer_ms_ +
               histogramMs(delta, "span.rbf.grid_search");
    }

  private:
    core::BuildOptions
    buildOptions(std::size_t i) const
    {
        core::BuildOptions options;
        options.sample_sizes = {kSampleSize};
        options.target_mean_error = 0.0; // always build the full size
        options.num_test_points = kTestPoints;
        options.seed = kDataSeed + (params_.seed + i) % kSeeds;
        return options;
    }

    Params params_;
    dspace::DesignSpace train_;
    dspace::DesignSpace test_;
    sim::SimOptions sim_options_;
    std::unique_ptr<trace::Trace> trace_;
    std::unique_ptr<core::SimulatorOracle> oracle_;
    std::unique_ptr<RecordingOracle> recorder_;
    core::BuildResult result_;
    std::uint64_t instructions_ = 0;
    std::vector<double> errors_;
    bool pool_started_ = false;
};

// --- refit -----------------------------------------------------------

/**
 * One op = a fresh in-memory OnlineTrainer stepping through shard
 * archives (one per epoch of kEpochPoints records) until drained:
 * the incremental folds plus every growth-triggered full refit.
 * Set-up simulates a fixed LHS sample and writes it to the archives in
 * a --seed-shuffled order. The final refit sees the same points in
 * every order, so the drained model is the same for every seed.
 */
class Refit final : public Workload
{
  public:
    static constexpr std::size_t kTraceLength = 10000;
    static constexpr std::uint64_t kWarmup = 2500;
    static constexpr std::size_t kPoints = 128;
    static constexpr std::size_t kEpochPoints = 8;
    static constexpr int kTestPoints = 50;

    explicit Refit(const Params &params)
        : params_(params), train_(dspace::paperTrainSpace())
    {
        sim_options_.warmup_instructions = kWarmup;
        options_.benchmark = kProfile;
        options_.trace_length = kTraceLength;
        options_.warmup = kWarmup;
        options_.min_train_points = kEpochPoints;
    }

    std::size_t period() const override { return 1; }
    std::size_t traceLength() const override { return kTraceLength; }
    std::size_t windowOps() const override { return 1; }

    void
    setup() override
    {
        fs::create_directories(params_.run_dir);
        trace_ = std::make_unique<trace::Trace>(
            generateTimed(layer_times_, kTraceLength));
        math::Rng rng(kDataSeed);
        const auto t0 = Clock::now();
        points_ = sampling::bestLatinHypercube(
                      train_, static_cast<int>(kPoints), 10, rng)
                      .points;
        layer_times_.add("sampling.lhs_ms", msSince(t0));
        math::Rng order(params_.seed);
        order.shuffle(points_);

        // Serially, so the heap set-up leaves behind (the floor of
        // peak_rss_mb) does not depend on how pool threads interleave.
        core::SimulatorOracle oracle(train_, *trace_, sim_options_);
        const std::vector<double> values = oracle.cpiAll(points_);

        const std::string context =
            std::string(kProfile) + "|t" + std::to_string(kTraceLength) +
            "|w" + std::to_string(kWarmup) + "|" +
            core::metricName(core::Metric::Cpi);
        archives_.clear();
        for (std::size_t e = 0; e * kEpochPoints < kPoints; ++e) {
            const std::string path = params_.run_dir + "/epoch" +
                                     std::to_string(e) + ".ppma";
            fs::remove(path);
            serve::ResultArchive archive(path, context);
            for (std::size_t k = e * kEpochPoints;
                 k < std::min(kPoints, (e + 1) * kEpochPoints); ++k)
                archive.append(core::SimulatorOracle::cacheKey(points_[k]),
                               values[k]);
            archives_.push_back(path);
        }
        options_.out_path = params_.run_dir + "/refit.ppmm";
    }

    void
    teardown() override
    {
        trainer_.reset();
        fs::remove_all(params_.run_dir);
    }

    void
    prepare(std::size_t i) override
    {
        (void)i;
        fs::remove(options_.out_path);
        trainer_ = std::make_unique<train::OnlineTrainer>(train_, options_);
        // Publishing (an fsync'd snapshot write) happens in verify().
        trainer_->setArmed(false);
    }

    OpOutcome
    op(std::size_t i) override
    {
        (void)i;
        std::uint64_t folded = 0;
        for (const std::string &path : archives_) {
            trainer_->addArchive(path);
            folded += trainer_->step();
        }
        while (const std::size_t n = trainer_->step())
            folded += n;
        return {folded, 1};
    }

    bool
    verify(std::size_t i, bool corrupt, Values &exact) override
    {
        trainer_->setArmed(true);
        trainer_->step(); // publishes the drained model
        const serve::ModelSnapshot &snap = trainer_->lastPublished();
        // The published file must serve exactly what the trainer built.
        const std::vector<dspace::DesignPoint> probe = {
            points_[i % kPoints], points_[(i * 7 + 3) % kPoints]};
        std::vector<double> reloaded = serve::predictWithSnapshot(
            serve::loadSnapshot(options_.out_path), probe);
        if (corrupt)
            reloaded[0] = flipLowBit(reloaded[0]);
        const std::vector<double> built =
            serve::predictWithSnapshot(snap, probe);
        bool ok = trainer_->folds() == kPoints;
        for (std::size_t k = 0; ok && k < probe.size(); ++k)
            ok = sameBits(built[k], reloaded[k]);
        exact["rbf.centers"] = static_cast<double>(snap.network.numBases());
        if (i == 0)
            model_ = snap;
        return ok;
    }

    double
    modelErrPct() override
    {
        math::Rng rng(kDataSeed + 1);
        const std::vector<dspace::DesignPoint> test =
            sampling::randomTestSet(train_, kTestPoints, rng);
        core::SimulatorOracle oracle(train_, *trace_, sim_options_);
        return core::evaluatePredictions(
                   oracle.evaluateAll(test),
                   serve::predictWithSnapshot(model_, test))
            .mean_error;
    }

    double
    coveredMs(const obs::Snapshot &delta) const override
    {
        return histogramMs(delta, "span.train.step");
    }

  private:
    Params params_;
    dspace::DesignSpace train_;
    sim::SimOptions sim_options_;
    train::OnlineTrainerOptions options_;
    std::unique_ptr<trace::Trace> trace_;
    std::vector<std::string> archives_;
    std::vector<dspace::DesignPoint> points_;
    std::unique_ptr<train::OnlineTrainer> trainer_;
    serve::ModelSnapshot model_;
};

// --- shared by the two serve-path workloads --------------------------

/**
 * Two in-process shards on Unix sockets inside the run directory,
 * one request-serving worker each (part of the thread budget).
 */
class Shards
{
  public:
    void
    start(const Params &params, bool archive)
    {
        fs::create_directories(params.run_dir);
        for (int s = 0; s < 2; ++s) {
            serve::ServerOptions options;
            options.socket_path =
                params.run_dir + "/shard" + std::to_string(s) + ".sock";
            options.num_workers = kServerWorkers;
            options.cache_mb = 32;
            if (archive)
                options.archive_dir =
                    params.run_dir + "/archive" + std::to_string(s);
            servers_.push_back(
                std::make_unique<serve::SimServer>(std::move(options)));
            servers_.back()->start();
        }
    }

    void
    stop()
    {
        for (auto &server : servers_)
            server->stop();
        servers_.clear();
    }

    std::vector<std::string>
    sockets() const
    {
        std::vector<std::string> out;
        for (const auto &server : servers_)
            out.push_back(server->socketPath());
        return out;
    }

    std::vector<std::unique_ptr<serve::SimServer>> &servers()
    {
        return servers_;
    }

  private:
    static constexpr unsigned kServerWorkers = 1;

    std::vector<std::unique_ptr<serve::SimServer>> servers_;
};

serve::RemoteOptions
remoteOptions(const Params &params, const Shards &shards)
{
    serve::RemoteOptions options;
    options.sockets = shards.sockets();
    options.max_connections = params.max_connections;
    options.seed = params.seed;
    return options;
}

/** Failure signals an op raises outside its reply values. */
std::uint64_t
transportTrouble()
{
    return counter("remote.retries") + counter("remote.fallback_points") +
           counter("predict.fallback_points");
}

/** Dispatch lanes a batch of @p points can use (coverage denominator). */
unsigned
dispatchLanes(std::size_t points, const serve::RemoteOptions &options)
{
    const std::size_t chunks =
        (points + options.chunk_points - 1) / options.chunk_points;
    return static_cast<unsigned>(
        std::min<std::size_t>(chunks, options.max_connections));
}

// --- eval_mix --------------------------------------------------------

/**
 * One op = one EVAL batch through RemoteOracle to two shards. Ops
 * cycle with period 4: three all-hit batches of kHitBatch repeats of
 * answered points, then one batch of kMissBatch = 3 x kHitBatch
 * first-touch points (miss -> simulate -> insert -> archive append).
 * So half of all points hit, the share ModelBuilder campaigns through
 * RemoteOracle produced when measured (README.md), and, as in those
 * campaigns, every batch is all-hit or all-miss. op_p50_ms lies inside
 * the hit mode (75% of ops) and op_p99_ms inside the miss mode.
 * Chunk c of a batch goes to shard c % 2, so every point is placed in
 * a chunk bound for the shard that owns its cache entry. The first
 * kCalibration first-touch points (warm-up plus the first timed miss
 * batches) are a fixed random set; later ones come from --seed.
 */
class EvalMix final : public Workload
{
  public:
    static constexpr std::size_t kTraceLength = 2000;
    static constexpr std::uint64_t kWarmup = 500;
    /** Points per EVAL frame: RemoteOptions' default. */
    static constexpr std::size_t kChunk = 8;
    static constexpr std::size_t kHitBatch = 2 * kChunk;
    static constexpr std::size_t kMissBatch = 3 * kHitBatch;
    static constexpr std::size_t kPeriod = 4;
    static constexpr std::size_t kWarmupBatches = 2;
    /** Answered fresh points a model is fitted to / scored on. */
    static constexpr std::size_t kTrainPoints = 64;
    static constexpr std::size_t kTestPoints = 64;
    static constexpr std::size_t kCalibration = kTrainPoints + kTestPoints;

    explicit EvalMix(const Params &params)
        : params_(params), train_(dspace::paperTrainSpace())
    {
        sim_options_.warmup_instructions = kWarmup;
    }

    std::size_t period() const override { return kPeriod; }
    std::size_t traceLength() const override { return kTraceLength; }
    /** Ten cycles: the heap trim at a window start precedes 1 op in 40. */
    std::size_t windowOps() const override { return 10 * kPeriod; }
    bool tailRule() const override { return true; }

    void
    setup() override
    {
        trace_ = std::make_unique<trace::Trace>(
            generateTimed(layer_times_, kTraceLength));
        shards_.start(params_, true);
        options_ = remoteOptions(params_, shards_);
        options_.chunk_points = kChunk;
        oracle_ = std::make_unique<serve::RemoteOracle>(
            train_, kProfile, *trace_, sim_options_, core::Metric::Cpi,
            options_);
        reference_ = std::make_unique<core::SimulatorOracle>(
            train_, *trace_, sim_options_);
        rng_ = math::Rng(params_.seed);
        calibration_rng_ = math::Rng(kDataSeed);
        seen_.clear();
        points_.clear();
        values_.clear();
        for (auto &home : home_)
            home.clear();
        // Warm-up: first connections, server-side trace generation
        // and the first touch of each shard's cache arena.
        for (std::size_t b = 0; b < kWarmupBatches; ++b) {
            freshBatch();
            answer(oracle_->evaluateAll(batch_));
        }
        for (std::size_t b = 0; b < kWarmupBatches; ++b) {
            hitBatch();
            oracle_->evaluateAll(batch_);
        }
    }

    void
    teardown() override
    {
        oracle_.reset();
        shards_.stop();
        fs::remove_all(params_.run_dir);
    }

    void
    prepare(std::size_t i) override
    {
        if (isMissOp(i))
            freshBatch();
        else
            hitBatch();
        trouble_before_ = transportTrouble();
    }

    OpOutcome
    op(std::size_t i) override
    {
        (void)i;
        reply_ = oracle_->evaluateAll(batch_);
        return {batch_.size(), dispatchLanes(batch_.size(), options_)};
    }

    bool
    verify(std::size_t i, bool corrupt, Values &exact) override
    {
        (void)exact;
        if (reply_.size() != batch_.size() ||
            transportTrouble() != trouble_before_)
            return false;
        // One rotating first-touch point per miss batch is re-simulated
        // in-process; every point of a hit batch is checked.
        const std::size_t j = isMissOp(i) ? (i / kPeriod) % kMissBatch : 0;
        if (corrupt)
            reply_[j] = flipLowBit(reply_[j]);
        bool ok = true;
        if (isMissOp(i)) {
            // Replies must be bit-identical to in-process simulation.
            const auto t0 = Clock::now();
            const double expect = reference_->cpi(batch_[j]);
            layer_times_.add("sim.point_ms", msSince(t0));
            ok = sameBits(reply_[j], expect);
            // Fresh points differ every period, so their cycles repeat
            // only from run to run, not from slot to slot.
            if (ok && i < kPeriod)
                run_exact_["sim.cycles_sum"] = static_cast<double>(cyclesSum(
                    reply_, reference_->lastStats().instructions));
            if (ok)
                answer(reply_);
        } else {
            // Hits must return the value first served for the point.
            for (std::size_t k = 0; ok && k < kHitBatch; ++k)
                ok = sameBits(reply_[k], values_[hit_ids_[k]]);
        }
        return ok;
    }

    Values runExact() const override { return run_exact_; }

    double
    modelErrPct() override
    {
        // A model fitted to the first kTrainPoints answered first-touch
        // points, scored on the next kTestPoints: the Table 3 metric
        // over data that only ever crossed the serve path.
        if (values_.size() < kCalibration)
            throw std::runtime_error("eval_mix: too few answered points");
        const std::vector<dspace::DesignPoint> xs(
            points_.begin(), points_.begin() + kTrainPoints);
        const std::vector<double> ys(values_.begin(),
                                     values_.begin() + kTrainPoints);
        const core::RbfPerformanceModel model(
            train_, rbf::trainRbfModel(toUnit(train_, xs), ys, {}));
        const std::vector<dspace::DesignPoint> test(
            points_.begin() + kTrainPoints, points_.begin() + kCalibration);
        const std::vector<double> actual(values_.begin() + kTrainPoints,
                                         values_.begin() + kCalibration);
        return core::evaluateModel(model, test, actual).mean_error;
    }

    double
    coveredMs(const obs::Snapshot &delta) const override
    {
        return histogramMs(delta, "span.remote.chunk");
    }

  private:
    static bool isMissOp(std::size_t i) { return i % kPeriod == kPeriod - 1; }

    /** Never-seen points; chunk c's points belong to shard c % 2. */
    void
    freshBatch()
    {
        batch_.clear();
        math::Rng &rng =
            points_.size() < kCalibration ? calibration_rng_ : rng_;
        while (batch_.size() < kMissBatch) {
            dspace::DesignPoint p = train_.randomPoint(rng);
            if (seen_.insert(core::SimulatorOracle::cacheKey(p)).second)
                batch_.push_back(std::move(p));
        }
    }

    /** Repeats, each placed in a chunk bound for its shard. */
    void
    hitBatch()
    {
        batch_.clear();
        hit_ids_.clear();
        for (std::size_t k = 0; k < kHitBatch; ++k) {
            const auto &home = home_[(k / kChunk) % 2];
            const std::size_t id = home[rng_.uniformInt(home.size())];
            hit_ids_.push_back(id);
            batch_.push_back(points_[id]);
        }
    }

    /** Remember the answered fresh batch_ as future repeats. */
    void
    answer(const std::vector<double> &values)
    {
        for (std::size_t k = 0; k < batch_.size(); ++k) {
            home_[(k / kChunk) % 2].push_back(points_.size());
            points_.push_back(batch_[k]);
            values_.push_back(values[k]);
        }
    }

    Params params_;
    dspace::DesignSpace train_;
    sim::SimOptions sim_options_;
    std::unique_ptr<trace::Trace> trace_;
    Shards shards_;
    serve::RemoteOptions options_;
    std::unique_ptr<serve::RemoteOracle> oracle_;
    std::unique_ptr<core::SimulatorOracle> reference_;
    math::Rng rng_;
    math::Rng calibration_rng_;
    std::set<core::ResultStore::Key> seen_;
    /** Every answered first-touch point, in answer order. */
    std::vector<dspace::DesignPoint> points_;
    std::vector<double> values_;
    /** Indices into points_ whose cache entry lives on shard s. */
    std::vector<std::size_t> home_[2];
    std::vector<dspace::DesignPoint> batch_;
    std::vector<std::size_t> hit_ids_;
    std::vector<double> reply_;
    std::uint64_t trouble_before_ = 0;
    Values run_exact_;
};

// --- predict ---------------------------------------------------------

/**
 * One op = one PREDICT batch through PredictOracle to two shards
 * serving a snapshot trained in set-up. Batch sizes follow a fixed
 * 50-op cycle: 40 x 1, 9 x 16, 1 x 256, so op_p50_ms lies inside the
 * batch-1 mode (80% of ops) and op_p99_ms in the middle of the
 * batch-256 mode (top 2%).
 */
class Predict final : public Workload
{
  public:
    static constexpr std::size_t kTraceLength = 4000;
    static constexpr std::uint64_t kWarmup = 1000;
    static constexpr int kTrainPoints = 96;
    static constexpr int kTestPoints = 50;
    static constexpr std::size_t kPool = 4096;
    static constexpr std::size_t kPeriod = 50;
    /** Points per PREDICT frame (as BM_PredictServe). */
    static constexpr std::size_t kChunk = 64;

    explicit Predict(const Params &params)
        : params_(params), train_(dspace::paperTrainSpace())
    {
        sim_options_.warmup_instructions = kWarmup;
    }

    std::size_t period() const override { return kPeriod; }
    std::size_t traceLength() const override { return kTraceLength; }
    std::size_t windowOps() const override { return 10 * kPeriod; }
    bool tailRule() const override { return true; }

    void
    setup() override
    {
        trace_ = std::make_unique<trace::Trace>(
            generateTimed(layer_times_, kTraceLength));
        math::Rng data_rng(kDataSeed);
        const auto t0 = Clock::now();
        const std::vector<dspace::DesignPoint> xs =
            sampling::bestLatinHypercube(train_, kTrainPoints, 10, data_rng)
                .points;
        layer_times_.add("sampling.lhs_ms", msSince(t0));
        core::SimulatorOracle oracle(train_, *trace_, sim_options_);
        const std::vector<double> ys = oracle.evaluateAll(xs);

        const std::vector<dspace::UnitPoint> units = toUnit(train_, xs);
        const auto t1 = Clock::now();
        rbf::TrainedRbf trained = rbf::trainRbfModel(units, ys, {});
        layer_times_.add("rbf.train_ms", msSince(t1));
        serve::ModelSnapshot snap;
        snap.model_version = 1;
        snap.benchmark = kProfile;
        snap.trace_length = kTraceLength;
        snap.warmup = kWarmup;
        snap.train_points = static_cast<std::uint32_t>(xs.size());
        snap.p_min = static_cast<std::uint32_t>(trained.p_min);
        snap.alpha = trained.alpha;
        snap.space = train_;
        snap.network = std::move(trained.network);
        snap.linear = linreg::fitSelectedLinearModel(units, ys).model;
        const std::vector<std::uint8_t> bytes = serve::encodeSnapshot(snap);

        shards_.start(params_, false);
        for (auto &server : shards_.servers()) {
            // Decode compiles the network's BatchPlan; both are part
            // of installing a model.
            const auto t2 = Clock::now();
            server->modelHost().install(serve::decodeSnapshot(bytes),
                                        "e2ebench");
            layer_times_.add("model.install_ms", msSince(t2));
        }
        local_ = serve::decodeSnapshot(bytes);
        serve::RemoteOptions options = remoteOptions(params_, shards_);
        options.chunk_points = kChunk;
        oracle_ = std::make_unique<serve::PredictOracle>(local_, options);

        math::Rng rng(params_.seed);
        pool_.clear();
        for (std::size_t k = 0; k < kPool; ++k)
            pool_.push_back(train_.randomPoint(rng));
        next_ = 0;
        // Warm-up: one full cycle (first connections, first kernel
        // calls at every batch size).
        for (std::size_t i = 0; i < kPeriod; ++i) {
            prepare(i);
            oracle_->evaluateAll(batch_);
        }
    }

    void
    teardown() override
    {
        oracle_.reset();
        shards_.stop();
        fs::remove_all(params_.run_dir);
    }

    void
    prepare(std::size_t i) override
    {
        const std::size_t size = batchSize(i);
        batch_.clear();
        for (std::size_t k = 0; k < size; ++k) {
            batch_.push_back(pool_[next_]);
            next_ = (next_ + 1) % kPool;
        }
        trouble_before_ = transportTrouble();
    }

    OpOutcome
    op(std::size_t i) override
    {
        (void)i;
        reply_ = oracle_->evaluateAll(batch_);
        return {batch_.size(),
                dispatchLanes(batch_.size(), oracle_->options())};
    }

    bool
    verify(std::size_t i, bool corrupt, Values &exact) override
    {
        exact["rbf.centers"] =
            static_cast<double>(local_.network.numBases());
        bool ok = reply_.size() == batch_.size() &&
                  transportTrouble() == trouble_before_;
        if (corrupt)
            reply_[0] = flipLowBit(reply_[0]);
        // Every fourth cycle is compared in full with the in-process
        // reference path; it covers every batch size.
        if (ok && ((i / kPeriod) % 4 == 0 || corrupt)) {
            const std::vector<double> expect =
                serve::predictWithSnapshot(local_, batch_);
            for (std::size_t k = 0; ok && k < expect.size(); ++k)
                ok = sameBits(reply_[k], expect[k]);
        }
        return ok;
    }

    double
    modelErrPct() override
    {
        math::Rng rng(kDataSeed + 1);
        const std::vector<dspace::DesignPoint> test =
            sampling::randomTestSet(train_, kTestPoints, rng);
        core::SimulatorOracle oracle(train_, *trace_, sim_options_);
        return core::evaluatePredictions(
                   oracle.evaluateAll(test),
                   serve::predictWithSnapshot(local_, test))
            .mean_error;
    }

    double
    coveredMs(const obs::Snapshot &delta) const override
    {
        return histogramMs(delta, "span.remote.chunk");
    }

  private:
    static std::size_t
    batchSize(std::size_t i)
    {
        const std::size_t slot = i % kPeriod;
        if (slot == 0)
            return 256;
        return slot % 5 == 0 ? 16 : 1;
    }

    Params params_;
    dspace::DesignSpace train_;
    sim::SimOptions sim_options_;
    std::unique_ptr<trace::Trace> trace_;
    Shards shards_;
    serve::ModelSnapshot local_;
    std::unique_ptr<serve::PredictOracle> oracle_;
    std::vector<dspace::DesignPoint> pool_;
    std::size_t next_ = 0;
    std::vector<dspace::DesignPoint> batch_;
    std::vector<double> reply_;
    std::uint64_t trouble_before_ = 0;
};

} // namespace

double
histogramMs(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &h : snap.histograms)
        if (h.name == name)
            return static_cast<double>(h.total_ns) / 1e6;
    return 0.0;
}

std::uint64_t
histogramCount(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &h : snap.histograms)
        if (h.name == name)
            return h.count;
    return 0;
}

std::uint64_t
counterValue(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &c : snap.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Params &params)
{
    if (name == "paper_loop")
        return std::make_unique<PaperLoop>(params);
    if (name == "refit")
        return std::make_unique<Refit>(params);
    if (name == "eval_mix")
        return std::make_unique<EvalMix>(params);
    if (name == "predict")
        return std::make_unique<Predict>(params);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace ppm::e2e
