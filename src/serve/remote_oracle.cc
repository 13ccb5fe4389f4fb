#include "serve/remote_oracle.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "serve/socket_io.hh"

namespace ppm::serve {

namespace {

/**
 * Run @p run(c) for every chunk index in [0, num_chunks) across
 * min(max_connections, num_chunks) dedicated threads (see the file
 * comment of remote_oracle.hh); thread t owns chunks t, t+T, t+2T,
 * ... so per-chunk output slots never overlap. With one thread runs
 * inline. Rethrows the first exception any chunk raised.
 */
template <typename Run>
void
forEachChunk(std::size_t max_connections, std::size_t num_chunks,
             const Run &run)
{
    const std::size_t num_threads =
        std::min(max_connections, num_chunks);
    if (num_threads <= 1) {
        for (std::size_t c = 0; c < num_chunks; ++c)
            run(c);
        return;
    }

    // The caller's trace context is re-installed in each thread so
    // chunk frames carry the request's trace id to the shards.
    const obs::TraceContext trace = obs::currentTraceContext();
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            obs::ScopedTraceContext trace_scope(trace);
            try {
                for (std::size_t c = t; c < num_chunks;
                     c += num_threads)
                    run(c);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace

std::vector<std::string>
socketsFromEnv()
{
    std::vector<std::string> sockets;
    const char *env = std::getenv(kSocketEnvVar);
    if (env == nullptr)
        return sockets;
    std::string value(env);
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        const std::string item = value.substr(start, comma - start);
        if (!item.empty())
            sockets.push_back(item);
        start = comma + 1;
    }
    return sockets;
}

RemoteOracle::RemoteOracle(Kind kind, RemoteOptions options)
    : kind_(kind), options_(std::move(options)),
      socket_dead_(options_.sockets.size())
{
    if (options_.chunk_points == 0)
        options_.chunk_points = 1;
    if (options_.max_connections == 0)
        options_.max_connections = 1;
    if (options_.max_attempts < 1)
        options_.max_attempts = 1;
    endpoints_.reserve(options_.sockets.size());
    for (const std::string &spec : options_.sockets)
        endpoints_.push_back(parseEndpoint(spec));
#ifndef PPM_OBS_DISABLED
    endpoint_metrics_.reserve(endpoints_.size());
    for (const Endpoint &ep : endpoints_) {
        const std::string prefix = "remote.ep." + ep.display();
        EndpointMetrics m;
        m.connects = &obs::Registry::instance().counter(
            prefix + ".connects");
        m.connect_failures = &obs::Registry::instance().counter(
            prefix + ".connect_failures");
        m.retries = &obs::Registry::instance().counter(
            prefix + ".retries");
        endpoint_metrics_.push_back(m);
    }
#endif
}

RemoteOracle::RemoteOracle(const dspace::DesignSpace &space,
                           std::string benchmark,
                           const trace::Trace &trace,
                           const sim::SimOptions &sim_options,
                           core::Metric metric, RemoteOptions options)
    : RemoteOracle(Kind::Eval, std::move(options))
{
    benchmark_ = std::move(benchmark);
    trace_ = &trace;
    sim_options_ = sim_options;
    metric_ = metric;
    fallback_.emplace(space, trace, sim_options, metric);
}

RemoteOracle::RemoteOracle(ModelSnapshot snapshot,
                           RemoteOptions options, ModelKind model)
    : RemoteOracle(Kind::Predict, std::move(options))
{
    snapshot_ = std::move(snapshot);
    model_ = model;
}

core::SimulatorOracle &
RemoteOracle::fallbackOracle()
{
    if (!fallback_)
        throw std::logic_error(
            "RemoteOracle: a PREDICT oracle has no fallback simulator");
    return *fallback_;
}

double
RemoteOracle::cpi(const dspace::DesignPoint &point)
{
    return evaluateAll({point}).front();
}

std::vector<std::uint8_t>
RemoteOracle::encodeChunk(
    std::span<const dspace::DesignPoint> part) const
{
    if (kind_ == Kind::Eval) {
        EvalRequest req;
        req.benchmark = benchmark_;
        req.metric = metric_;
        req.trace_length = trace_->size();
        req.warmup = sim_options_.warmup_instructions;
        req.seed = options_.seed;
        req.points.assign(part.begin(), part.end());
        return encodeEvalRequest(req);
    }
    PredictRequest req;
    req.model = model_;
    req.points.assign(part.begin(), part.end());
    return encodePredictRequest(req);
}

void
RemoteOracle::takeReply(const Frame &reply, std::span<double> out)
{
    // A well-framed reply carrying the wrong batch size is as suspect
    // as a corrupt one.
    const auto copyValues = [&](const std::vector<double> &values) {
        if (values.size() != out.size())
            throw ProtocolError("response batch size mismatch");
        std::copy(values.begin(), values.end(), out.begin());
    };
    if (kind_ == Kind::Eval) {
        if (reply.type != MsgType::EvalResponse)
            throw ProtocolError("unexpected reply type");
        const EvalResponse resp = parseEvalResponse(reply.payload);
        copyValues(resp.values);
        remote_fresh_.fetch_add(resp.fresh_evaluations,
                                std::memory_order_relaxed);
    } else {
        if (reply.type != MsgType::PredictResponse)
            throw ProtocolError("unexpected reply type");
        const PredictResponse resp = parsePredictResponse(reply.payload);
        copyValues(resp.values);
        // Track the newest version any shard reports; lets callers
        // notice a fleet that hot-swapped past them.
        std::uint64_t seen =
            server_version_.load(std::memory_order_relaxed);
        while (seen < resp.model_version &&
               !server_version_.compare_exchange_weak(
                   seen, resp.model_version, std::memory_order_relaxed))
            ;
    }
    remote_points_.fetch_add(out.size(), std::memory_order_relaxed);
    remote_chunks_.fetch_add(1, std::memory_order_relaxed);
}

bool
RemoteOracle::requestChunk(std::size_t endpoint_index,
                           std::span<const dspace::DesignPoint> part,
                           std::span<double> out)
{
    if (socket_dead_[endpoint_index].load(std::memory_order_relaxed))
        return false;
    const std::vector<std::uint8_t> request = encodeChunk(part);
    const Endpoint &endpoint = endpoints_[endpoint_index];
    const std::string socket = endpoint.display();

    OBS_SPAN("remote.chunk");
    OBS_STATIC_COUNTER(retries, "remote.retries");
    OBS_STATIC_COUNTER(backoff_sleeps, "remote.backoff_sleeps");
    int backoff_ms = options_.backoff_initial_ms;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
        if (attempt > 0) {
            OBS_ADD(retries, 1);
            OBS_ADD(backoff_sleeps, 1);
#ifndef PPM_OBS_DISABLED
            endpoint_metrics_[endpoint_index].retries->add(1);
#endif
            obs::logEvent(obs::LogLevel::Debug, "remote", "backoff",
                          {{"socket", socket},
                           {"attempt", attempt},
                           {"sleep_ms", std::min(backoff_ms,
                                                 options_.backoff_max_ms)}});
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(backoff_ms, options_.backoff_max_ms)));
            backoff_ms =
                nextBackoffMs(backoff_ms, options_.backoff_max_ms);
        }
        try {
            FdGuard fd = [&] {
                OBS_SPAN("remote.connect");
                try {
                    FdGuard conn = connectEndpoint(
                        endpoint, options_.connect_timeout_ms);
#ifndef PPM_OBS_DISABLED
                    endpoint_metrics_[endpoint_index].connects->add(1);
#endif
                    return conn;
                } catch (const IoError &) {
#ifndef PPM_OBS_DISABLED
                    endpoint_metrics_[endpoint_index]
                        .connect_failures->add(1);
#endif
                    throw;
                }
            }();
            writeFrame(fd.get(), request, options_.io_timeout_ms);
            const Frame reply =
                readFrame(fd.get(), options_.io_timeout_ms);
            if (reply.type == MsgType::Error) {
                // A semantic rejection (unknown benchmark, bad
                // dimensionality) will not improve with retries;
                // evaluate locally, where the same condition raises
                // a meaningful exception.
                break;
            }
            takeReply(reply, out);
            return true;
        } catch (const IoError &) {
            // Unreachable, reset, or timed out: retry with backoff.
        } catch (const ProtocolError &) {
            // Corrupt reply: the transport is suspect; retry too.
        }
    }
    socket_dead_[endpoint_index].store(true,
                                       std::memory_order_relaxed);
    OBS_STATIC_COUNTER(dead_latches, "remote.dead_latches");
    OBS_ADD(dead_latches, 1);
    obs::logEvent(obs::LogLevel::Warn, "remote", "socket_dead",
                  {{"socket", socket},
                   {"attempts", options_.max_attempts}});
    return false;
}

void
RemoteOracle::fallbackChunk(std::span<const dspace::DesignPoint> part,
                            std::span<double> out)
{
    // Each kind has its own span and counter sites: the statics
    // below register two distinct names, not one shared counter.
    if (kind_ == Kind::Eval) {
        // cpi() is thread-safe, so concurrent dispatch threads fan
        // the fallback simulations out naturally.
        OBS_SPAN("remote.fallback_chunk");
        for (std::size_t i = 0; i < part.size(); ++i)
            out[i] = fallback_->cpi(part[i]);
        OBS_STATIC_COUNTER(fallback_points, "remote.fallback_points");
        OBS_ADD(fallback_points, part.size());
    } else {
        OBS_SPAN("predict.fallback_chunk");
        const std::vector<double> local = predictWithSnapshot(
            snapshot_,
            std::vector<dspace::DesignPoint>(part.begin(), part.end()),
            model_);
        std::copy(local.begin(), local.end(), out.begin());
        OBS_STATIC_COUNTER(fallback_points, "predict.fallback_points");
        OBS_ADD(fallback_points, part.size());
    }
    fallback_points_.fetch_add(part.size(), std::memory_order_relaxed);
}

std::vector<double>
RemoteOracle::evaluateAll(
    const std::vector<dspace::DesignPoint> &points)
{
    const std::size_t n = points.size();
    std::vector<double> out(n);
    if (n == 0)
        return out;

    // Root of the distributed trace: when sampled, every chunk frame
    // (and thus every shard-side span) inherits this trace id.
    obs::TraceRoot trace_root(kind_ == Kind::Eval
                                  ? "remote.evaluate_all"
                                  : "predict.evaluate_all");

    const std::size_t chunk = options_.chunk_points;
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    const std::size_t num_sockets = endpoints_.size();

    // Chunk c covers points [c*chunk, min(n, (c+1)*chunk)) and is
    // pinned to socket c % num_sockets.
    const auto runChunk = [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t len = std::min(n - begin, chunk);
        const std::span<const dspace::DesignPoint> part(
            points.data() + begin, len);
        const std::span<double> slot(out.data() + begin, len);
        if (num_sockets > 0 && requestChunk(c % num_sockets, part, slot))
            return;
        fallbackChunk(part, slot);
    };
    forEachChunk(num_sockets > 0 ? options_.max_connections : 1,
                 num_chunks, runChunk);
    return out;
}

std::uint64_t
RemoteOracle::evaluations() const
{
    if (kind_ == Kind::Eval)
        return remote_fresh_.load(std::memory_order_relaxed) +
               fallback_->evaluations();
    return remote_points_.load(std::memory_order_relaxed) +
           fallback_points_.load(std::memory_order_relaxed);
}

} // namespace ppm::serve
