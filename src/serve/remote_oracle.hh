/**
 * @file
 * RemoteOracle: a CpiOracle that shards batches across one or more
 * SimServer processes over Unix-domain sockets, TCP endpoints, or any
 * mix of the two (see transport.hh for the endpoint grammar), with
 * per-request timeouts, bounded exponential-backoff retry, and
 * transparent in-process fallback when a server is unreachable — so
 * every caller of the CpiOracle interface works unchanged against a
 * remote backend.
 *
 * One class serves both request kinds of the serve plane; which one
 * is fixed by the constructor called:
 *
 *   EVAL     the servers simulate the points (EvalRequest); a chunk
 *            that cannot be served remotely is simulated by an
 *            in-process SimulatorOracle.
 *   PREDICT  the servers predict the points from their trained model
 *            snapshot (PredictRequest); a chunk that cannot be served
 *            remotely is predicted by predictWithSnapshot() on the
 *            oracle's own copy of the snapshot.
 *
 * The kind decides only how a chunk frame is encoded, how its reply
 * is checked, how a failed chunk falls back, and which counters move
 * (EVAL: remote.*; PREDICT: predict.* for its trace root and
 * fallback). Everything else is shared: endpoint parsing, the
 * retry/backoff schedule, the per-socket dead latch, per-endpoint
 * health counters (remote.ep.<spec>.*), the remote.chunk /
 * remote.connect spans, and the dispatch-thread fan-out.
 *
 * Determinism contract: results are returned in input order and are
 * bit-identical to local evaluation for every shard count, socket
 * list and failure pattern. EVAL: the cycle-level simulator is
 * deterministic in (trace, config, options) and the server
 * regenerates the identical trace from (benchmark, trace length).
 * PREDICT: the server evaluates the same snapshot bytes through the
 * same predictWithSnapshot() path as the fallback, provided it hosts
 * the snapshot version this oracle holds. Chunk c of a batch always
 * goes to socket c % sockets.size(); which chunks end up served
 * remotely versus locally can vary with failures, but never the
 * values.
 *
 * Dispatch deliberately uses dedicated threads, NOT the process-wide
 * util::ThreadPool: a chunk blocks on socket I/O, and parking blocked
 * work inside the pool could starve a same-process SimServer (tests,
 * benches) whose oracles need the pool to make progress.
 */

#ifndef PPM_SERVE_REMOTE_ORACLE_HH
#define PPM_SERVE_REMOTE_ORACLE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "obs/metrics.hh"
#include "serve/model_snapshot.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace ppm::serve {

/** Name of the environment variable naming server endpoints. */
inline constexpr const char *kSocketEnvVar = "PPM_SERVE_SOCKET";

/**
 * Endpoint specs from PPM_SERVE_SOCKET (comma-separated; empty when
 * unset). One running ppm_serve process per endpoint; Unix socket
 * paths and TCP host:port specs can be mixed freely.
 */
std::vector<std::string> socketsFromEnv();

/**
 * Next delay of a bounded exponential-backoff schedule: doubles
 * @p backoff_ms, saturating at @p backoff_max_ms. Saturation is
 * checked before the doubling, so the schedule can never overflow
 * however many attempts are configured.
 */
constexpr int
nextBackoffMs(int backoff_ms, int backoff_max_ms)
{
    return backoff_ms > backoff_max_ms / 2 ? backoff_max_ms
                                           : backoff_ms * 2;
}

struct RemoteOptions
{
    /**
     * Server endpoints (Unix paths and/or TCP host:port specs) to
     * shard across; chunk c goes to sockets[c % sockets.size()].
     * Empty = always evaluate locally.
     */
    std::vector<std::string> sockets;
    /** Per-connection-attempt timeout. */
    int connect_timeout_ms = 2'000;
    /** Per-request I/O timeout (covers the simulations themselves). */
    int io_timeout_ms = 120'000;
    /** Attempts per chunk before falling back locally (>= 1). */
    int max_attempts = 3;
    /** First retry delay; doubles per attempt up to backoff_max_ms. */
    int backoff_initial_ms = 25;
    int backoff_max_ms = 500;
    /** Points per request frame. */
    std::size_t chunk_points = 8;
    /** Concurrent in-flight requests (dispatch threads). */
    unsigned max_connections = 4;
    /** Base seed carried in requests (see protocol::EvalRequest). */
    std::uint64_t seed = 0;
};

class RemoteOracle final : public core::CpiOracle
{
  public:
    /**
     * An EVAL oracle: the servers simulate.
     *
     * @param space Design space of the points (paper layout).
     * @param benchmark Profile name; the server regenerates the trace
     *        from it, so it must name the same profile @p trace was
     *        generated from.
     * @param trace The local trace, used for fallback simulation and
     *        to derive the trace length sent to servers (must outlive
     *        the oracle).
     */
    RemoteOracle(const dspace::DesignSpace &space,
                 std::string benchmark, const trace::Trace &trace,
                 const sim::SimOptions &sim_options = {},
                 core::Metric metric = core::Metric::Cpi,
                 RemoteOptions options = {});

    /**
     * A PREDICT oracle: the servers predict from their model.
     *
     * @param snapshot The model to predict with; also the local
     *        fallback when no server (or no healthy server) is
     *        configured.
     * @param options Sharding/retry options; options.sockets empty =
     *        always predict locally.
     * @param model Which trained model family the oracle queries —
     *        the RBF network or the linear baseline.
     */
    explicit RemoteOracle(ModelSnapshot snapshot,
                          RemoteOptions options = {},
                          ModelKind model = ModelKind::Rbf);

    double cpi(const dspace::DesignPoint &point) override;
    std::vector<double> evaluateAll(
        const std::vector<dspace::DesignPoint> &points) override;

    /**
     * EVAL: fresh simulations attributable to this oracle —
     * server-reported fresh counts plus local fallback simulations.
     * Server counts are approximate when unrelated clients hit the
     * same server oracle concurrently.
     * PREDICT: total points predicted, remote and local alike.
     */
    std::uint64_t evaluations() const override;

    /** Points answered by servers so far. */
    std::uint64_t
    remotePoints() const
    {
        return remote_points_.load(std::memory_order_relaxed);
    }

    /** Request chunks successfully served remotely. */
    std::uint64_t
    remoteChunksServed() const
    {
        return remote_chunks_.load(std::memory_order_relaxed);
    }

    /** Points answered by the in-process fallback. */
    std::uint64_t
    fallbackPoints() const
    {
        return fallback_points_.load(std::memory_order_relaxed);
    }

    /**
     * PREDICT: greatest model version any server echoed so far (0 =
     * none seen). A value differing from the local snapshot's
     * model_version means a server hot-swapped past the local copy.
     * Always 0 for EVAL.
     */
    std::uint64_t
    serverVersion() const
    {
        return server_version_.load(std::memory_order_relaxed);
    }

    /**
     * EVAL: the in-process fallback oracle (e.g. to attach a
     * ResultArchive so even fallback simulations persist).
     * @throws std::logic_error on a PREDICT oracle.
     */
    core::SimulatorOracle &fallbackOracle();

    const RemoteOptions &options() const { return options_; }

  private:
    enum class Kind
    {
        Eval,
        Predict
    };

    /**
     * The kind-independent part of both constructors: normalize the
     * options (chunk_points, max_connections, max_attempts >= 1),
     * parse the endpoints and register their health counters.
     */
    RemoteOracle(Kind kind, RemoteOptions options);

    /** The request frame of one chunk, per kind. */
    std::vector<std::uint8_t> encodeChunk(
        std::span<const dspace::DesignPoint> part) const;

    /**
     * One chunk against its endpoint, with the full connect-timeout /
     * retry / backoff / dead-latch schedule; every attempt opens a
     * fresh connection. An Error reply aborts without further retries
     * (a semantic rejection will not improve); a reply takeReply()
     * rejects marks the transport suspect and retries.
     *
     * @return true when @p out holds the server's values for @p part;
     *         false when the endpoint is dead, all attempts failed
     *         (the endpoint is then latched dead), or the server
     *         replied Error — the caller falls back locally.
     */
    bool requestChunk(std::size_t endpoint_index,
                      std::span<const dspace::DesignPoint> part,
                      std::span<double> out);

    /**
     * Check a reply of this oracle's kind and, when it carries one
     * value per point of @p out, copy them there and count the chunk
     * as served.
     * @throws ProtocolError on a wrong type, a malformed payload, or
     *         a wrong batch size (nothing is written then).
     */
    void takeReply(const Frame &reply, std::span<double> out);

    /** Answer one chunk in-process, per kind. */
    void fallbackChunk(std::span<const dspace::DesignPoint> part,
                       std::span<double> out);

    const Kind kind_;
    RemoteOptions options_;

    // EVAL only.
    std::string benchmark_;
    const trace::Trace *trace_ = nullptr;
    sim::SimOptions sim_options_;
    core::Metric metric_ = core::Metric::Cpi;
    std::optional<core::SimulatorOracle> fallback_;

    // PREDICT only.
    ModelSnapshot snapshot_;
    ModelKind model_ = ModelKind::Rbf;

    /** Parsed options_.sockets, one per shard slot. */
    std::vector<Endpoint> endpoints_;

    /**
     * Per-endpoint registry counters, named
     * remote.ep.<spec>.{connects,connect_failures,retries}, so
     * ppm_stats (and the merged multi-client view) can tell a flaky
     * shard from a healthy one. Empty when obs is compiled out.
     */
    struct EndpointMetrics
    {
        obs::Counter *connects = nullptr;
        obs::Counter *connect_failures = nullptr;
        obs::Counter *retries = nullptr;
    };
    std::vector<EndpointMetrics> endpoint_metrics_;

    /**
     * Latched per-socket failure flags: once a socket exhausts its
     * retries it is not attempted again for the oracle's lifetime, so
     * a killed server degrades to local evaluation instead of paying
     * the full retry schedule on every remaining chunk.
     */
    std::vector<std::atomic<bool>> socket_dead_;

    std::atomic<std::uint64_t> remote_fresh_{0};
    std::atomic<std::uint64_t> remote_points_{0};
    std::atomic<std::uint64_t> remote_chunks_{0};
    std::atomic<std::uint64_t> fallback_points_{0};
    std::atomic<std::uint64_t> server_version_{0};
};

} // namespace ppm::serve

#endif // PPM_SERVE_REMOTE_ORACLE_HH
