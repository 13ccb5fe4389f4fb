/**
 * @file
 * Distributed trace context: a W3C-traceparent-style (trace_id,
 * parent_span_id, flags) triple that rides protocol-v4 frame headers
 * so one sampled request can be followed client -> RemoteOracle
 * dispatch -> SimServer -> cache -> RBF batch kernel across processes.
 *
 * Sampling is deterministic and RNG-free (zero-perturbation): a
 * process-local relaxed counter samples every Nth trace root
 * (PPM_TRACE_SAMPLE=N; 0, empty or unset disables tracing entirely).
 * The sampled bit travels with the context, so downstream processes
 * never re-decide.
 *
 * Sampled spans land in the process-wide SpanBuffer stamped with
 * pid/tid and wall-clock (epoch) timestamps — monotonicNs() is
 * per-process and useless across machines, so each process captures
 * one realtime-minus-steady offset at startup and converts on record.
 * `ppm_trace` pulls buffers over TraceRequest frames (or reads
 * PPM_SPANS_OUT JSONL dumps) and merges them into one Chrome trace.
 *
 * Cost contract: with tracing off (sample_every == 0) every span site
 * pays exactly one extra relaxed atomic load. No locks, no RNG, no
 * allocation on the untraced path.
 */

#ifndef PPM_OBS_TRACE_CONTEXT_HH
#define PPM_OBS_TRACE_CONTEXT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ppm::obs {

/** Flag bit: this trace is sampled; record its spans. */
inline constexpr std::uint8_t kTraceFlagSampled = 0x01;

/**
 * The propagated context. trace id is 128-bit (hi/lo);
 * parent_span_id names the span that caused the current work. A
 * zero trace id means "no active trace".
 */
struct TraceContext
{
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
    std::uint64_t parent_span_id = 0;
    std::uint8_t flags = 0;

    bool valid() const { return (trace_hi | trace_lo) != 0; }
    bool sampled() const
    {
        return valid() && (flags & kTraceFlagSampled) != 0;
    }
};

/** One completed span, stamped for cross-process merging. */
struct SpanRecord
{
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
    const char *name = ""; ///< static literal (span-site names)
    std::uint64_t start_unix_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
};

/** True when tracing is runtime-enabled (sample_every != 0). */
bool tracingEnabled();

/** Current sample period (0 = tracing off). */
std::uint32_t traceSampleEvery();

/** Set the sample period: sample every Nth root, 0 disables. */
void setTraceSampleEvery(std::uint32_t every);

/**
 * Re-read PPM_TRACE_SAMPLE and PPM_SPANS_OUT. An unset or empty
 * PPM_TRACE_SAMPLE sets the sample period to 0 (tracing off).
 */
void traceConfigureFromEnv();

/** The calling thread's live context (mutable: spans re-parent it). */
TraceContext &threadTraceContext();

/**
 * The context to embed in an outgoing frame: the thread context with
 * parent_span_id pointing at the innermost open span.
 */
TraceContext currentTraceContext();

/** Allocate a process-unique span id (pid-salted, never 0). */
std::uint64_t nextSpanId();

/** Offset adding monotonicNs() values onto the unix epoch. */
std::uint64_t epochOffsetNs();

/**
 * Install a received (wire or cross-thread) context for a scope and
 * restore the previous one on exit. Invalid contexts install nothing.
 */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(const TraceContext &ctx);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    TraceContext saved_;
    bool installed_ = false;
};

/**
 * A trace root: where a request is born (client evaluateAll entry).
 * If tracing is enabled and no context is active, makes the
 * deterministic 1-in-N sampling decision and opens a new trace; when
 * the decision (or an inherited context) is "sampled", the root also
 * records itself as a span.
 */
class TraceRoot
{
  public:
    explicit TraceRoot(const char *name);
    ~TraceRoot();

    TraceRoot(const TraceRoot &) = delete;
    TraceRoot &operator=(const TraceRoot &) = delete;

    /** The context children of this root should propagate. */
    TraceContext context() const;

  private:
    const char *name_;
    TraceContext saved_;
    bool installed_ = false;
    bool traced_ = false;
    std::uint64_t span_id_ = 0;
    std::uint64_t start_ns_ = 0;
};

/**
 * Process-wide buffer of sampled spans. Only sampled spans ever take
 * the mutex, so an unsampled workload never contends here. Overflow
 * past kMaxSpans bumps the `obs.spans.dropped` counter.
 */
class SpanBuffer
{
  public:
    static constexpr std::size_t kMaxSpans = 1u << 16;

    static SpanBuffer &instance();

    void record(const SpanRecord &span);

    /** Copy out the buffered spans (optionally draining them). */
    std::vector<SpanRecord> snapshot(bool drain = false);

    void clear();

    std::uint64_t droppedCount() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /**
     * Append the buffer as JSONL (one span object per line) — the
     * client-side export `ppm_trace --in FILE` merges. Registered
     * atexit when PPM_SPANS_OUT is set.
     */
    bool writeJsonl(const std::string &path);

  private:
    SpanBuffer() = default;

    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::atomic<std::uint64_t> dropped_{0};
};

/** 32-hex-digit trace id (hi || lo), for logs and Chrome traces. */
std::string traceIdHex(std::uint64_t hi, std::uint64_t lo);

} // namespace ppm::obs

#endif // PPM_OBS_TRACE_CONTEXT_HH
