/**
 * @file
 * The four end-to-end workloads of the e2ebench driver (see README.md
 * in this directory for what each one measures and why).
 *
 * A workload is a closed loop of ops issued by one caller thread.
 * The driver (driver.cc) owns the loop: it calls setup() several
 * times (timing each), then for every op prepare() (untimed), op()
 * (timed), and verify() (untimed correctness check). Op inputs and
 * op kinds cycle with period(), so op i must reproduce exactly the
 * counts of op i % period() — the driver's exact-count check.
 */

#ifndef PPM_E2EBENCH_WORKLOADS_HH
#define PPM_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace ppm::e2e {

/** Knobs shared by every workload (set by run.py). */
struct Params
{
    std::uint64_t seed = 1;
    /** Scratch directory for sockets, archives and snapshots. */
    std::string run_dir;
    /** RemoteOptions::max_connections (client dispatch threads). */
    unsigned max_connections = 2;
};

/** What one op did, as the driver records it. */
struct OpOutcome
{
    /** Design points simulated+validated, folded, or answered. */
    std::uint64_t points = 0;
    /** Dispatch lanes the op could use (coverage denominator). */
    unsigned lanes = 1;
};

/** Named values; every op of one period slot must repeat them. */
using Values = std::map<std::string, double>;

/** Per-layer numbers a workload measures itself (traced runs). */
struct LayerTimes
{
    /** Host ms of direct calls into a module, one entry per call. */
    std::map<std::string, std::vector<double>> samples;

    void add(const std::string &name, double ms)
    {
        samples[name].push_back(ms);
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Ops per period: inputs and op kinds repeat with this cycle. */
    virtual std::size_t period() const = 0;
    /** Ops per rate window (a multiple of period()). */
    virtual std::size_t windowOps() const = 0;
    /** Do op_p99_ms's >= 10-samples-beyond rule apply here? */
    virtual bool tailRule() const { return false; }
    /** Instructions per simulated trace (sim.minstr_per_s). */
    virtual std::size_t traceLength() const = 0;

    /** Everything before the first timed op, warm-up ops included. */
    virtual void setup() = 0;
    /** Undo setup() so it can be repeated. */
    virtual void teardown() = 0;

    /** Build op @p i's inputs (untimed). */
    virtual void prepare(std::size_t i) { (void)i; }
    /** The timed op. Throws on failure. */
    virtual OpOutcome op(std::size_t i) = 0;
    /**
     * Check op @p i's outputs against an in-process reference and
     * add its workload-level exact values to @p exact. With
     * @p corrupt, flip one bit of a checked reply value first (the
     * self-test that a corrupted reply counts as failed).
     * @return false when the op failed its check.
     */
    virtual bool verify(std::size_t i, bool corrupt, Values &exact) = 0;

    /**
     * Exact values of the first period that depend on op inputs which
     * change every period: they repeat from run to run (same seed),
     * not from slot to slot.
     */
    virtual Values runExact() const { return {}; }

    /**
     * Mean % error of the workload's model on held-out points, over
     * a fixed prefix of ops (exact for a fixed seed). Called after
     * the timed phases.
     */
    virtual double modelErrPct() = 0;

    /** Direct module timings gathered so far (setup and verify). */
    const LayerTimes &layerTimes() const { return layer_times_; }

    /** Start a measurement phase: zero the in-op layer time. */
    void resetPhase() { phase_layer_ms_ = 0.0; }

    /**
     * Ms of op wall time the timed layer calls account for in the
     * phase whose registry delta is @p delta (coverage numerator).
     */
    virtual double coveredMs(const obs::Snapshot &delta) const = 0;

  protected:
    LayerTimes layer_times_;
    /** In-op time of layers the workload times itself. */
    double phase_layer_ms_ = 0.0;
};

/** Total ms of histogram @p name in @p snap (0 when absent). */
double histogramMs(const obs::Snapshot &snap, const std::string &name);
/** Observation count of histogram @p name in @p snap. */
std::uint64_t histogramCount(const obs::Snapshot &snap,
                             const std::string &name);
/** Value of counter @p name in @p snap (0 when absent). */
std::uint64_t counterValue(const obs::Snapshot &snap,
                           const std::string &name);

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Params &params);

} // namespace ppm::e2e

#endif // PPM_E2EBENCH_WORKLOADS_HH
