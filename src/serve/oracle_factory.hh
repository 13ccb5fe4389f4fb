/**
 * @file
 * Oracle factory: the one-line entry point benches and examples use
 * to get a CpiOracle that honours the service environment —
 *
 *   PPM_SERVE_SOCKET  comma-separated ppm_serve endpoints — Unix
 *                     socket paths and TCP host:port specs mix freely
 *                     (see transport.hh); when set the factory
 *                     returns a RemoteOracle sharding batches across
 *                     them (with in-process fallback), else a plain
 *                     SimulatorOracle
 *   PPM_ARCHIVE_DIR   directory of ResultArchive files; when set the
 *                     local oracle (or the remote oracle's fallback)
 *                     persists every simulation, so re-running any
 *                     bench replays archived results for free
 */

#ifndef PPM_SERVE_ORACLE_FACTORY_HH
#define PPM_SERVE_ORACLE_FACTORY_HH

#include <memory>
#include <string>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "serve/remote_oracle.hh"
#include "serve/result_archive.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace ppm::serve {

/** Name of the environment variable naming the archive directory. */
inline constexpr const char *kArchiveEnvVar = "PPM_ARCHIVE_DIR";

/** Explicit factory configuration (the env-free overload). */
struct FactoryOptions
{
    /** ResultArchive directory; empty = no persistence. */
    std::string archive_dir;
    /** The remote path; remote.sockets empty = local simulation. */
    RemoteOptions remote;
};

/** FactoryOptions from PPM_SERVE_SOCKET / PPM_ARCHIVE_DIR. */
FactoryOptions factoryOptionsFromEnv();

/**
 * Open (creating the directory if needed) the archive for one oracle
 * context under @p dir.
 */
std::shared_ptr<ResultArchive> archiveFor(
    const std::string &dir, const std::string &benchmark,
    std::uint64_t trace_length, std::uint64_t warmup,
    core::Metric metric);

/**
 * Build an oracle per @p options: a RemoteOracle when remote.sockets
 * are configured, else a SimulatorOracle; either way with a ResultArchive
 * attached (to the fallback, for the remote case) when archive_dir is
 * set. @p benchmark must name the profile @p trace was generated
 * from; @p trace must outlive the oracle.
 */
std::unique_ptr<core::CpiOracle> makeOracle(
    const dspace::DesignSpace &space, const std::string &benchmark,
    const trace::Trace &trace, const sim::SimOptions &sim_options,
    core::Metric metric, const FactoryOptions &options);

/** Environment-driven overload: factoryOptionsFromEnv(). */
std::unique_ptr<core::CpiOracle> makeOracle(
    const dspace::DesignSpace &space, const std::string &benchmark,
    const trace::Trace &trace, const sim::SimOptions &sim_options = {},
    core::Metric metric = core::Metric::Cpi);

} // namespace ppm::serve

#endif // PPM_SERVE_ORACLE_FACTORY_HH
