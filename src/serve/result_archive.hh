/**
 * @file
 * ResultArchive: an append-only on-disk memo log of simulation
 * results (design-point key → metric value), CRC-checked per record.
 *
 * File format (all integers little-endian):
 *
 *     header:  u32 magic 'PPMA'    (0x50504D41)
 *              u16 version
 *              u32 context_len, context bytes, u32 crc(context)
 *     record:  u32 payload_len, payload, u32 crc(payload)
 *     payload: u32 key_len, i64 key[key_len], f64 value
 *
 * The context string names the oracle the archive belongs to
 * (benchmark, trace length, warmup, metric); opening an archive with
 * a different context fails rather than silently mixing result sets.
 *
 * Crash recovery: on open, records are scanned sequentially; the
 * first truncated or CRC-corrupted record marks the recovered end of
 * the log — earlier records load normally, the corrupt tail is
 * counted in recordsSkipped() and truncated away so subsequent
 * appends re-establish a clean log.
 *
 * Concurrency: appends are single write() calls made under an
 * exclusive flock(), so multiple oracles — including oracles in
 * different processes (the sharded simulation servers) — can share
 * one archive file.
 */

#ifndef PPM_SERVE_RESULT_ARCHIVE_HH
#define PPM_SERVE_RESULT_ARCHIVE_HH

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle.hh"

namespace ppm::serve {

/** Archive cannot be opened, is for another context, or I/O failed. */
class ArchiveError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class ResultArchive final : public core::ResultStore
{
  public:
    /**
     * Open (creating if absent) the archive at @p path for
     * @p context, loading every intact record and truncating any
     * corrupt tail.
     * @throws ArchiveError on I/O failure or context mismatch.
     */
    ResultArchive(std::string path, std::string context);
    ~ResultArchive() override;

    ResultArchive(const ResultArchive &) = delete;
    ResultArchive &operator=(const ResultArchive &) = delete;

    /** Replay the records loaded at open time. */
    void load(const std::function<void(const Key &, double)> &sink)
        override;

    /** Durably append one record (single write under flock). */
    void append(const Key &key, double value) override;

    /** Intact records loaded at open time. */
    std::size_t recordsLoaded() const { return entries_.size(); }

    /**
     * Corrupt or truncated trailing records detected (and truncated
     * away) at open time.
     */
    std::size_t recordsSkipped() const { return skipped_; }

    const std::string &path() const { return path_; }
    const std::string &context() const { return context_; }

    /**
     * Canonical archive file name for one oracle context, e.g.
     * "mcf_t100000_w15000_CPI.ppma".
     */
    static std::string fileNameFor(const std::string &benchmark,
                                   std::uint64_t trace_length,
                                   std::uint64_t warmup,
                                   core::Metric metric);

    /**
     * Canonical context key of one oracle context, stamped into every
     * archive header and checked when an archive is opened or tailed,
     * e.g. "mcf|t100000|w15000|CPI". Existing archives stay readable
     * only while this string is unchanged.
     */
    static std::string contextFor(const std::string &benchmark,
                                  std::uint64_t trace_length,
                                  std::uint64_t warmup,
                                  core::Metric metric);

    /**
     * The simulation context, contextFor() without the metric, e.g.
     * "mcf|t100000|w15000": oracles sharing it run identical
     * simulations and differ only in the metric they report.
     */
    static std::string simContextFor(const std::string &benchmark,
                                     std::uint64_t trace_length,
                                     std::uint64_t warmup);

  private:
    void openAndRecover();

    std::string path_;
    std::string context_;
    int fd_ = -1;
    std::vector<std::pair<Key, double>> entries_;
    std::size_t skipped_ = 0;
    std::mutex mutex_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_RESULT_ARCHIVE_HH
