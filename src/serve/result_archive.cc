#include "serve/result_archive.hh"

#include <bit>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "util/crc32.hh"

namespace ppm::serve {

namespace {

constexpr std::uint32_t kArchiveMagic = 0x50504D41u; // "PPMA"
constexpr std::uint16_t kArchiveVersion = 1;
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;
constexpr std::uint32_t kMaxContext = 4096;

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw ArchiveError(what + ": " + std::strerror(errno));
}

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

/** Little-endian reads over a byte range; false = out of bytes. */
struct ByteCursor
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    bool
    u32(std::uint32_t &out)
    {
        if (size - pos < 4)
            return false;
        out = 0;
        for (int i = 3; i >= 0; --i)
            out = (out << 8) | data[pos + static_cast<std::size_t>(i)];
        pos += 4;
        return true;
    }

    bool
    u16(std::uint16_t &out)
    {
        if (size - pos < 2)
            return false;
        out = static_cast<std::uint16_t>(data[pos] |
                                         (data[pos + 1] << 8));
        pos += 2;
        return true;
    }

    bool
    u64(std::uint64_t &out)
    {
        if (size - pos < 8)
            return false;
        out = 0;
        for (int i = 7; i >= 0; --i)
            out = (out << 8) | data[pos + static_cast<std::size_t>(i)];
        pos += 8;
        return true;
    }

    bool
    bytes(const std::uint8_t *&out, std::size_t n)
    {
        if (size - pos < n)
            return false;
        out = data + pos;
        pos += n;
        return true;
    }
};

std::vector<std::uint8_t>
encodeHeader(const std::string &context)
{
    std::vector<std::uint8_t> out;
    putU32(out, kArchiveMagic);
    putU16(out, kArchiveVersion);
    putU32(out, static_cast<std::uint32_t>(context.size()));
    out.insert(out.end(), context.begin(), context.end());
    putU32(out, util::crc32(context.data(), context.size()));
    return out;
}

std::vector<std::uint8_t>
encodeRecord(const core::ResultStore::Key &key, double value)
{
    std::vector<std::uint8_t> payload;
    putU32(payload, static_cast<std::uint32_t>(key.size()));
    for (std::int64_t k : key)
        putU64(payload, static_cast<std::uint64_t>(k));
    putU64(payload, std::bit_cast<std::uint64_t>(value));

    std::vector<std::uint8_t> record;
    putU32(record, static_cast<std::uint32_t>(payload.size()));
    record.insert(record.end(), payload.begin(), payload.end());
    putU32(record, util::crc32(payload.data(), payload.size()));
    return record;
}

/** RAII flock; the archive fd is locked for load/repair and appends. */
class FileLock
{
  public:
    explicit FileLock(int fd) : fd_(fd)
    {
        while (::flock(fd_, LOCK_EX) < 0) {
            if (errno != EINTR)
                throwErrno("flock");
        }
    }
    ~FileLock() { ::flock(fd_, LOCK_UN); }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_;
};

void
writeAllAt(int fd, const std::vector<std::uint8_t> &bytes, off_t off)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                     off + static_cast<off_t>(done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("pwrite");
        }
        done += static_cast<std::size_t>(n);
    }
}

} // namespace

ResultArchive::ResultArchive(std::string path, std::string context)
    : path_(std::move(path)), context_(std::move(context))
{
    if (context_.size() > kMaxContext)
        throw ArchiveError("archive context string too long");
    openAndRecover();
}

ResultArchive::~ResultArchive()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ResultArchive::openAndRecover()
{
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        throwErrno("open " + path_);
    FileLock lock(fd_);

    // Read the whole file; archives are modest (tens of bytes per
    // simulation result) and this keeps recovery logic simple.
    struct stat st{};
    if (::fstat(fd_, &st) < 0)
        throwErrno("fstat " + path_);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n = ::pread(fd_, bytes.data() + got,
                                  bytes.size() - got,
                                  static_cast<off_t>(got));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("pread " + path_);
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);

    if (bytes.empty()) {
        // Fresh archive: write the context header.
        writeAllAt(fd_, encodeHeader(context_), 0);
        return;
    }

    // Validate the header. A valid header with a different context is
    // a caller error (mixing result sets); an unreadable header on a
    // non-empty file means the file is not an archive.
    ByteCursor cur{bytes.data(), bytes.size()};
    std::uint32_t magic = 0, ctx_len = 0, ctx_crc = 0;
    std::uint16_t version = 0;
    const std::uint8_t *ctx_bytes = nullptr;
    if (!cur.u32(magic) || magic != kArchiveMagic ||
        !cur.u16(version) || version != kArchiveVersion ||
        !cur.u32(ctx_len) || ctx_len > kMaxContext ||
        !cur.bytes(ctx_bytes, ctx_len) || !cur.u32(ctx_crc) ||
        util::crc32(ctx_bytes, ctx_len) != ctx_crc)
        throw ArchiveError("not a result archive (bad header): " +
                           path_);
    if (std::string(reinterpret_cast<const char *>(ctx_bytes),
                    ctx_len) != context_)
        throw ArchiveError("archive context mismatch in " + path_);

    // Scan records; the first inconsistency ends the recovered log.
    std::size_t good_end = cur.pos;
    while (cur.pos < cur.size) {
        std::uint32_t len = 0, crc = 0;
        const std::uint8_t *payload = nullptr;
        if (!cur.u32(len) || len > kMaxRecordPayload ||
            !cur.bytes(payload, len) || !cur.u32(crc) ||
            util::crc32(payload, len) != crc) {
            ++skipped_;
            break;
        }
        ByteCursor rec{payload, len};
        std::uint32_t key_len = 0;
        if (!rec.u32(key_len) ||
            rec.size - rec.pos != std::size_t{key_len} * 8 + 8) {
            ++skipped_;
            break;
        }
        Key key(key_len);
        for (auto &k : key) {
            std::uint64_t raw = 0;
            rec.u64(raw);
            k = static_cast<std::int64_t>(raw);
        }
        std::uint64_t raw_value = 0;
        rec.u64(raw_value);
        entries_.emplace_back(std::move(key),
                              std::bit_cast<double>(raw_value));
        good_end = cur.pos;
    }

    // Truncate away the corrupt tail so appends continue a clean log.
    if (good_end < bytes.size() &&
        ::ftruncate(fd_, static_cast<off_t>(good_end)) < 0)
        throwErrno("ftruncate " + path_);

    OBS_STATIC_COUNTER(preloads, "archive.preloaded");
    OBS_ADD(preloads, entries_.size());
    if (skipped_ > 0) {
        OBS_STATIC_COUNTER(corrupt, "archive.corrupt_records");
        OBS_ADD(corrupt, skipped_);
        obs::logEvent(obs::LogLevel::Warn, "archive", "corrupt_tail",
                      {{"path", path_},
                       {"recovered", entries_.size()},
                       {"skipped", skipped_}});
    }
}

void
ResultArchive::load(
    const std::function<void(const Key &, double)> &sink)
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto &[key, value] : entries_)
        sink(key, value);
}

void
ResultArchive::append(const Key &key, double value)
{
    OBS_SPAN("archive.append");
    OBS_STATIC_COUNTER(appends, "archive.appends");
    OBS_ADD(appends, 1);
    const std::vector<std::uint8_t> record = encodeRecord(key, value);
    std::lock_guard<std::mutex> guard(mutex_);
    FileLock lock(fd_);
    // Append at the current end under the lock: other processes may
    // have grown the file since we loaded it.
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0)
        throwErrno("lseek " + path_);
    writeAllAt(fd_, record, end);
}

std::string
ResultArchive::fileNameFor(const std::string &benchmark,
                           std::uint64_t trace_length,
                           std::uint64_t warmup, core::Metric metric)
{
    std::string name = benchmark;
    for (char &c : name) {
        if (c == '/' || c == '\\' || c == '|')
            c = '_';
    }
    return name + "_t" + std::to_string(trace_length) + "_w" +
           std::to_string(warmup) + "_" + core::metricName(metric) +
           ".ppma";
}

std::string
ResultArchive::contextFor(const std::string &benchmark,
                          std::uint64_t trace_length,
                          std::uint64_t warmup, core::Metric metric)
{
    return simContextFor(benchmark, trace_length, warmup) + "|" +
           core::metricName(metric);
}

std::string
ResultArchive::simContextFor(const std::string &benchmark,
                             std::uint64_t trace_length,
                             std::uint64_t warmup)
{
    return benchmark + "|t" + std::to_string(trace_length) + "|w" +
           std::to_string(warmup);
}

} // namespace ppm::serve
