/**
 * @file
 * Wire-protocol suite: every message type round-trips bit-exactly,
 * and every class of malformed frame — bad magic, version mismatch,
 * oversized declared length, truncation at any byte, CRC corruption,
 * trailing garbage, inconsistent payload internals — is rejected with
 * ProtocolError (never UB, never a crash).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>

#include "serve/protocol.hh"
#include "serve/remote_oracle.hh"
#include "serve/socket_io.hh"
#include "util/crc32.hh"

namespace {

using namespace ppm;
using namespace ppm::serve;

EvalRequest
sampleRequest()
{
    EvalRequest req;
    req.benchmark = "mcf";
    req.metric = core::Metric::EnergyPerInst;
    req.trace_length = 123456;
    req.warmup = 7890;
    req.seed = 0xDEADBEEFCAFEF00DULL;
    req.points = {
        {14, 64, 0.5, 0.25, 1024, 12, 32, 32, 2},
        {7, 128, 0.75, 0.5, 256, 5, 8, 64, 1.0000001},
    };
    return req;
}

TEST(ServeProtocol, EvalRequestRoundTrip)
{
    const EvalRequest req = sampleRequest();
    const auto bytes = encodeEvalRequest(req);
    const Frame frame = decodeFrame(bytes);
    ASSERT_EQ(frame.type, MsgType::EvalRequest);
    const EvalRequest out = parseEvalRequest(frame.payload);
    EXPECT_EQ(out.benchmark, req.benchmark);
    EXPECT_EQ(out.metric, req.metric);
    EXPECT_EQ(out.trace_length, req.trace_length);
    EXPECT_EQ(out.warmup, req.warmup);
    EXPECT_EQ(out.seed, req.seed);
    ASSERT_EQ(out.points.size(), req.points.size());
    for (std::size_t i = 0; i < req.points.size(); ++i)
        EXPECT_EQ(out.points[i], req.points[i]) << "point " << i;
}

TEST(ServeProtocol, EmptyBatchRoundTrip)
{
    EvalRequest req;
    req.benchmark = "vortex";
    const auto bytes = encodeEvalRequest(req);
    const EvalRequest out =
        parseEvalRequest(decodeFrame(bytes).payload);
    EXPECT_TRUE(out.points.empty());
}

TEST(ServeProtocol, EvalResponseRoundTrip)
{
    EvalResponse resp;
    resp.values = {1.25, -0.0, 3.5e300, 7.0};
    resp.fresh_evaluations = 3;
    resp.total_evaluations = 42;
    const auto bytes = encodeEvalResponse(resp);
    const Frame frame = decodeFrame(bytes);
    ASSERT_EQ(frame.type, MsgType::EvalResponse);
    const EvalResponse out = parseEvalResponse(frame.payload);
    EXPECT_EQ(out.values, resp.values);
    EXPECT_EQ(out.fresh_evaluations, resp.fresh_evaluations);
    EXPECT_EQ(out.total_evaluations, resp.total_evaluations);
    // Exact bit patterns survive, including the negative zero.
    EXPECT_TRUE(std::signbit(out.values[1]));
}

TEST(ServeProtocol, ErrorRoundTrip)
{
    const auto bytes = encodeError({"unknown benchmark 'gcc'"});
    const Frame frame = decodeFrame(bytes);
    ASSERT_EQ(frame.type, MsgType::Error);
    EXPECT_EQ(parseError(frame.payload).message,
              "unknown benchmark 'gcc'");
}

TEST(ServeProtocol, PingPongRoundTrip)
{
    const std::uint64_t nonce = 0x0123456789ABCDEFULL;
    Frame ping = decodeFrame(encodePing(nonce));
    ASSERT_EQ(ping.type, MsgType::Ping);
    EXPECT_EQ(parsePing(ping.payload), nonce);
    Frame pong = decodeFrame(encodePong(nonce + 1));
    ASSERT_EQ(pong.type, MsgType::Pong);
    EXPECT_EQ(parsePong(pong.payload), nonce + 1);
}

TEST(ServeProtocol, RejectsBadMagic)
{
    auto bytes = encodePing(1);
    bytes[0] ^= 0xFF;
    EXPECT_THROW(decodeFrame(bytes), ProtocolError);
}

TEST(ServeProtocol, RejectsVersionMismatch)
{
    auto bytes = encodePing(1);
    bytes[4] += 1; // version is bytes 4-5, little-endian
    EXPECT_THROW(decodeFrame(bytes), ProtocolError);
}

/**
 * A well-formed v3 frame: today's header stamped version 3, no trace
 * block, CRC over the payload alone — what a v3 peer would send.
 */
std::vector<std::uint8_t>
wellFormedV3Ping(std::uint64_t nonce)
{
    std::vector<std::uint8_t> frame = encodePing(nonce);
    frame[4] = 3; // version is bytes 4-5, little-endian
    frame[5] = 0;
    frame.erase(frame.begin() + kHeaderSize,
                frame.begin() + kHeaderSize + kTraceBlockSize);
    const std::size_t payload_len =
        frame.size() - kHeaderSize - kTrailerSize;
    const std::uint32_t crc =
        util::crc32(frame.data() + kHeaderSize, payload_len);
    for (int i = 0; i < 4; ++i)
        frame[kHeaderSize + payload_len + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    return frame;
}

TEST(ServeProtocol, RejectsWellFormedV3Frame)
{
    // One wire version: a v3 frame is refused, not answered in kind.
    const auto v3 = wellFormedV3Ping(9);
    ASSERT_EQ(v3.size(), kHeaderSize + 8 + kTrailerSize);
    EXPECT_THROW(decodeFrame(v3), ProtocolError);

    // readFrame rejects it from the header alone, over a real socket.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FdGuard a(fds[0]), b(fds[1]);
    for (int fd : fds)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    sendAll(a.get(), v3.data(), v3.size(), 500);
    EXPECT_THROW(readFrame(b.get(), 500), ProtocolError);
}

TEST(ServeProtocol, RejectsUnknownType)
{
    auto bytes = encodePing(1);
    bytes[6] = 0x7F; // type is bytes 6-7
    EXPECT_THROW(decodeFrame(bytes), ProtocolError);
}

TEST(ServeProtocol, RejectsOversizedDeclaredLength)
{
    // A header declaring a payload over kMaxPayload must be rejected
    // from the header alone — before any payload allocation.
    auto bytes = encodePing(1);
    const std::uint32_t huge = kMaxPayload + 1;
    std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
    EXPECT_THROW(decodeHeader(bytes.data(), bytes.size()),
                 ProtocolError);
    EXPECT_THROW(decodeFrame(bytes), ProtocolError);
}

TEST(ServeProtocol, RejectsTruncationAtEveryByte)
{
    const auto bytes = encodeEvalRequest(sampleRequest());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut)
        EXPECT_THROW(decodeFrame(bytes.data(), cut), ProtocolError)
            << "cut at byte " << cut;
}

TEST(ServeProtocol, RejectsCrcMismatchAtEveryPayloadByte)
{
    const auto bytes = encodeEvalRequest(sampleRequest());
    for (std::size_t i = kHeaderSize;
         i < bytes.size() - kTrailerSize; ++i) {
        auto corrupt = bytes;
        corrupt[i] ^= 0x01;
        EXPECT_THROW(decodeFrame(corrupt), ProtocolError)
            << "flip at byte " << i;
    }
}

TEST(ServeProtocol, RejectsTrailingGarbage)
{
    auto bytes = encodePing(1);
    bytes.push_back(0);
    EXPECT_THROW(decodeFrame(bytes), ProtocolError);
}

TEST(ServeProtocol, RejectsInconsistentPointGeometry)
{
    // A CRC-valid frame whose payload *internals* lie: n*dims larger
    // than the actual point data.
    EvalRequest req = sampleRequest();
    auto bytes = encodeEvalRequest(req);
    Frame frame = decodeFrame(bytes);
    // num_points lives right after benchmark + metric + 3x u64.
    const std::size_t n_off = 4 + req.benchmark.size() + 2 + 24;
    frame.payload[n_off] += 1;
    // Re-frame with a correct CRC so only the semantic check can
    // reject it.
    const auto reframed =
        encodeFrame(MsgType::EvalRequest, frame.payload);
    EXPECT_THROW(parseEvalRequest(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsOverlongStringInsidePayload)
{
    // String length field larger than the payload itself.
    std::vector<std::uint8_t> payload = {0xFF, 0xFF, 0xFF, 0x7F,
                                         'm', 'c', 'f'};
    const auto framed = encodeFrame(MsgType::Error, payload);
    EXPECT_THROW(parseError(decodeFrame(framed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsRaggedBatchAtEncodeTime)
{
    EvalRequest req = sampleRequest();
    req.points[1].pop_back();
    EXPECT_THROW(encodeEvalRequest(req), ProtocolError);
}

obs::Snapshot
sampleSnapshot()
{
    obs::Snapshot snap;
    snap.counters = {{"oracle.simulations", 17},
                     {"serve.requests", 3}};
    snap.gauges = {{"serve.active_connections", -2}};
    obs::HistogramValue hist;
    hist.name = "span.serve.request";
    hist.count = 5;
    hist.total_ns = 1234567;
    hist.buckets.assign(obs::Histogram::kBuckets, 0);
    hist.buckets[3] = 2;
    hist.buckets[10] = 3;
    snap.histograms = {hist};
    return snap;
}

TEST(ServeProtocol, StatsRequestRoundTrip)
{
    const std::uint64_t nonce = 0xFEEDFACEULL;
    const Frame frame = decodeFrame(encodeStatsRequest(nonce));
    ASSERT_EQ(frame.type, MsgType::StatsRequest);
    EXPECT_EQ(parseStatsRequest(frame.payload), nonce);
}

TEST(ServeProtocol, StatsResponseRoundTrip)
{
    const obs::Snapshot snap = sampleSnapshot();
    const auto bytes = encodeStatsResponse(snap);
    const Frame frame = decodeFrame(bytes);
    ASSERT_EQ(frame.type, MsgType::StatsResponse);
    const obs::Snapshot out = parseStatsResponse(frame.payload);
    ASSERT_EQ(out.counters.size(), snap.counters.size());
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        EXPECT_EQ(out.counters[i].name, snap.counters[i].name);
        EXPECT_EQ(out.counters[i].value, snap.counters[i].value);
    }
    ASSERT_EQ(out.gauges.size(), 1u);
    EXPECT_EQ(out.gauges[0].name, "serve.active_connections");
    EXPECT_EQ(out.gauges[0].value, -2); // sign survives the wire
    ASSERT_EQ(out.histograms.size(), 1u);
    EXPECT_EQ(out.histograms[0].name, snap.histograms[0].name);
    EXPECT_EQ(out.histograms[0].count, snap.histograms[0].count);
    EXPECT_EQ(out.histograms[0].total_ns,
              snap.histograms[0].total_ns);
    EXPECT_EQ(out.histograms[0].buckets, snap.histograms[0].buckets);
}

TEST(ServeProtocol, EmptyStatsResponseRoundTrip)
{
    const obs::Snapshot out =
        parseStatsResponse(decodeFrame(encodeStatsResponse({}))
                               .payload);
    EXPECT_TRUE(out.counters.empty());
    EXPECT_TRUE(out.gauges.empty());
    EXPECT_TRUE(out.histograms.empty());
}

TEST(ServeProtocol, RejectsStatsSchemaVersionMismatch)
{
    Frame frame = decodeFrame(encodeStatsResponse(sampleSnapshot()));
    frame.payload[0] += 1; // stats_version is bytes 0-1
    const auto reframed =
        encodeFrame(MsgType::StatsResponse, frame.payload);
    EXPECT_THROW(parseStatsResponse(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsStatsEntryCountLie)
{
    // CRC-valid frame whose counter count exceeds the actual data.
    Frame frame = decodeFrame(encodeStatsResponse(sampleSnapshot()));
    frame.payload[2] += 1; // counter count is bytes 2-5
    const auto reframed =
        encodeFrame(MsgType::StatsResponse, frame.payload);
    EXPECT_THROW(parseStatsResponse(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsStatsOversizedSections)
{
    std::vector<std::uint8_t> payload;
    payload.push_back(static_cast<std::uint8_t>(kStatsVersion));
    payload.push_back(
        static_cast<std::uint8_t>(kStatsVersion >> 8));
    const std::uint32_t huge = kMaxStatsEntries + 1;
    for (int shift = 0; shift < 32; shift += 8)
        payload.push_back(static_cast<std::uint8_t>(huge >> shift));
    const auto framed = encodeFrame(MsgType::StatsResponse, payload);
    EXPECT_THROW(parseStatsResponse(decodeFrame(framed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsStatsTruncationAtEveryByte)
{
    const auto bytes = encodeStatsResponse(sampleSnapshot());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut)
        EXPECT_THROW(decodeFrame(bytes.data(), cut), ProtocolError)
            << "cut at byte " << cut;
}

TEST(ServeProtocol, RejectsStatsTrailingBytes)
{
    Frame frame = decodeFrame(encodeStatsResponse(sampleSnapshot()));
    frame.payload.push_back(0);
    const auto reframed =
        encodeFrame(MsgType::StatsResponse, frame.payload);
    EXPECT_THROW(parseStatsResponse(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsTooManyHistogramBuckets)
{
    obs::Snapshot snap;
    obs::HistogramValue hist;
    hist.name = "span.bad";
    hist.buckets.assign(kMaxStatsBuckets + 1, 0);
    snap.histograms = {hist};
    EXPECT_THROW(encodeStatsResponse(snap), ProtocolError);
}

TEST(ServeProtocol, PredictRequestRoundTrip)
{
    PredictRequest req;
    req.model = ModelKind::Linear;
    req.points = {
        {14, 64, 0.5, 0.25, 1024, 12, 32, 32, 2},
        {7, 128, 0.75, 0.5, 256, 5, 8, 64, 1.0000001},
    };
    const Frame frame = decodeFrame(encodePredictRequest(req));
    ASSERT_EQ(frame.type, MsgType::PredictRequest);
    const PredictRequest out = parsePredictRequest(frame.payload);
    EXPECT_EQ(out.model, req.model);
    ASSERT_EQ(out.points.size(), req.points.size());
    for (std::size_t i = 0; i < req.points.size(); ++i)
        EXPECT_EQ(out.points[i], req.points[i]) << "point " << i;
}

TEST(ServeProtocol, PredictResponseRoundTrip)
{
    PredictResponse resp;
    resp.model_version = 0xABCDEF0123456789ULL;
    resp.values = {0.5, -0.0, 1e-300};
    const Frame frame = decodeFrame(encodePredictResponse(resp));
    ASSERT_EQ(frame.type, MsgType::PredictResponse);
    const PredictResponse out = parsePredictResponse(frame.payload);
    EXPECT_EQ(out.model_version, resp.model_version);
    EXPECT_EQ(out.values, resp.values);
    EXPECT_TRUE(std::signbit(out.values[1]));
}

TEST(ServeProtocol, RejectsPredictRequestUnknownModelKind)
{
    PredictRequest req;
    req.points = {{1, 2, 3}};
    Frame frame = decodeFrame(encodePredictRequest(req));
    frame.payload[0] = 0x7F; // model kind is bytes 0-1
    const auto reframed =
        encodeFrame(MsgType::PredictRequest, frame.payload);
    EXPECT_THROW(parsePredictRequest(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsPredictBatchCountLie)
{
    PredictRequest req;
    req.points = {{1, 2, 3}, {4, 5, 6}};
    Frame frame = decodeFrame(encodePredictRequest(req));
    frame.payload[2] += 1; // num_points is bytes 2-5
    const auto reframed =
        encodeFrame(MsgType::PredictRequest, frame.payload);
    EXPECT_THROW(parsePredictRequest(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsPredictResponseValueCountLie)
{
    PredictResponse resp;
    resp.model_version = 1;
    resp.values = {1.0, 2.0};
    Frame frame = decodeFrame(encodePredictResponse(resp));
    frame.payload[8] += 1; // num_values follows the u64 version
    const auto reframed =
        encodeFrame(MsgType::PredictResponse, frame.payload);
    EXPECT_THROW(parsePredictResponse(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, ModelInfoRoundTrip)
{
    const Frame req = decodeFrame(encodeModelInfoRequest(0xF00D));
    ASSERT_EQ(req.type, MsgType::ModelInfoRequest);
    EXPECT_EQ(parseModelInfoRequest(req.payload), 0xF00Du);

    ModelInfo info;
    info.loaded = true;
    info.model_version = 42;
    info.benchmark = "twolf";
    info.metric = core::Metric::EnergyPerInst;
    info.trace_length = 100000;
    info.warmup = 5000;
    info.num_bases = 17;
    info.num_linear_terms = 9;
    info.param_names = {"depth", "rob", "l2size"};
    const Frame frame = decodeFrame(encodeModelInfoResponse(info));
    ASSERT_EQ(frame.type, MsgType::ModelInfoResponse);
    const ModelInfo out = parseModelInfoResponse(frame.payload);
    EXPECT_TRUE(out.loaded);
    EXPECT_EQ(out.model_version, info.model_version);
    EXPECT_EQ(out.benchmark, info.benchmark);
    EXPECT_EQ(out.metric, info.metric);
    EXPECT_EQ(out.trace_length, info.trace_length);
    EXPECT_EQ(out.warmup, info.warmup);
    EXPECT_EQ(out.num_bases, info.num_bases);
    EXPECT_EQ(out.num_linear_terms, info.num_linear_terms);
    EXPECT_EQ(out.param_names, info.param_names);
}

TEST(ServeProtocol, EmptyModelInfoRoundTrip)
{
    // A server with no model yet answers loaded=false.
    const ModelInfo out = parseModelInfoResponse(
        decodeFrame(encodeModelInfoResponse({})).payload);
    EXPECT_FALSE(out.loaded);
    EXPECT_EQ(out.model_version, 0u);
    EXPECT_TRUE(out.param_names.empty());
}

TEST(ServeProtocol, RejectsModelInfoBadLoadedFlag)
{
    Frame frame = decodeFrame(encodeModelInfoResponse({}));
    frame.payload[0] = 2; // loaded flag must be 0/1
    const auto reframed =
        encodeFrame(MsgType::ModelInfoResponse, frame.payload);
    EXPECT_THROW(
        parseModelInfoResponse(decodeFrame(reframed).payload),
        ProtocolError);
}

TEST(ServeProtocol, ModelPushRoundTrip)
{
    const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5, 0xFF};
    const Frame frame = decodeFrame(encodeModelPush(blob));
    ASSERT_EQ(frame.type, MsgType::ModelPush);
    EXPECT_EQ(parseModelPush(frame.payload), blob);

    ModelPushAck ack;
    ack.accepted = true;
    ack.model_version = 7;
    ack.message = "";
    const Frame aframe = decodeFrame(encodeModelPushAck(ack));
    ASSERT_EQ(aframe.type, MsgType::ModelPushAck);
    const ModelPushAck out = parseModelPushAck(aframe.payload);
    EXPECT_TRUE(out.accepted);
    EXPECT_EQ(out.model_version, 7u);
    EXPECT_TRUE(out.message.empty());
}

TEST(ServeProtocol, RejectsModelPushLengthLie)
{
    Frame frame = decodeFrame(encodeModelPush({1, 2, 3}));
    frame.payload[0] += 1; // blob length is bytes 0-3
    const auto reframed =
        encodeFrame(MsgType::ModelPush, frame.payload);
    EXPECT_THROW(parseModelPush(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, RejectsOversizedModelPushAtEncodeTime)
{
    const std::vector<std::uint8_t> blob(kMaxModelBytes + 1, 0xAA);
    EXPECT_THROW(encodeModelPush(blob), ProtocolError);
}

TEST(ServeProtocol, RejectsModelPushAckBadFlag)
{
    Frame frame = decodeFrame(encodeModelPushAck({}));
    frame.payload[0] = 3; // accepted flag must be 0/1
    const auto reframed =
        encodeFrame(MsgType::ModelPushAck, frame.payload);
    EXPECT_THROW(parseModelPushAck(decodeFrame(reframed).payload),
                 ProtocolError);
}

TEST(ServeProtocol, Crc32KnownVector)
{
    // The catalogue value for "123456789" pins the polynomial.
    EXPECT_EQ(ppm::util::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(ppm::util::crc32("", 0), 0x00000000u);
    // Incremental == one-shot.
    const std::uint32_t part = ppm::util::crc32("1234", 4);
    EXPECT_EQ(ppm::util::crc32("56789", 5, part), 0xCBF43926u);
}

TEST(ServeProtocol, BackoffDoublesAndSaturates)
{
    // The RemoteOracle retry schedule with the default options:
    // 25, 50, ..., clamped at backoff_max_ms.
    int ms = 25;
    std::vector<int> schedule;
    for (int i = 0; i < 8; ++i) {
        schedule.push_back(ms);
        ms = nextBackoffMs(ms, 500);
    }
    EXPECT_EQ(schedule, (std::vector<int>{25, 50, 100, 200, 400, 500,
                                          500, 500}));

    // Saturation happens before the doubling, so even a schedule
    // driven to the integer ceiling cannot overflow (the pre-fix
    // unconditional `backoff_ms *= 2` was signed-overflow UB here).
    constexpr int kMax = std::numeric_limits<int>::max();
    EXPECT_EQ(nextBackoffMs(kMax / 2 + 1, kMax), kMax);
    EXPECT_EQ(nextBackoffMs(kMax, kMax), kMax);
    EXPECT_EQ(nextBackoffMs(kMax / 2, kMax), kMax / 2 * 2);
}

} // namespace
