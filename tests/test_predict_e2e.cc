/**
 * @file
 * End-to-end prediction-plane suite: PREDICT batches are bit-identical
 * whether evaluated in-process from the snapshot, through one PREDICT
 * server, or sharded across four; an unreachable server degrades to
 * the local snapshot with identical bits; the hosted model hot-swaps
 * under concurrent load with zero failed requests and a version echo
 * that always matches the bytes served; a watched model directory
 * picks up atomic publishes; pushes are version-gated; a publisher
 * SIGKILLed mid-save never leaves an unloadable snapshot behind; and
 * the real ppm_serve binary serves predictions via --predict.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dspace/paper_space.hh"
#include "linreg/linear_model.hh"
#include "math/rng.hh"
#include "rbf/network.hh"
#include "serve/model_snapshot.hh"
#include "serve/protocol.hh"
#include "serve/remote_oracle.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"

extern char **environ;

namespace {

namespace fs = std::filesystem;
using namespace ppm;

std::string
uniqueSocket(const std::string &tag)
{
    return "/tmp/ppm_predict_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

fs::path
uniqueDir(const std::string &tag)
{
    return fs::temp_directory_path() /
           ("ppm_predict_" + tag + "_" + std::to_string(::getpid()));
}

/**
 * A deterministic hand-built snapshot over the paper space. Different
 * @p seed values yield genuinely different models, so a version swap
 * changes the served bits — which is what the swap tests verify.
 */
serve::ModelSnapshot
buildSnapshot(std::uint64_t version, std::uint64_t seed)
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    const std::size_t dims = space.size();
    math::Rng rng(seed);
    std::vector<rbf::GaussianBasis> bases;
    std::vector<double> weights;
    for (int b = 0; b < 8; ++b) {
        dspace::UnitPoint center(dims);
        std::vector<double> radius(dims);
        for (std::size_t d = 0; d < dims; ++d) {
            center[d] = rng.uniform();
            radius[d] = 0.2 + rng.uniform();
        }
        bases.emplace_back(std::move(center), std::move(radius));
        weights.push_back(rng.uniform() * 4 - 2);
    }
    std::vector<linreg::Term> terms =
        linreg::fullTwoFactorTerms(dims);
    std::vector<double> coeffs;
    for (std::size_t t = 0; t < terms.size(); ++t)
        coeffs.push_back(rng.uniform() * 2 - 1);

    serve::ModelSnapshot snap;
    snap.model_version = version;
    snap.benchmark = "twolf";
    snap.metric = core::Metric::Cpi;
    snap.trace_length = 100000;
    snap.warmup = 0;
    snap.train_points = 30;
    snap.p_min = 2;
    snap.alpha = 1.5;
    snap.space = space;
    snap.network =
        rbf::RbfNetwork(std::move(bases), std::move(weights));
    snap.linear =
        linreg::LinearModel(std::move(terms), std::move(coeffs));
    return snap;
}

/** Query batch inside the paper space; odd size exercises chunking. */
std::vector<dspace::DesignPoint>
queryBatch(int n = 33)
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    math::Rng rng(77);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < n; ++i)
        points.push_back(space.randomPoint(rng));
    return points;
}

serve::RemoteOptions
fastRemote(std::vector<std::string> sockets)
{
    serve::RemoteOptions opts;
    opts.sockets = std::move(sockets);
    opts.connect_timeout_ms = 1000;
    opts.io_timeout_ms = 30'000;
    opts.max_attempts = 2;
    opts.backoff_initial_ms = 1;
    opts.backoff_max_ms = 10;
    opts.chunk_points = 4;
    opts.max_connections = 2;
    return opts;
}

serve::ServerOptions
predictServer(const std::string &sock, const std::string &snapshot,
              unsigned workers = 2)
{
    serve::ServerOptions opts;
    opts.socket_path = sock;
    opts.num_workers = workers;
    opts.predict_snapshot = snapshot;
    return opts;
}

/** Save a snapshot to a unique temp file; caller unlinks. */
std::string
savedSnapshot(const serve::ModelSnapshot &snap,
              const std::string &tag)
{
    const std::string path =
        (uniqueDir("snap").string() + "_" + tag + ".ppmm");
    serve::saveSnapshot(snap, path);
    return path;
}

void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << "value " << i << " differs: " << got[i] << " vs "
            << want[i];
}

TEST(PredictE2E, OneShardBitIdenticalToLocalSnapshot)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const auto batch = queryBatch();
    const std::vector<double> want =
        serve::predictWithSnapshot(snap, batch);

    const std::string path = savedSnapshot(snap, "w1");
    const std::string sock = uniqueSocket("w1");
    serve::SimServer server(predictServer(sock, path));
    server.start();
    EXPECT_EQ(server.modelVersion(), 1u);

    serve::RemoteOracle oracle(snap, fastRemote({sock}));
    expectBitIdentical(oracle.evaluateAll(batch), want);
    EXPECT_EQ(oracle.remotePoints(), batch.size());
    EXPECT_EQ(oracle.fallbackPoints(), 0u);
    EXPECT_EQ(oracle.serverVersion(), 1u);
    EXPECT_EQ(oracle.evaluations(), batch.size());

    // Single-point path too.
    const double one = oracle.cpi(batch.front());
    EXPECT_EQ(one, want.front());
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, FourShardsBitIdenticalToLocalSnapshot)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const auto batch = queryBatch();
    const std::vector<double> want =
        serve::predictWithSnapshot(snap, batch);

    const std::string path = savedSnapshot(snap, "w4");
    std::vector<std::unique_ptr<serve::SimServer>> servers;
    std::vector<std::string> socks;
    for (int i = 0; i < 4; ++i) {
        socks.push_back(uniqueSocket("w4_" + std::to_string(i)));
        servers.push_back(std::make_unique<serve::SimServer>(
            predictServer(socks.back(), path, 1)));
        servers.back()->start();
    }

    serve::RemoteOracle oracle(snap, fastRemote(socks));
    expectBitIdentical(oracle.evaluateAll(batch), want);
    EXPECT_EQ(oracle.remotePoints(), batch.size());
    EXPECT_EQ(oracle.fallbackPoints(), 0u);

    for (auto &server : servers)
        server->stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, LinearBaselineServedRemotely)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const auto batch = queryBatch(9);
    const std::vector<double> want = serve::predictWithSnapshot(
        snap, batch, serve::ModelKind::Linear);

    const std::string path = savedSnapshot(snap, "lin");
    const std::string sock = uniqueSocket("lin");
    serve::SimServer server(predictServer(sock, path));
    server.start();

    serve::RemoteOracle oracle(snap, fastRemote({sock}),
                               serve::ModelKind::Linear);
    expectBitIdentical(oracle.evaluateAll(batch), want);
    EXPECT_EQ(oracle.remotePoints(), batch.size());

    // The two model families genuinely disagree, or this test would
    // pass with the ModelKind plumbing broken.
    const std::vector<double> rbf_vals =
        serve::predictWithSnapshot(snap, batch);
    EXPECT_NE(want, rbf_vals);
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, UnreachableServerFallsBackToLocalSnapshot)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const auto batch = queryBatch();
    serve::RemoteOptions opts =
        fastRemote({uniqueSocket("nobody-listens")});
    opts.connect_timeout_ms = 100;

    serve::RemoteOracle oracle(snap, opts);
    expectBitIdentical(oracle.evaluateAll(batch),
                       serve::predictWithSnapshot(snap, batch));
    EXPECT_EQ(oracle.remotePoints(), 0u);
    EXPECT_EQ(oracle.fallbackPoints(), batch.size());
    EXPECT_EQ(oracle.serverVersion(), 0u);
}

TEST(PredictE2E, NoSocketsMeansPureLocalPrediction)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const auto batch = queryBatch(7);
    serve::RemoteOracle oracle(snap);
    expectBitIdentical(oracle.evaluateAll(batch),
                       serve::predictWithSnapshot(snap, batch));
    EXPECT_EQ(oracle.fallbackPoints(), batch.size());
}

TEST(PredictE2E, ServerRejectsForeignAndOutOfSpaceQueries)
{
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const std::string path = savedSnapshot(snap, "rej");
    const std::string sock = uniqueSocket("rej");
    serve::SimServer server(predictServer(sock, path));
    server.start();

    // Out-of-space point: every coordinate far above its range.
    serve::PredictRequest req;
    req.points.push_back(
        dspace::DesignPoint(snap.space.size(), 1e9));
    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodePredictRequest(req),
                      1000);
    EXPECT_EQ(serve::readFrame(conn.get(), 5000).type,
              serve::MsgType::Error);

    // Wrong dimensionality.
    req.points = {dspace::DesignPoint(snap.space.size() - 1, 10.0)};
    serve::FdGuard conn2 = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn2.get(), serve::encodePredictRequest(req),
                      1000);
    EXPECT_EQ(serve::readFrame(conn2.get(), 5000).type,
              serve::MsgType::Error);
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, MalformedQueryGetsWellFormedErrorServerSurvives)
{
    // A malformed PREDICT (wrong dimensionality, which now raises a
    // typed error on the serve path instead of release-mode UB) must
    // come back as a well-formed Error reply with a message naming
    // the problem — and the server must keep serving afterwards.
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const std::string path = savedSnapshot(snap, "malq");
    const std::string sock = uniqueSocket("malq");
    serve::SimServer server(predictServer(sock, path));
    server.start();

    serve::PredictRequest bad;
    bad.points = {dspace::DesignPoint(snap.space.size() + 3, 10.0)};
    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodePredictRequest(bad),
                      1000);
    const serve::Frame err = serve::readFrame(conn.get(), 5000);
    ASSERT_EQ(err.type, serve::MsgType::Error);
    EXPECT_FALSE(serve::parseError(err.payload).message.empty());

    // Boundary corners (inclusive-bound contract) answered correctly
    // on a fresh connection after the malformed one.
    dspace::DesignPoint lo, hi;
    for (const dspace::Parameter &p : snap.space.params()) {
        lo.push_back(p.minValue());
        hi.push_back(p.maxValue());
    }
    serve::PredictRequest good;
    good.points = {lo, hi};
    serve::FdGuard conn2 = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn2.get(),
                      serve::encodePredictRequest(good), 1000);
    const serve::Frame reply = serve::readFrame(conn2.get(), 5000);
    ASSERT_EQ(reply.type, serve::MsgType::PredictResponse);
    const serve::PredictResponse resp =
        serve::parsePredictResponse(reply.payload);
    expectBitIdentical(resp.values,
                       serve::predictWithSnapshot(snap, good.points));
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, ModelInfoDescribesHostedSnapshot)
{
    const serve::ModelSnapshot snap = buildSnapshot(5, 100);
    const std::string path = savedSnapshot(snap, "info");
    const std::string sock = uniqueSocket("info");
    serve::SimServer server(predictServer(sock, path));
    server.start();

    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(),
                      serve::encodeModelInfoRequest(42), 1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 5000);
    ASSERT_EQ(reply.type, serve::MsgType::ModelInfoResponse);
    const serve::ModelInfo info =
        serve::parseModelInfoResponse(reply.payload);
    EXPECT_TRUE(info.loaded);
    EXPECT_EQ(info.model_version, 5u);
    EXPECT_EQ(info.benchmark, "twolf");
    EXPECT_EQ(info.num_bases, snap.network.numBases());
    EXPECT_EQ(info.num_linear_terms, snap.linear.numTerms());
    ASSERT_EQ(info.param_names.size(), snap.space.size());
    for (std::size_t i = 0; i < snap.space.size(); ++i)
        EXPECT_EQ(info.param_names[i], snap.space.param(i).name());
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, ServerWithoutModelReportsUnloadedAndRejectsPredict)
{
    const std::string sock = uniqueSocket("empty");
    serve::ServerOptions opts;
    opts.socket_path = sock;
    opts.num_workers = 1;
    serve::SimServer server(opts);
    server.start();
    EXPECT_EQ(server.modelVersion(), 0u);

    {
        // Scoped: the single worker must be free for the next
        // connection.
        serve::FdGuard conn = serve::connectUnix(sock, 1000);
        serve::writeFrame(conn.get(),
                          serve::encodeModelInfoRequest(1), 1000);
        const serve::Frame info_reply =
            serve::readFrame(conn.get(), 5000);
        ASSERT_EQ(info_reply.type, serve::MsgType::ModelInfoResponse);
        EXPECT_FALSE(
            serve::parseModelInfoResponse(info_reply.payload).loaded);
    }

    serve::PredictRequest req;
    req.points = queryBatch(1);
    serve::FdGuard conn2 = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn2.get(), serve::encodePredictRequest(req),
                      1000);
    EXPECT_EQ(serve::readFrame(conn2.get(), 5000).type,
              serve::MsgType::Error);
    server.stop();
}

TEST(PredictE2E, ModelPushIsVersionGated)
{
    const std::string path =
        savedSnapshot(buildSnapshot(2, 100), "gate");
    const std::string sock = uniqueSocket("gate");
    serve::SimServer server(predictServer(sock, path));
    server.start();
    ASSERT_EQ(server.modelVersion(), 2u);

    const auto push = [&](const serve::ModelSnapshot &snap) {
        serve::FdGuard conn = serve::connectUnix(sock, 1000);
        serve::writeFrame(
            conn.get(),
            serve::encodeModelPush(serve::encodeSnapshot(snap)),
            5000);
        const serve::Frame reply = serve::readFrame(conn.get(), 5000);
        EXPECT_EQ(reply.type, serve::MsgType::ModelPushAck);
        return serve::parseModelPushAck(reply.payload);
    };

    // Stale and equal versions are refused and change nothing.
    serve::ModelPushAck ack = push(buildSnapshot(1, 200));
    EXPECT_FALSE(ack.accepted);
    EXPECT_EQ(ack.model_version, 2u);
    ack = push(buildSnapshot(2, 200));
    EXPECT_FALSE(ack.accepted);
    EXPECT_EQ(server.modelVersion(), 2u);
    EXPECT_EQ(server.modelSwaps(), 0u);

    // A greater version swaps.
    ack = push(buildSnapshot(3, 200));
    EXPECT_TRUE(ack.accepted);
    EXPECT_EQ(ack.model_version, 3u);
    EXPECT_EQ(server.modelVersion(), 3u);
    EXPECT_EQ(server.modelSwaps(), 1u);

    // A push that does not even decode is refused without side effects.
    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(),
                      serve::encodeModelPush({1, 2, 3, 4}), 1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 5000);
    ASSERT_EQ(reply.type, serve::MsgType::ModelPushAck);
    EXPECT_FALSE(serve::parseModelPushAck(reply.payload).accepted);
    EXPECT_EQ(server.modelVersion(), 3u);
    server.stop();
    ::unlink(path.c_str());
}

TEST(PredictE2E, HotSwapUnderLoadServesConsistentBitsAndVersions)
{
    // Clients hammer PREDICT while the model is pushed from v1 to v2.
    // The contract: zero failed requests, and every response's values
    // are exactly the v1 bits or exactly the v2 bits, matching the
    // version the response echoes — never a torn mixture.
    const serve::ModelSnapshot v1 = buildSnapshot(1, 100);
    const serve::ModelSnapshot v2 = buildSnapshot(2, 999);
    const auto batch = queryBatch(5);
    const std::vector<double> bits_v1 =
        serve::predictWithSnapshot(v1, batch);
    const std::vector<double> bits_v2 =
        serve::predictWithSnapshot(v2, batch);
    ASSERT_NE(bits_v1, bits_v2);

    const std::string path = savedSnapshot(v1, "swap");
    const std::string sock = uniqueSocket("swap");
    serve::SimServer server(predictServer(sock, path, 4));
    server.start();

    constexpr int kClients = 2;
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<int> saw_v2{0};
    std::atomic<std::uint64_t> responses{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            bool observed_v2 = false;
            serve::FdGuard conn = serve::connectUnix(sock, 1000);
            serve::PredictRequest req;
            req.points = batch;
            const auto frame = serve::encodePredictRequest(req);
            while (!stop.load(std::memory_order_relaxed)) {
                serve::writeFrame(conn.get(), frame, 5000);
                const serve::Frame reply =
                    serve::readFrame(conn.get(), 5000);
                responses.fetch_add(1, std::memory_order_relaxed);
                if (reply.type != serve::MsgType::PredictResponse) {
                    failures.fetch_add(1);
                    continue;
                }
                const serve::PredictResponse resp =
                    serve::parsePredictResponse(reply.payload);
                const std::vector<double> *want = nullptr;
                if (resp.model_version == 1)
                    want = &bits_v1;
                else if (resp.model_version == 2)
                    want = &bits_v2;
                if (want == nullptr || resp.values != *want) {
                    failures.fetch_add(1);
                    continue;
                }
                if (resp.model_version == 2 && !observed_v2) {
                    observed_v2 = true;
                    saw_v2.fetch_add(1);
                }
            }
        });
    }

    // Let the clients land some v1 traffic, then swap mid-stream.
    while (responses.load(std::memory_order_relaxed) < 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(server.modelHost().install(v2, "test-push"));

    // Run until every client has seen the new model (bounded wait).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (saw_v2.load() < kClients &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop.store(true);
    for (auto &t : clients)
        t.join();
    server.stop();
    ::unlink(path.c_str());

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(saw_v2.load(), kClients)
        << "a client never observed the swapped model";
    EXPECT_EQ(server.modelSwaps(), 1u);
    EXPECT_GE(responses.load(), 20u);
}

TEST(PredictE2E, WatchedDirectoryHotSwapsAtomicPublishes)
{
    const fs::path dir = uniqueDir("watch");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string sock = uniqueSocket("watch");

    serve::ServerOptions opts;
    opts.socket_path = sock;
    opts.num_workers = 1;
    opts.model_dir = dir.string();
    opts.model_poll_ms = 25;
    serve::SimServer server(opts);
    server.start();
    EXPECT_EQ(server.modelVersion(), 0u); // empty dir: no model yet

    const auto waitForVersion = [&](std::uint64_t v) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (server.modelVersion() != v &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        return server.modelVersion() == v;
    };

    // An atomic publish (saveSnapshot = temp + rename) is picked up.
    serve::saveSnapshot(buildSnapshot(1, 100),
                        (dir / "model.ppmm").string());
    EXPECT_TRUE(waitForVersion(1)) << "watcher missed the publish";

    // Republishing the same file with a greater version swaps...
    serve::saveSnapshot(buildSnapshot(2, 999),
                        (dir / "model.ppmm").string());
    EXPECT_TRUE(waitForVersion(2)) << "watcher missed the re-publish";
    EXPECT_EQ(server.modelSwaps(), 1u);

    // ...and a stale snapshot appearing later never rolls back.
    serve::saveSnapshot(buildSnapshot(1, 100),
                        (dir / "stale.ppmm").string());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(server.modelVersion(), 2u);

    // A file that is not a snapshot is counted, not fatal.
    {
        std::FILE *f = std::fopen(
            (dir / "junk.ppmm").string().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("definitely not a model", f);
        std::fclose(f);
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (server.modelHost().loadFailures() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(server.modelHost().loadFailures(), 1u);
    EXPECT_EQ(server.modelVersion(), 2u);

    server.stop();
    fs::remove_all(dir);
}

TEST(PredictE2E, SigkillMidPublishLeavesLoadableSnapshot)
{
    // A publisher killed at an arbitrary instant must never corrupt
    // the snapshot consumers load: saveSnapshot writes a temp file
    // and rename()s, so the target is always a complete image.
    const fs::path dir = uniqueDir("kill");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "model.ppmm").string();
    serve::saveSnapshot(buildSnapshot(1, 100), path);

    for (int round = 0; round < 4; ++round) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: republish as fast as possible until killed.
            for (std::uint64_t v = 2;; ++v) {
                try {
                    serve::saveSnapshot(
                        buildSnapshot(v, 100 + v), path);
                } catch (...) {
                    ::_exit(1);
                }
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(3 + 4 * round));
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        ASSERT_TRUE(WIFSIGNALED(status));

        serve::ModelSnapshot loaded;
        ASSERT_NO_THROW(loaded = serve::loadSnapshot(path))
            << "round " << round
            << ": SIGKILL mid-publish corrupted the snapshot";
        EXPECT_GE(loaded.model_version, 1u);
    }
    fs::remove_all(dir);
}

TEST(PredictE2E, SpawnedServerBinaryServesPredictions)
{
    const serve::ModelSnapshot snap = buildSnapshot(4, 100);
    const auto batch = queryBatch(11);
    const std::vector<double> want =
        serve::predictWithSnapshot(snap, batch);

    const std::string path = savedSnapshot(snap, "bin");
    const std::string sock = uniqueSocket("bin");
    fs::remove(sock);
    const char *argv[] = {PPM_SERVE_BIN,  "--socket", sock.c_str(),
                          "--workers",    "1",        "--predict",
                          path.c_str(),   nullptr};
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, PPM_SERVE_BIN, nullptr, nullptr,
                            const_cast<char *const *>(argv), environ),
              0);
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        try {
            serve::FdGuard conn = serve::connectUnix(sock, 100);
            serve::writeFrame(conn.get(), serve::encodePing(1), 500);
            up = serve::readFrame(conn.get(), 500).type ==
                 serve::MsgType::Pong;
        } catch (const std::exception &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
    }
    ASSERT_TRUE(up) << "ppm_serve never came up on " << sock;

    serve::RemoteOracle oracle(snap, fastRemote({sock}));
    expectBitIdentical(oracle.evaluateAll(batch), want);
    EXPECT_EQ(oracle.remotePoints(), batch.size());
    EXPECT_EQ(oracle.serverVersion(), 4u);

    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    fs::remove(sock);
    ::unlink(path.c_str());
}

} // namespace
