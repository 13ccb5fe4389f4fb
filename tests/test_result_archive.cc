/**
 * @file
 * ResultArchive suite: persistence round-trips, crash recovery
 * (corrupted or truncated trailing records are detected by CRC,
 * skipped, and truncated away while every earlier record loads), the
 * context guard against mixing result sets, and the oracle warm-start
 * path — a second oracle on the same archive re-serves a batch with
 * zero new simulator invocations and bit-identical values.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "sampling/sample_gen.hh"
#include "serve/result_archive.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

namespace {

namespace fs = std::filesystem;
using namespace ppm;
using serve::ArchiveError;
using serve::ResultArchive;
using Key = core::ResultStore::Key;

/** Fresh per-test scratch directory, removed on teardown. */
class ResultArchiveTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("ppm_archive_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    archivePath(const std::string &name = "test.ppma") const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

std::vector<std::pair<Key, double>>
drain(ResultArchive &archive)
{
    std::vector<std::pair<Key, double>> out;
    archive.load([&](const Key &k, double v) {
        out.emplace_back(k, v);
    });
    return out;
}

void
flipByteAt(const std::string &path, std::uintmax_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

TEST_F(ResultArchiveTest, RoundTripAcrossInstances)
{
    const Key k1{1000000, -2500000, 64000000};
    const Key k2{7, 0, -1};
    {
        ResultArchive archive(archivePath(), "ctx");
        EXPECT_EQ(archive.recordsLoaded(), 0u);
        archive.append(k1, 1.25);
        archive.append(k2, -3.5e-9);
    }
    ResultArchive reopened(archivePath(), "ctx");
    EXPECT_EQ(reopened.recordsLoaded(), 2u);
    EXPECT_EQ(reopened.recordsSkipped(), 0u);
    const auto entries = drain(reopened);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].first, k1);
    EXPECT_EQ(entries[0].second, 1.25);
    EXPECT_EQ(entries[1].first, k2);
    EXPECT_EQ(entries[1].second, -3.5e-9);
}

TEST_F(ResultArchiveTest, AppendsAccumulateAcrossGenerations)
{
    {
        ResultArchive a(archivePath(), "ctx");
        a.append({1}, 1.0);
    }
    {
        ResultArchive b(archivePath(), "ctx");
        EXPECT_EQ(b.recordsLoaded(), 1u);
        b.append({2}, 2.0);
    }
    ResultArchive c(archivePath(), "ctx");
    EXPECT_EQ(c.recordsLoaded(), 2u);
}

TEST_F(ResultArchiveTest, CorruptTrailingRecordIsSkippedAndTruncated)
{
    std::uintmax_t clean_two = 0;
    {
        ResultArchive archive(archivePath(), "ctx");
        archive.append({10, 20}, 0.5);
        archive.append({30, 40}, 1.5);
        clean_two = fs::file_size(archivePath());
        archive.append({50, 60}, 2.5);
    }
    // Flip one byte inside the last record's payload: its CRC no
    // longer matches, so recovery must drop exactly that record.
    flipByteAt(archivePath(), fs::file_size(archivePath()) - 6);

    {
        ResultArchive recovered(archivePath(), "ctx");
        EXPECT_EQ(recovered.recordsLoaded(), 2u);
        EXPECT_EQ(recovered.recordsSkipped(), 1u);
        const auto entries = drain(recovered);
        ASSERT_EQ(entries.size(), 2u);
        EXPECT_EQ(entries[0].first, (Key{10, 20}));
        EXPECT_EQ(entries[1].first, (Key{30, 40}));
        // The corrupt tail is gone from disk, not just ignored.
        EXPECT_EQ(fs::file_size(archivePath()), clean_two);
        // The log is writable again after recovery.
        recovered.append({70, 80}, 3.5);
    }
    ResultArchive clean(archivePath(), "ctx");
    EXPECT_EQ(clean.recordsLoaded(), 3u);
    EXPECT_EQ(clean.recordsSkipped(), 0u);
}

TEST_F(ResultArchiveTest, TruncatedTrailingRecordIsRecovered)
{
    {
        ResultArchive archive(archivePath(), "ctx");
        archive.append({1, 2, 3}, 4.0);
        archive.append({5, 6, 7}, 8.0);
    }
    // Simulate a crash mid-append: chop bytes off the final record.
    fs::resize_file(archivePath(), fs::file_size(archivePath()) - 5);

    ResultArchive recovered(archivePath(), "ctx");
    EXPECT_EQ(recovered.recordsLoaded(), 1u);
    EXPECT_EQ(recovered.recordsSkipped(), 1u);
    const auto entries = drain(recovered);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, (Key{1, 2, 3}));
    EXPECT_EQ(entries[0].second, 4.0);
}

TEST_F(ResultArchiveTest, ContextMismatchIsRejected)
{
    {
        ResultArchive archive(archivePath(), "mcf|t100|w10|CPI");
        archive.append({1}, 1.0);
    }
    EXPECT_THROW(ResultArchive(archivePath(), "gcc|t100|w10|CPI"),
                 ArchiveError);
    // The original context still opens fine.
    ResultArchive ok(archivePath(), "mcf|t100|w10|CPI");
    EXPECT_EQ(ok.recordsLoaded(), 1u);
}

TEST_F(ResultArchiveTest, NonArchiveFileIsRejected)
{
    const std::string path = archivePath("junk.ppma");
    std::ofstream(path) << "definitely not an archive";
    EXPECT_THROW(ResultArchive(path, "ctx"), ArchiveError);
}

TEST_F(ResultArchiveTest, FileNameForIsContextUnique)
{
    EXPECT_EQ(ResultArchive::fileNameFor("mcf", 100000, 15000,
                                         core::Metric::Cpi),
              "mcf_t100000_w15000_CPI.ppma");
    // Separator characters in benchmark names cannot forge paths.
    EXPECT_EQ(ResultArchive::fileNameFor("a/b|c", 1, 2,
                                         core::Metric::EnergyPerInst),
              "a_b_c_t1_w2_EPI.ppma");
}

TEST_F(ResultArchiveTest, ContextKeyIsPinned)
{
    // Every archive on disk carries this string in its header; a
    // changed spelling would make all of them fail the context check.
    EXPECT_EQ(ResultArchive::contextFor("mcf", 100000, 15000,
                                        core::Metric::Cpi),
              "mcf|t100000|w15000|CPI");
    EXPECT_EQ(ResultArchive::contextFor("twolf", 1, 0,
                                        core::Metric::EnergyDelaySquared),
              "twolf|t1|w0|ED2P");
    // The simulation context is the metric-less prefix.
    EXPECT_EQ(ResultArchive::simContextFor("mcf", 100000, 15000),
              "mcf|t100000|w15000");

    // An archive written under the pinned string opens under the key.
    {
        ResultArchive archive(archivePath(), "mcf|t100000|w15000|CPI");
        archive.append({1}, 1.0);
    }
    ResultArchive reopened(
        archivePath(),
        ResultArchive::contextFor("mcf", 100000, 15000, core::Metric::Cpi));
    EXPECT_EQ(reopened.recordsLoaded(), 1u);
}

TEST_F(ResultArchiveTest, OracleWarmStartSkipsAllSimulations)
{
    auto space = dspace::paperTrainSpace();
    const auto tr = trace::generateTrace(
        trace::profileByName("mcf"), 12000);
    sim::SimOptions sim_opts;
    sim_opts.warmup_instructions = 2000;

    math::Rng rng(42);
    const auto batch =
        sampling::bestLatinHypercube(space, 6, 2, rng).points;

    std::vector<double> first;
    {
        core::SimulatorOracle oracle(space, tr, sim_opts);
        oracle.attachStore(std::make_shared<ResultArchive>(
            archivePath(), "warm"));
        EXPECT_EQ(oracle.archivedResults(), 0u);
        first = oracle.evaluateAll(batch);
        EXPECT_EQ(oracle.evaluations(), batch.size());
    }

    // A brand-new oracle over the same archive serves the whole batch
    // from disk: zero simulator invocations, bit-identical values.
    core::SimulatorOracle warm(space, tr, sim_opts);
    warm.attachStore(
        std::make_shared<ResultArchive>(archivePath(), "warm"));
    EXPECT_EQ(warm.archivedResults(), batch.size());
    const auto second = warm.evaluateAll(batch);
    EXPECT_EQ(warm.evaluations(), 0u);
    EXPECT_EQ(second, first);

    // A genuinely new point still simulates — the archive is a cache,
    // not a gag.
    math::Rng probe(7);
    warm.cpi(space.randomPoint(probe));
    EXPECT_EQ(warm.evaluations(), 1u);
}

} // namespace
