// Golden-trace replay: the determinism acceptance bar of the record/replay
// subsystem. A 3-epoch background-mode run is recorded once and must
// replay bit-identically — prepare order, 2PC outcome stream, per-step
// metrics series, alloc_overlap_ratio — under every thread count and
// ingest fan-out, and the committed fixture in testdata/ pins today's
// canonical execution against silent behaviour drift (regenerate it
// deliberately with the `regen-golden-trace` target). The fixture also pins
// the trace format: it must re-save byte for byte, dump to the committed
// CSV, and every seeded mutation of it must fail to load as Corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "golden_trace_fixture.h"
#include "txallo/common/rng.h"
#include "txallo/common/sha256.h"
#include "txallo/engine/replay.h"
#include "txallo/workload/ethereum_like.h"

#ifndef TXALLO_TESTDATA_DIR
#error "TXALLO_TESTDATA_DIR must point at tests/engine/testdata"
#endif

namespace txallo {
namespace {

std::string TestdataPath(const std::string& file) {
  return std::string(TXALLO_TESTDATA_DIR) + "/" + file;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

chain::Ledger GoldenLedger() {
  workload::EthereumLikeGenerator generator(testing::GoldenWorkloadConfig());
  return generator.GenerateLedger(testing::kGoldenBlocks);
}

Result<engine::PipelineResult> Replay(const chain::Ledger& ledger,
                                      const engine::ReplayLog& log,
                                      uint32_t threads, uint32_t producers,
                                      engine::ReplayLog* rerecord = nullptr) {
  engine::ParallelEngine engine(testing::GoldenEngineConfig(threads),
                                nullptr);
  engine::PipelineConfig pipeline;
  pipeline.ingest_producers = producers;
  pipeline.record = rerecord;
  return engine::ReplayRecordedStream(ledger, log, &engine, pipeline);
}

TEST(ReplayGoldenTest, FreshRecordingReplaysAcrossThreadsAndProducers) {
  const chain::Ledger ledger = GoldenLedger();
  auto recorded = testing::RecordGoldenTrace();
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_EQ(recorded->epochs, 3u);  // The 3-epoch run the fixture pins.
  ASSERT_GE(recorded->installs.size(), 2u);
  ASSERT_FALSE(recorded->prepares.empty());
  // The state backend is on: every tick fingerprints committed state, and
  // the tight golden funding makes the abort path part of the pinned run.
  ASSERT_TRUE(recorded->meta.state_enabled);
  ASSERT_FALSE(recorded->state_roots.empty());
  uint64_t aborted = 0;
  for (const engine::CommitEvent& event : recorded->commits) {
    if (event.aborted) ++aborted;
  }
  EXPECT_GT(aborted, 0u) << "golden funding no longer exercises aborts";

  for (const uint32_t threads : {1u, 2u, 8u}) {
    for (const uint32_t producers : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " producers=" + std::to_string(producers));
      engine::ReplayLog rerecorded;
      auto replayed =
          Replay(ledger, *recorded, threads, producers, &rerecorded);
      // ReplayRecordedStream verifies bit-identity internally; ok() IS the
      // assertion. The explicit re-compare below documents what that
      // means: the prepare stream, 2PC outcomes and step series are equal
      // event for event.
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_EQ(engine::DescribeTraceDivergence(*recorded, rerecorded), "");
      // Structural state verification: the per-tick Merkle roots — not
      // just the event streams — reproduce bit-identically whatever the
      // thread count and ingest fan-out.
      EXPECT_EQ(rerecorded.state_roots, recorded->state_roots);
      ASSERT_EQ(replayed->steps.size(), recorded->steps.size());
      for (size_t i = 0; i < recorded->steps.size(); ++i) {
        EXPECT_EQ(replayed->steps[i], recorded->steps[i])
            << "step " << i << " diverged";
      }
      // Wall-clock observations are preserved verbatim, so even the
      // overlap ratio is bit-identical across replays.
      EXPECT_EQ(replayed->alloc_overlap_ratio,
                recorded->alloc_overlap_ratio);
      EXPECT_EQ(replayed->alloc_seconds, recorded->alloc_seconds);
      EXPECT_EQ(replayed->accounts_moved, recorded->accounts_moved);
      EXPECT_EQ(replayed->epochs, recorded->epochs);
    }
  }
}

TEST(ReplayGoldenTest, CommittedFixtureReplaysBitIdentically) {
  const std::string path =
      std::string(TXALLO_TESTDATA_DIR) + "/" + testing::kGoldenTraceFile;
  auto fixture = engine::LoadReplayLog(path);
  ASSERT_TRUE(fixture.ok())
      << fixture.status().ToString()
      << " — regenerate with: cmake --build <build> --target "
         "regen-golden-trace";
  const chain::Ledger ledger = GoldenLedger();
  ASSERT_EQ(fixture->meta.ledger_fingerprint,
            engine::FingerprintLedger(ledger))
      << "the golden workload drifted; the fixture no longer matches";
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto replayed = Replay(ledger, *fixture, threads, /*producers=*/2);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  }
}

TEST(ReplayGoldenTest, CommittedFixtureMatchesFreshRecording) {
  // The strongest drift guard: recording the golden scenario today must
  // produce byte-for-byte the deterministic content committed in the
  // fixture — engine execution, ingest order, allocator output and install
  // schedule all pinned at once.
  const std::string path =
      std::string(TXALLO_TESTDATA_DIR) + "/" + testing::kGoldenTraceFile;
  auto fixture = engine::LoadReplayLog(path);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto fresh = testing::RecordGoldenTrace();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(engine::DescribeTraceDivergence(*fixture, *fresh), "")
      << "intentional change? regenerate via the regen-golden-trace target "
         "and review the fixture diff";
}

TEST(ReplayGoldenTest, CommittedFixtureResavesByteIdentically) {
  const std::string path = TestdataPath(testing::kGoldenTraceFile);
  auto fixture = engine::LoadReplayLog(path);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::string resaved = ::testing::TempDir() + "golden_resaved.trace";
  ASSERT_TRUE(engine::SaveReplayLog(*fixture, resaved).ok());
  EXPECT_TRUE(ReadFile(resaved) == ReadFile(path))
      << "SaveReplayLog no longer writes the TXTRACE5 bytes it reads";
}

TEST(ReplayGoldenTest, CommittedFixtureDumpsToTheCommittedCsv) {
  // golden_small.csv pins the dump's header, row order and number
  // formatting; the regen-golden-trace target rewrites it with the trace.
  auto fixture =
      engine::LoadReplayLog(TestdataPath(testing::kGoldenTraceFile));
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const std::string dumped = ::testing::TempDir() + "golden_dump.csv";
  ASSERT_TRUE(engine::DumpReplayLogCsv(*fixture, dumped).ok());
  EXPECT_TRUE(ReadFile(dumped) == ReadFile(TestdataPath("golden_small.csv")))
      << "CSV dump drifted; diff " << dumped << " against testdata";
}

// Rewrites the body checksum after the magic so a mutated body passes it,
// which leaves the field reader alone to reject (or accept) the bytes.
void ResealChecksum(std::string* trace) {
  uint64_t checksum = Sha256::Hash64(std::string_view(*trace).substr(16));
  for (size_t b = 0; b < 8; ++b) {
    (*trace)[8 + b] = static_cast<char>(checksum & 0xff);
    checksum >>= 8;
  }
}

TEST(ReplayGoldenTest, SeededMutationsLoadOrFailAsCorruption) {
  const std::string path = TestdataPath(testing::kGoldenTraceFile);
  const std::string bytes = ReadFile(path);
  auto log = engine::LoadReplayLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  // Offsets of every u64 length or count in the fixture, walked from the
  // loaded log with the TXTRACE5 record sizes.
  std::vector<size_t> counts;
  size_t pos = 8 + 8 + 127;  // Magic, checksum, fixed-width meta fields.
  counts.push_back(pos);  // workload_spec length.
  pos += 8 + log->meta.workload_spec.size() + 5 * 8;  // + log scalars.
  counts.push_back(pos);
  pos += 8 + 20 * log->prepares.size();
  counts.push_back(pos);
  pos += 8 + 18 * log->commits.size();
  counts.push_back(pos);
  pos += 8 + 40 * log->state_roots.size();
  counts.push_back(pos);
  pos += 8;
  for (const engine::InstallEvent& install : log->installs) {
    counts.push_back(pos + 8);  // The mapping's account count.
    pos += 8 + 8 + 4 + 4 * install.allocation.num_accounts();
  }
  counts.push_back(pos);
  pos += 8 + 161 * log->steps.size();
  ASSERT_EQ(pos, bytes.size()) << "count offsets no longer walk the file";

  Rng rng(20240613);
  const std::string mutated_path = ::testing::TempDir() + "mutated.trace";
  size_t resealed_loaded = 0;
  constexpr int kCases = 2000;
  for (int i = 0; i < kCases; ++i) {
    std::string mutated = bytes;
    const int kind = i % 4;
    switch (kind) {
      case 0:    // Flip one to four random bytes.
      case 3: {  // The same, with the checksum resealed afterwards.
        const uint64_t flips = 1 + rng.NextBounded(4);
        for (uint64_t f = 0; f < flips; ++f) {
          const size_t at = rng.NextBounded(mutated.size());
          mutated[at] = static_cast<char>(mutated[at] ^
                                          (1 + rng.NextBounded(255)));
        }
        if (kind == 3) ResealChecksum(&mutated);
        break;
      }
      case 1:  // Truncate anywhere.
        mutated.resize(rng.NextBounded(mutated.size()));
        break;
      case 2: {  // Set one count to 2^63 and reseal: the reader must catch it.
        const size_t at = counts[rng.NextBounded(counts.size())];
        for (size_t b = 0; b < 8; ++b) mutated[at + b] = 0;
        mutated[at + 7] = static_cast<char>(0x80);
        ResealChecksum(&mutated);
        break;
      }
    }
    WriteFile(mutated_path, mutated);
    const Result<engine::ReplayLog> loaded =
        engine::LoadReplayLog(mutated_path);
    if (mutated == bytes) {  // Flips that cancelled out.
      EXPECT_TRUE(loaded.ok()) << "case " << i;
      continue;
    }
    const bool magic_intact =
        mutated.size() >= 16 && mutated.compare(0, 8, bytes, 0, 8) == 0;
    if (kind == 3 && magic_intact && loaded.ok()) {
      // A resealed flip inside a payload can stay valid; a mapping that
      // loads still names only shards it has.
      ++resealed_loaded;
      for (const engine::InstallEvent& install : loaded->installs) {
        const std::vector<alloc::ShardId>& shards = install.allocation.raw();
        EXPECT_TRUE(std::all_of(shards.begin(), shards.end(), [&](auto s) {
          return s == alloc::kUnassignedShard ||
                 s < install.allocation.num_shards();
        })) << "case " << i;
      }
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << "case " << i << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "case " << i << ": " << loaded.status().ToString();
    // Unsealed changes fail on the checksum, before any field is read;
    // resealed ones get past it and fail in the reader.
    const bool checksum_failure =
        loaded.status().message().find("checksum") != std::string::npos;
    if (magic_intact) {
      EXPECT_EQ(checksum_failure, kind == 0 || kind == 1)
          << "case " << i << ": " << loaded.status().ToString();
    }
  }
  // None loading would mean the resealed flips never reached a payload.
  EXPECT_GT(resealed_loaded, 0u);
}

}  // namespace
}  // namespace txallo
