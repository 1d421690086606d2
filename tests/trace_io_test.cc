/**
 * @file
 * Tests for the .ltct v2 streaming trace container (trace/trace_io.hh):
 * bit-exact round trips across chunk-boundary sizes, v1 -> v2
 * conversion, typed errors on malformed input, the ChampSim importer,
 * and the O(chunk) replay-memory bound.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "test_sources.hh"
#include "trace/file_trace.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/**
 * Adversarial reference stream: full-width random PCs/addresses (the
 * worst case for delta encoding), gaps spanning the inline and
 * escaped control-byte ranges, and random flags.
 */
std::vector<MemRef>
randomRefs(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<MemRef> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        MemRef r;
        r.pc = rng.next();
        r.addr = rng.next();
        r.op = rng.chance(0.3) ? MemOp::Store : MemOp::Load;
        switch (rng.below(4)) {
          case 0:
            r.nonMemGap = 0;
            break;
          case 1:
            r.nonMemGap = static_cast<std::uint32_t>(rng.below(62));
            break;
          case 2: // the control-byte escape boundary
            r.nonMemGap =
                62 + static_cast<std::uint32_t>(rng.below(4));
            break;
          default:
            r.nonMemGap = static_cast<std::uint32_t>(rng.next());
            break;
        }
        r.dependsOnPrev = rng.chance(0.5);
        refs.push_back(r);
    }
    return refs;
}

std::vector<MemRef>
readAll(const std::string &path, TraceErrc &err)
{
    return readTraceFile(path, &err);
}

/** The records @p reader has left, read @p batch at a time. */
std::vector<MemRef>
drain(StreamingTraceReader &reader, std::size_t batch)
{
    std::vector<MemRef> refs;
    std::vector<MemRef> buf(batch);
    std::size_t got;
    do {
        got = reader.fill(buf);
        refs.insert(refs.end(), buf.begin(), buf.begin() + got);
    } while (got == batch);
    return refs;
}

std::vector<unsigned char>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

// v2 layout constants mirrored from docs/TRACE_FORMAT.md.
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kCountOffset = 16;
constexpr std::size_t kChunkHeaderBytes = 16;

// ------------------------------------------------- property: round trip

TEST(TraceIoPropertyTest, RoundTripsBitExactAcrossChunkBoundaries)
{
    constexpr std::uint32_t chunk = 64;
    const std::size_t sizes[] = {0,         1,         chunk - 1,
                                 chunk,     chunk + 1, 3 * chunk + 7};
    for (std::size_t n : sizes) {
        const std::string path =
            tmpPath("rt_" + std::to_string(n) + ".ltct");
        const auto refs = randomRefs(n, 0x1000 + n);

        StreamingTraceWriter writer(path, chunk);
        for (const MemRef &r : refs)
            writer.append(r);
        ASSERT_EQ(writer.finish(), TraceErrc::Ok) << "n=" << n;

        StreamingTraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << traceErrcName(reader.error());
        EXPECT_EQ(reader.version(), 2u);
        EXPECT_EQ(reader.records(), n);
        const std::vector<MemRef> back = drain(reader, 1);
        ASSERT_TRUE(reader.ok()) << traceErrcName(reader.error());
        ASSERT_EQ(back.size(), refs.size()) << "n=" << n;
        for (std::size_t i = 0; i < refs.size(); i++)
            ASSERT_TRUE(back[i] == refs[i])
                << "n=" << n << " record " << i;
        EXPECT_LE(reader.maxBufferedRecords(), chunk);

        // reset() replays the identical stream, here in batches that
        // straddle chunk boundaries.
        reader.reset();
        const std::vector<MemRef> replayed = drain(reader, 7);
        ASSERT_EQ(replayed.size(), n);
        for (std::size_t i = 0; i < n; i++)
            ASSERT_TRUE(replayed[i] == refs[i]) << "replay " << i;
        std::remove(path.c_str());
    }
}

TEST(TraceIoPropertyTest, V1ToV2ConvertPreservesSequence)
{
    const std::string v1 = tmpPath("conv_v1.bin");
    const std::string v2 = tmpPath("conv_v2.ltct");
    const auto refs = randomRefs(777, 99);
    writeTraceFileV1(v1, refs);

    ASSERT_EQ(convertTraceFile(v1, v2, /*limit=*/0,
                               /*chunk_records=*/128),
              TraceErrc::Ok);
    TraceErrc err = TraceErrc::Ok;
    const auto back = readAll(v2, err);
    ASSERT_EQ(err, TraceErrc::Ok);
    ASSERT_EQ(back.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); i++)
        ASSERT_TRUE(back[i] == refs[i]) << "record " << i;
}

TEST(TraceIoPropertyTest, ConvertHonoursLimit)
{
    const std::string v1 = tmpPath("convlim_v1.bin");
    const std::string v2 = tmpPath("convlim_v2.ltct");
    const auto refs = randomRefs(100, 5);
    writeTraceFileV1(v1, refs);
    ASSERT_EQ(convertTraceFile(v1, v2, /*limit=*/37), TraceErrc::Ok);
    TraceErrc err = TraceErrc::Ok;
    const auto back = readAll(v2, err);
    ASSERT_EQ(err, TraceErrc::Ok);
    ASSERT_EQ(back.size(), 37u);
    for (std::size_t i = 0; i < back.size(); i++)
        ASSERT_TRUE(back[i] == refs[i]) << "record " << i;
}

TEST(TraceIoTest, ReaderAcceptsLegacyV1)
{
    const std::string path = tmpPath("legacy_v1.bin");
    const auto refs = randomRefs(5000, 3);
    writeTraceFileV1(path, refs);
    StreamingTraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.version(), 1u);
    EXPECT_EQ(reader.records(), refs.size());
    const std::vector<MemRef> back = drain(reader, 1);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(back.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); i++)
        ASSERT_TRUE(back[i] == refs[i]) << "record " << i;
    // v1 replay is streamed in fixed blocks, not loaded eagerly.
    EXPECT_LE(reader.maxBufferedRecords(), 4096u);
}

// ------------------------------------------------------ capture helper

TEST(TraceIoTest, CaptureToFileSnapshotsSource)
{
    const std::string path = tmpPath("capture.ltct");
    const auto refs = randomRefs(500, 11);
    VectorTrace src(refs);

    std::uint64_t written = 0;
    ASSERT_EQ(captureToFile(src, path, 200, &written, 64),
              TraceErrc::Ok);
    EXPECT_EQ(written, 200u);

    // Capturing more than the source holds stops at its end.
    ASSERT_EQ(captureToFile(src, path, 10'000, &written, 64),
              TraceErrc::Ok);
    EXPECT_EQ(written, refs.size());

    TraceErrc err = TraceErrc::Ok;
    const auto back = readAll(path, err);
    ASSERT_EQ(err, TraceErrc::Ok);
    ASSERT_EQ(back.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); i++)
        ASSERT_TRUE(back[i] == refs[i]) << "record " << i;
    std::remove(path.c_str());
}

// ------------------------------------------------------- typed errors

TEST(TraceIoErrorTest, MissingFile)
{
    TraceErrc err = TraceErrc::Ok;
    const auto refs = readAll("/nonexistent/ltc.ltct", err);
    EXPECT_EQ(err, TraceErrc::OpenFailed);
    EXPECT_TRUE(refs.empty());
}

TEST(TraceIoErrorTest, TruncatedHeader)
{
    const std::string path = tmpPath("trunc_header.ltct");
    writeTraceFile(path, randomRefs(10, 1));
    auto bytes = slurp(path);
    bytes.resize(10);
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::TruncatedHeader);
}

TEST(TraceIoErrorTest, BadMagic)
{
    const std::string path = tmpPath("bad_magic.ltct");
    writeTraceFile(path, randomRefs(10, 1));
    auto bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::BadMagic);
}

TEST(TraceIoErrorTest, FutureVersion)
{
    const std::string path = tmpPath("future_version.ltct");
    writeTraceFile(path, randomRefs(10, 1));
    auto bytes = slurp(path);
    bytes[kVersionOffset] = 3; // little-endian low byte
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::UnsupportedVersion);
}

TEST(TraceIoErrorTest, CorruptChunkChecksum)
{
    const std::string path = tmpPath("bad_checksum.ltct");
    writeTraceFile(path, randomRefs(100, 2));
    auto bytes = slurp(path);
    const std::size_t payload = kHeaderBytes + kChunkHeaderBytes;
    ASSERT_GT(bytes.size(), payload);
    bytes[payload] ^= 0xff; // flip bits in the first payload byte
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::ChecksumMismatch);
    // A failed convert leaves no container behind.
    const std::string out = tmpPath("bad_checksum_out.ltct");
    EXPECT_EQ(convertTraceFile(path, out), TraceErrc::ChecksumMismatch);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(TraceIoErrorTest, TruncatedChunkPayload)
{
    const std::string path = tmpPath("trunc_chunk.ltct");
    writeTraceFile(path, randomRefs(100, 2));
    auto bytes = slurp(path);
    bytes.erase(bytes.end() - 7, bytes.end()); // cut mid-payload
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::TruncatedChunk);
}

TEST(TraceIoErrorTest, MalformedRecordEncoding)
{
    const std::string path = tmpPath("malformed.ltct");
    writeTraceFile(path, randomRefs(20, 2));
    auto bytes = slurp(path);
    // Overwrite the payload with non-terminating varint bytes and
    // re-seal the chunk checksum, so decode itself must fail.
    const std::size_t payload_at = kHeaderBytes + kChunkHeaderBytes;
    ASSERT_GT(bytes.size(), payload_at);
    for (std::size_t i = payload_at; i < bytes.size(); i++)
        bytes[i] = 0xff;
    const std::uint32_t checksum = fnv1a32(
        bytes.data() + payload_at, bytes.size() - payload_at);
    for (int i = 0; i < 4; i++)
        bytes[kHeaderBytes + 8 + i] =
            static_cast<unsigned char>(checksum >> (8 * i));
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::MalformedRecord);
}

TEST(TraceIoErrorTest, AbsurdHeaderRecordCount)
{
    const std::string path = tmpPath("absurd_count.ltct");
    writeTraceFile(path, randomRefs(10, 1));
    auto bytes = slurp(path);
    // Claim ~2^56 records in a few-hundred-byte file: must be
    // rejected up front (no multi-petabyte reserve, no long loop).
    bytes[kCountOffset + 7] = 0x01;
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::BadHeader);
    TraceFileInfo info;
    EXPECT_EQ(probeTraceHeader(path, info), TraceErrc::BadHeader);
}

TEST(TraceIoTest, ProbeHeaderIsCheapAndConsistentWithFullProbe)
{
    const std::string path = tmpPath("probe_header.ltct");
    writeTraceFile(path, randomRefs(1000, 8));
    TraceFileInfo head, full;
    ASSERT_EQ(probeTraceHeader(path, head), TraceErrc::Ok);
    ASSERT_EQ(probeTraceFile(path, full), TraceErrc::Ok);
    EXPECT_EQ(head.version, full.version);
    EXPECT_EQ(head.records, full.records);
    EXPECT_EQ(head.chunkRecords, full.chunkRecords);
    EXPECT_EQ(head.fileBytes, full.fileBytes);
    EXPECT_EQ(head.chunks, 0u); // header probe walks no chunks
    std::remove(path.c_str());
}

TEST(TraceIoErrorTest, ChunkCountExceedsHeaderTotal)
{
    const std::string path = tmpPath("count_mismatch.ltct");
    writeTraceFile(path, randomRefs(100, 2));
    auto bytes = slurp(path);
    // Header now promises fewer records than the chunk delivers.
    bytes[kCountOffset] = 10;
    for (int i = 1; i < 8; i++)
        bytes[kCountOffset + i] = 0;
    spit(path, bytes);

    // Bytes after the last v2 chunk or v1 record, which no count or
    // checksum covers.
    const std::string tail = tmpPath("trailing_bytes.ltct");
    writeTraceFile(tail, randomRefs(100, 2));
    bytes = slurp(tail);
    bytes.insert(bytes.end(), 24, 0);
    spit(tail, bytes);
    const std::string tail_v1 = tmpPath("trailing_bytes_v1.bin");
    ASSERT_EQ(writeTraceFileV1(tail_v1, randomRefs(50, 4)), TraceErrc::Ok);
    bytes = slurp(tail_v1);
    bytes.push_back(0);
    spit(tail_v1, bytes);

    const std::string out = tmpPath("count_mismatch_out.ltct");
    for (const std::string &in : {path, tail, tail_v1}) {
        SCOPED_TRACE(in);
        TraceErrc err = TraceErrc::Ok;
        readAll(in, err);
        EXPECT_EQ(err, TraceErrc::CountMismatch);
        StreamingTraceReader reader(in);
        ASSERT_TRUE(reader.ok()); // the header itself is sound
        drain(reader, 7);
        EXPECT_EQ(reader.error(), TraceErrc::CountMismatch);
        TraceFileInfo info;
        EXPECT_EQ(probeTraceFile(in, info), TraceErrc::CountMismatch);
        EXPECT_EQ(convertTraceFile(in, out), TraceErrc::CountMismatch);
        EXPECT_FALSE(std::filesystem::exists(out));
    }
}

TEST(TraceIoErrorTest, TruncatedV1Body)
{
    const std::string path = tmpPath("trunc_v1.bin");
    writeTraceFileV1(path, randomRefs(50, 4));
    auto bytes = slurp(path);
    bytes.erase(bytes.end() - 11, bytes.end());
    spit(path, bytes);
    TraceErrc err = TraceErrc::Ok;
    readAll(path, err);
    EXPECT_EQ(err, TraceErrc::TruncatedChunk);
}

TEST(TraceIoErrorTest, UnwritableOutputPath)
{
    StreamingTraceWriter writer("/nonexistent/dir/out.ltct");
    EXPECT_FALSE(writer.ok());
    writer.append(MemRef{}); // must not crash
    EXPECT_EQ(writer.finish(), TraceErrc::OpenFailed);
}

TEST(TraceIoErrorTest, ProbeReportsErrorsToo)
{
    const std::string path = tmpPath("probe_bad.ltct");
    writeTraceFile(path, randomRefs(100, 6));
    auto bytes = slurp(path);
    bytes[kHeaderBytes + kChunkHeaderBytes] ^= 0x55;
    spit(path, bytes);
    TraceFileInfo info;
    EXPECT_EQ(probeTraceFile(path, info),
              TraceErrc::ChecksumMismatch);
}

// --------------------------------------------------- ChampSim import

/** Append one little-endian 64-byte ChampSim input_instr record. */
void
champsimInstr(std::vector<unsigned char> &out, std::uint64_t ip,
              std::vector<std::uint64_t> loads,
              std::vector<std::uint64_t> stores)
{
    ASSERT_LE(loads.size(), 4u);
    ASSERT_LE(stores.size(), 2u);
    unsigned char rec[64] = {};
    for (int i = 0; i < 8; i++)
        rec[i] = static_cast<unsigned char>(ip >> (8 * i));
    loads.resize(4, 0);
    stores.resize(2, 0);
    for (std::size_t s = 0; s < 2; s++)
        for (int i = 0; i < 8; i++)
            rec[16 + 8 * s + i] =
                static_cast<unsigned char>(stores[s] >> (8 * i));
    for (std::size_t s = 0; s < 4; s++)
        for (int i = 0; i < 8; i++)
            rec[32 + 8 * s + i] =
                static_cast<unsigned char>(loads[s] >> (8 * i));
    out.insert(out.end(), rec, rec + sizeof(rec));
}

TEST(ChampSimImportTest, ImportsLoadsStoresAndGaps)
{
    const std::string in = tmpPath("champ.bin");
    const std::string out = tmpPath("champ.ltct");
    std::vector<unsigned char> bytes;
    champsimInstr(bytes, 0x400000, {}, {});       // gap
    champsimInstr(bytes, 0x400004, {}, {});       // gap
    champsimInstr(bytes, 0x400008, {0x1000}, {}); // load, gap=2
    champsimInstr(bytes, 0x40000c, {0x2000, 0x2040}, {0x3000});
    champsimInstr(bytes, 0x400010, {}, {});       // gap
    champsimInstr(bytes, 0x400014, {}, {0x4000}); // store, gap=1
    spit(in, bytes);

    std::uint64_t written = 0;
    ASSERT_EQ(importChampSimFile(in, out, 0, &written),
              TraceErrc::Ok);
    EXPECT_EQ(written, 5u);

    TraceErrc err = TraceErrc::Ok;
    const auto refs = readAll(out, err);
    ASSERT_EQ(err, TraceErrc::Ok);
    ASSERT_EQ(refs.size(), 5u);

    EXPECT_EQ(refs[0].pc, 0x400008u);
    EXPECT_EQ(refs[0].addr, 0x1000u);
    EXPECT_TRUE(refs[0].isLoad());
    EXPECT_EQ(refs[0].nonMemGap, 2u);

    EXPECT_EQ(refs[1].addr, 0x2000u);
    EXPECT_EQ(refs[1].nonMemGap, 0u);
    EXPECT_EQ(refs[2].addr, 0x2040u);
    EXPECT_EQ(refs[3].addr, 0x3000u);
    EXPECT_TRUE(refs[3].isStore());
    EXPECT_EQ(refs[3].nonMemGap, 0u);

    EXPECT_EQ(refs[4].addr, 0x4000u);
    EXPECT_TRUE(refs[4].isStore());
    EXPECT_EQ(refs[4].nonMemGap, 1u);
}

TEST(ChampSimImportTest, RejectsTrailingPartialRecord)
{
    const std::string in = tmpPath("champ_trunc.bin");
    const std::string out = tmpPath("champ_trunc.ltct");
    std::vector<unsigned char> bytes;
    champsimInstr(bytes, 0x400000, {0x1000}, {});
    bytes.resize(bytes.size() + 13, 0); // partial second record
    spit(in, bytes);
    EXPECT_EQ(importChampSimFile(in, out),
              TraceErrc::MalformedRecord);
    // No partial container is left behind.
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(ChampSimImportTest, HonoursLimit)
{
    const std::string in = tmpPath("champ_lim.bin");
    const std::string out = tmpPath("champ_lim.ltct");
    std::vector<unsigned char> bytes;
    for (int i = 0; i < 10; i++)
        champsimInstr(bytes, 0x400000 + 4 * i,
                      {0x1000u + 64u * static_cast<unsigned>(i)}, {});
    spit(in, bytes);
    std::uint64_t written = 0;
    ASSERT_EQ(importChampSimFile(in, out, 4, &written),
              TraceErrc::Ok);
    EXPECT_EQ(written, 4u);
}

// ------------------------------------------------ O(chunk) replay

TEST(FileTraceMemoryTest, ReplayMemoryIsBoundedByChunk)
{
    const std::string path = tmpPath("bounded.ltct");
    constexpr std::uint32_t chunk = 256;
    constexpr std::size_t records = 10'000;
    {
        StreamingTraceWriter writer(path, chunk);
        const auto refs = randomRefs(records, 21);
        for (const MemRef &r : refs)
            writer.append(r);
        ASSERT_EQ(writer.finish(), TraceErrc::Ok);
    }

    FileTrace trace(path);
    EXPECT_EQ(trace.size(), records);
    MemRef out;
    std::size_t n = 0;
    while (trace.next(out))
        n++;
    EXPECT_EQ(n, records);
    // The whole point of the streaming reader: replaying a 10k-record
    // trace never holds more than one chunk of records in memory.
    EXPECT_LE(trace.reader().maxBufferedRecords(), chunk);
    EXPECT_EQ(trace.reader().chunksRead(),
              (records + chunk - 1) / chunk);

    // reset() replays from the start with the same bound.
    trace.reset();
    ASSERT_TRUE(trace.next(out));
    EXPECT_LE(trace.reader().maxBufferedRecords(), chunk);
    std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceIsValid)
{
    const std::string path = tmpPath("empty.ltct");
    writeTraceFile(path, {});
    StreamingTraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records(), 0u);
    MemRef out;
    EXPECT_EQ(reader.fill({&out, 1}), 0u);
    EXPECT_TRUE(reader.ok());

    TraceFileInfo info;
    ASSERT_EQ(probeTraceFile(path, info), TraceErrc::Ok);
    EXPECT_EQ(info.records, 0u);
    EXPECT_EQ(info.chunks, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace ltc
