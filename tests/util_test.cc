/**
 * @file
 * Unit tests for util: bit operations, hashing, varints, PRNG,
 * logging.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/bitops.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/types.hh"
#include "util/varint.hh"

namespace ltc
{
namespace
{

TEST(BitopsTest, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitopsTest, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(~std::uint64_t{0}), 63u);
}

TEST(BitopsTest, ExactLog2)
{
    EXPECT_EQ(exactLog2(64), 6u);
    EXPECT_EQ(exactLog2(1ull << 33), 33u);
}

TEST(BitopsTest, CeilPowerOf2)
{
    EXPECT_EQ(ceilPowerOf2(0), 1u);
    EXPECT_EQ(ceilPowerOf2(1), 1u);
    EXPECT_EQ(ceilPowerOf2(2), 2u);
    EXPECT_EQ(ceilPowerOf2(3), 4u);
    EXPECT_EQ(ceilPowerOf2(1000), 1024u);
    EXPECT_EQ(ceilPowerOf2(1024), 1024u);
}

TEST(BitopsTest, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
}

TEST(BitopsTest, Bits)
{
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
}

TEST(BitopsTest, Align)
{
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 64), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 64), 0x1240u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(HashTest, Mix64Avalanche)
{
    // Flipping any input bit should change roughly half the output
    // bits; we only check that outputs differ and look scrambled.
    const std::uint64_t base = mix64(0x12345678);
    for (int bit = 0; bit < 64; bit++) {
        const std::uint64_t flipped =
            mix64(0x12345678ull ^ (1ull << bit));
        EXPECT_NE(base, flipped) << "bit " << bit;
    }
}

TEST(HashTest, Mix64Deterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(HashTest, HashCombineOrderSensitive)
{
    const std::uint64_t a = hashCombine(hashCombine(0, 1), 2);
    const std::uint64_t b = hashCombine(hashCombine(0, 2), 1);
    EXPECT_NE(a, b);
}

TEST(TraceHashTest, OrderSensitive)
{
    TraceHash h1;
    h1.update(0x100);
    h1.update(0x200);
    TraceHash h2;
    h2.update(0x200);
    h2.update(0x100);
    EXPECT_NE(h1.value(), h2.value());
}

TEST(TraceHashTest, ClearResets)
{
    TraceHash h;
    h.update(0x100);
    h.clear();
    EXPECT_EQ(h.value(), 0u);
    h.update(0x100);
    TraceHash fresh;
    fresh.update(0x100);
    EXPECT_EQ(h.value(), fresh.value());
}

TEST(TraceHashTest, LengthDistinguishes)
{
    // A prefix trace must differ from the full trace.
    TraceHash h;
    h.update(0x100);
    const std::uint64_t one = h.value();
    h.update(0x100);
    EXPECT_NE(one, h.value());
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, ReseedReproduces)
{
    Rng a(99);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; i++)
        first.push_back(a.next());
    a.reseed(99);
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; i++)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; i++)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        const std::uint64_t v = rng.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; i++) {
        const double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceApproximatesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; i++)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(TypesTest, MemRefBasics)
{
    MemRef ref;
    ref.op = MemOp::Load;
    EXPECT_TRUE(ref.isLoad());
    EXPECT_FALSE(ref.isStore());
    ref.op = MemOp::Store;
    EXPECT_TRUE(ref.isStore());
    EXPECT_STREQ(memOpName(MemOp::Load), "load");
    EXPECT_STREQ(memOpName(MemOp::Store), "store");
}

TEST(TypesTest, MemRefToString)
{
    MemRef ref;
    ref.pc = 0x1000;
    ref.addr = 0x2040;
    ref.op = MemOp::Load;
    ref.nonMemGap = 3;
    ref.dependsOnPrev = true;
    const std::string s = to_string(ref);
    EXPECT_NE(s.find("1000"), std::string::npos);
    EXPECT_NE(s.find("2040"), std::string::npos);
    EXPECT_NE(s.find("load"), std::string::npos);
    EXPECT_NE(s.find("dep"), std::string::npos);
}

TEST(TypesTest, MemRefEquality)
{
    MemRef a;
    a.pc = 1;
    a.addr = 2;
    MemRef b = a;
    EXPECT_TRUE(a == b);
    b.addr = 3;
    EXPECT_FALSE(a == b);
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(ltc_panic("boom ", 1), "boom 1");
}

TEST(LoggingDeathTest, AssertFires)
{
    EXPECT_DEATH(ltc_assert(1 == 2, "math broke"), "math broke");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(ltc_fatal("bad config"),
                ::testing::ExitedWithCode(1), "bad config");
}

// ------------------------------------------------------------ varint

TEST(ZigzagTest, RoundTripsBoundaryValues)
{
    const std::int64_t values[] = {
        0,  1,  -1, 2,  -2,  63, -63, 64, -64,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    for (std::int64_t v : values)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
    // Small magnitudes of either sign map to small codes.
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
}

TEST(VarintTest, RoundTripsAndSizes)
{
    const std::uint64_t values[] = {
        0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 0xffffffffull,
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t v : values) {
        std::vector<unsigned char> buf;
        putVarint(buf, v);
        EXPECT_LE(buf.size(), 10u);
        std::uint64_t back = 0;
        const unsigned char *p =
            getVarint(buf.data(), buf.data() + buf.size(), back);
        ASSERT_EQ(p, buf.data() + buf.size()) << v;
        EXPECT_EQ(back, v);
    }
    std::vector<unsigned char> one;
    putVarint(one, 0x7f);
    EXPECT_EQ(one.size(), 1u); // 7-bit values stay single-byte
}

TEST(VarintTest, RejectsTruncatedAndOverlongInput)
{
    std::vector<unsigned char> buf;
    putVarint(buf, 1u << 20);
    std::uint64_t v = 0;
    // Every strict prefix ends mid-varint.
    for (std::size_t n = 0; n < buf.size(); n++)
        EXPECT_EQ(getVarint(buf.data(), buf.data() + n, v), nullptr);
    // Eleven continuation bytes exceed any 64-bit encoding.
    const std::vector<unsigned char> overlong(11, 0xff);
    EXPECT_EQ(getVarint(overlong.data(),
                        overlong.data() + overlong.size(), v),
              nullptr);
}

TEST(Fnv1a32Test, MatchesReferenceVectorsAndDetectsFlips)
{
    // Published FNV-1a test vectors.
    const unsigned char a[] = {'a'};
    EXPECT_EQ(fnv1a32(a, 1), 0xe40c292cu);
    const unsigned char foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(fnv1a32(foobar, 6), 0xbf9cf968u);
    EXPECT_EQ(fnv1a32(nullptr, 0), 2166136261u);

    unsigned char data[64];
    for (std::size_t i = 0; i < sizeof(data); i++)
        data[i] = static_cast<unsigned char>(i * 7);
    const std::uint32_t h = fnv1a32(data, sizeof(data));
    data[13] ^= 0x01;
    EXPECT_NE(fnv1a32(data, sizeof(data)), h);
}

} // namespace
} // namespace ltc
