/**
 * @file
 * Tests for the memory substrate (busses, DRAM, bandwidth accounting,
 * MSHRs) and the ROB-window core model.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "cpu/ooo_core.hh"
#include "mem/bandwidth.hh"
#include "mem/bus.hh"
#include "sim/timing_engine.hh"

namespace ltc
{
namespace
{

//
// Bus
//

TEST(BusTest, OccupancyFormula)
{
    BusConfig c = BusConfig::l1l2();
    EXPECT_EQ(c.occupancy(0), 1u);    // request only
    EXPECT_EQ(c.occupancy(32), 2u);   // 1 req + 1 data
    EXPECT_EQ(c.occupancy(64), 3u);   // 1 req + 2 data
    c = BusConfig::memory();
    EXPECT_EQ(c.occupancy(64), 9u);   // (1+2)*3 core cycles
}

TEST(BusTest, TransfersQueueInOrder)
{
    Bus bus(BusConfig::l1l2());
    EXPECT_EQ(bus.transfer(10, 64), 13u);
    // Second transfer ready at 11 but bus busy until 13.
    EXPECT_EQ(bus.transfer(11, 64), 16u);
    EXPECT_EQ(bus.queueCycles(), 2u);
    EXPECT_EQ(bus.busyCycles(), 6u);
}

TEST(BusTest, IdleGapNotCounted)
{
    Bus bus(BusConfig::l1l2());
    bus.transfer(0, 64);
    bus.transfer(100, 64);
    EXPECT_EQ(bus.busyCycles(), 6u);
    EXPECT_EQ(bus.queueCycles(), 0u);
}

TEST(BusTest, IsFreeAndFreeAt)
{
    Bus bus(BusConfig::l1l2());
    EXPECT_EQ(bus.freeAt(0), 0u);
    bus.transfer(0, 64); // busy until 3
    EXPECT_EQ(bus.freeAt(2), 3u);
    EXPECT_EQ(bus.freeAt(3), 3u);
    EXPECT_EQ(bus.freeAt(1), 3u);
    EXPECT_EQ(bus.freeAt(10), 10u);
}

TEST(BusTest, ZeroLatencyConfig)
{
    // A free request phase (requestCycles = 0): a zero-byte transfer
    // occupies nothing, advances no horizon, and never queues — the
    // degenerate machine the batched timing kernel must keep exact
    // (the equivalence suite runs a whole machine configured this
    // way).
    BusConfig cfg;
    cfg.requestCycles = 0;
    Bus bus(cfg);
    EXPECT_EQ(cfg.occupancy(0), 0u);
    EXPECT_EQ(bus.transfer(5, 0), 5u);
    EXPECT_EQ(bus.transfer(5, 0), 5u); // still free: no occupancy
    EXPECT_EQ(bus.freeAt(5), 5u);
    EXPECT_EQ(bus.busyCycles(), 0u);
    EXPECT_EQ(bus.queueCycles(), 0u);
    // Data still costs data cycles even with a free request phase.
    EXPECT_EQ(bus.transfer(10, 64), 12u);
}

TEST(BusTest, SaturatedWindowQueuesEveryTransfer)
{
    // All transfers ready at cycle 0: the k-th starts when the
    // (k-1)-th finishes, so waits grow linearly and the bus never
    // idles.
    Bus bus(BusConfig::l1l2());
    const Cycle occ = BusConfig::l1l2().occupancy(64); // 3 cycles
    const int n = 100;
    Cycle queued = 0;
    for (int k = 0; k < n; k++) {
        EXPECT_EQ(bus.transfer(0, 64), (k + 1) * occ);
        queued += k * occ;
    }
    EXPECT_EQ(bus.queueCycles(), queued);
    EXPECT_EQ(bus.busyCycles(), n * occ);
    // A transfer arriving mid-saturation waits for the full backlog.
    EXPECT_EQ(bus.transfer(1, 64), (n + 1) * occ);
}

//
// DRAM
//

TEST(DramTest, LatencyFormula)
{
    EXPECT_EQ(dramLatency(0), 0u);
    EXPECT_EQ(dramLatency(32), 200u);        // first chunk
    EXPECT_EQ(dramLatency(64), 203u);        // +1 chunk
    EXPECT_EQ(dramLatency(33), 203u);        // rounds up
    EXPECT_EQ(dramLatency(128), 209u);       // 4 chunks
}

//
// Bandwidth accounting
//

TEST(BandwidthTest, PerClassAccounting)
{
    BandwidthAccount acc;
    acc.add(Traffic::BaseData, 640);
    acc.add(Traffic::SequenceFetch, 50);
    acc.add(Traffic::SequenceCreate, 25);
    acc.add(Traffic::IncorrectPrefetch, 64);
    EXPECT_EQ(acc.bytes(Traffic::BaseData), 640u);
    EXPECT_EQ(acc.bytes(Traffic::SequenceFetch), 50u);
    EXPECT_EQ(acc.bytes(Traffic::SequenceCreate), 25u);
    EXPECT_EQ(acc.bytes(Traffic::IncorrectPrefetch), 64u);
    EXPECT_EQ(acc.bytes(Traffic::Writeback), 0u);
    EXPECT_DOUBLE_EQ(acc.perInstruction(Traffic::BaseData, 64), 10.0);
}

//
// MSHR
//

TEST(MshrTest, AllocateAndLookup)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocReadyAt(10), 10u);
    m.allocate(0x1000, 10, 100);
    auto hit = m.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 100u);
    EXPECT_FALSE(m.lookup(0x2000).has_value());
    EXPECT_EQ(m.outstanding(), 1u);
}

TEST(MshrTest, FullFileDelaysAllocation)
{
    MshrFile m(2);
    m.allocate(0x1000, 0, 50);
    m.allocate(0x2000, 0, 80);
    // Full: next allocation must wait for the earliest completion.
    EXPECT_EQ(m.allocReadyAt(10), 50u);
    // At 60, one entry has retired.
    EXPECT_EQ(m.allocReadyAt(60), 60u);
}

TEST(MshrTest, RetireReleasesEntries)
{
    MshrFile m(2);
    m.allocate(0x1000, 0, 50);
    m.retire(49);
    EXPECT_EQ(m.outstanding(), 1u);
    m.retire(50);
    EXPECT_EQ(m.outstanding(), 0u);
}

TEST(MshrTest, AllocateRetiresCompleted)
{
    MshrFile m(1);
    m.allocate(0x1000, 0, 50);
    // Allocation at 60 implicitly frees the completed entry.
    m.allocate(0x2000, 60, 100);
    EXPECT_EQ(m.outstanding(), 1u);
}

TEST(MshrTest, PeakOccupancyTracked)
{
    MshrFile m(8);
    for (int i = 0; i < 5; i++)
        m.allocate(static_cast<Addr>(i) * 64, 0, 1000);
    EXPECT_EQ(m.peakOccupancy(), 5u);
    m.retire(1000);
    EXPECT_EQ(m.outstanding(), 0u);
    EXPECT_EQ(m.peakOccupancy(), 5u);
}

TEST(MshrTest, MergeCounter)
{
    MshrFile m(4);
    m.noteMerge();
    m.noteMerge();
    EXPECT_EQ(m.merges(), 2u);
}

TEST(MshrTest, BackToBackMergesKeepTheEntry)
{
    // A burst of accesses to one outstanding block must merge with
    // the same entry every time (no entry lost, no duplicate
    // allocated) until the completion retires it.
    MshrFile m(4);
    m.allocate(0x1000, 0, 500);
    for (int i = 0; i < 10; i++) {
        auto hit = m.lookup(0x1000);
        ASSERT_TRUE(hit.has_value()) << "merge " << i;
        EXPECT_EQ(*hit, 500u);
        m.noteMerge();
    }
    EXPECT_EQ(m.merges(), 10u);
    EXPECT_EQ(m.outstanding(), 1u);
    // Retires strictly before completion keep it; at completion it
    // goes, and the next access to the block is a fresh miss.
    m.retire(499);
    EXPECT_TRUE(m.lookup(0x1000).has_value());
    m.retire(500);
    EXPECT_FALSE(m.lookup(0x1000).has_value());
    EXPECT_EQ(m.outstanding(), 0u);
}

TEST(MshrTest, LateRetireReleasesEverything)
{
    // Event-granular retire: one tick far in the future releases all
    // completed entries at once (the batched kernel never steps
    // through intermediate times).
    MshrFile m(8);
    for (int i = 0; i < 6; i++)
        m.allocate(static_cast<Addr>(i) * 64, 0, 100 + i * 50);
    EXPECT_EQ(m.outstanding(), 6u);
    m.retire(10'000);
    EXPECT_EQ(m.outstanding(), 0u);
    EXPECT_EQ(m.peakOccupancy(), 6u);
    // And the file is immediately reusable at full capacity.
    EXPECT_EQ(m.allocReadyAt(10'000), 10'000u);
}

//
// OooCore
//

TEST(OooCoreTest, WidthBoundIpc)
{
    CoreConfig cfg;
    cfg.width = 8;
    OooCore core(cfg);
    core.issueNonMem(8000);
    // All single-cycle ALU ops: IPC approaches the width.
    EXPECT_NEAR(core.ipc(), 8.0, 0.1);
}

TEST(OooCoreTest, SingleMissLatencyVisible)
{
    OooCore core(CoreConfig{});
    const Cycle issue = core.beginMem();
    core.completeMem(issue + 200);
    EXPECT_GE(core.finishCycle(), 200u);
}

TEST(OooCoreTest, IndependentMissesOverlap)
{
    // 300 independent 200-cycle misses with a 256-entry ROB: wall
    // time must be far below 300*200 (window-level MLP).
    OooCore core(CoreConfig{});
    for (int i = 0; i < 300; i++) {
        core.issueNonMem(2);
        const Cycle issue = core.beginMem();
        core.completeMem(issue + 200);
    }
    EXPECT_LT(core.finishCycle(), 2000u);
    EXPECT_GT(core.finishCycle(), 400u);
}

TEST(OooCoreTest, DependentMissesSerialise)
{
    OooCore core(CoreConfig{});
    Cycle last_complete = 0;
    for (int i = 0; i < 50; i++) {
        const Cycle issue = core.beginMem();
        const Cycle ready = std::max(issue, last_complete);
        last_complete = ready + 200;
        core.completeMem(last_complete);
    }
    // Fully serial: ~50 x 200 cycles.
    EXPECT_GE(core.finishCycle(), 50u * 200u);
}

TEST(OooCoreTest, RobLimitsWindow)
{
    // A tiny ROB (8 entries) must serialise bursts of long misses.
    CoreConfig small;
    small.robSize = 8;
    small.lsqSize = 8;
    OooCore core(small);
    for (int i = 0; i < 64; i++) {
        const Cycle issue = core.beginMem();
        core.completeMem(issue + 100);
    }
    // At most 8 misses in flight: >= 64/8 * 100 cycles.
    EXPECT_GE(core.finishCycle(), 800u);
}

TEST(OooCoreTest, LsqLimitsMemoryInFlight)
{
    CoreConfig cfg;
    cfg.robSize = 256;
    cfg.lsqSize = 4;
    OooCore core(cfg);
    for (int i = 0; i < 64; i++) {
        const Cycle issue = core.beginMem();
        core.completeMem(issue + 100);
    }
    EXPECT_GE(core.finishCycle(), 64u / 4u * 100u);
}

TEST(OooCoreTest, IssueCyclesMonotonic)
{
    OooCore core(CoreConfig{});
    Cycle prev = 0;
    for (int i = 0; i < 200; i++) {
        core.issueNonMem(i % 3);
        const Cycle issue = core.beginMem();
        EXPECT_GE(issue, prev);
        prev = issue;
        core.completeMem(issue + (i % 5) * 50 + 1);
    }
}

TEST(OooCoreTest, InstructionCounting)
{
    OooCore core(CoreConfig{});
    core.issueNonMem(10);
    const Cycle issue = core.beginMem();
    core.completeMem(issue + 1);
    EXPECT_EQ(core.instructions(), 11u);
}

TEST(OooCoreDeathTest, CompleteBeforeIssuePanics)
{
    OooCore core(CoreConfig{});
    core.issueNonMem(100);
    const Cycle issue = core.beginMem();
    if (issue > 0) {
        EXPECT_DEATH(core.completeMem(0), "completes before");
    }
}

TEST(OooCoreDeathTest, DoubleBeginPanics)
{
    OooCore core(CoreConfig{});
    core.beginMem();
    EXPECT_DEATH(core.beginMem(), "pending");
}

/** Property sweep: IPC never exceeds width for any mix. */
class CoreWidthProperty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoreWidthProperty, IpcBoundedByWidth)
{
    CoreConfig cfg;
    cfg.width = GetParam();
    OooCore core(cfg);
    for (int i = 0; i < 500; i++) {
        core.issueNonMem(3);
        const Cycle issue = core.beginMem();
        core.completeMem(issue + (i % 7 == 0 ? 100 : 2));
    }
    EXPECT_LE(core.ipc(), static_cast<double>(GetParam()) + 1e-9);
    EXPECT_GT(core.ipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreWidthProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

} // namespace
} // namespace ltc
