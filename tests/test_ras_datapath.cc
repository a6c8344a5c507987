/**
 * @file
 * Tests for the live RAS datapath: demand-time correction against
 * bit-true storage, graceful degradation (sparing, poisoning) and the
 * end-to-end SystemSim integration, including the acceptance scenarios
 * of the issue (row fault corrected mid-run; forced uncorrectable
 * pattern reported as DUE while the simulation completes).
 */

#include <gtest/gtest.h>

#include "citadel/citadel.h"
#include "fault_builders.h"
#include "common/serialize.h"
#include "ras/live_datapath.h"
#include "sim/system_sim.h"

namespace citadel {
namespace {

using namespace testing_helpers;

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.llcBytes = 1 << 14; // 256 lines vs 1024 DRAM lines: real misses
    cfg.cores = 2;
    cfg.insnsPerCore = 30'000;
    cfg.seed = 9;
    return cfg;
}

class LiveRasTest : public ::testing::Test
{
  protected:
    SimConfig cfg_ = tinyConfig();
    AddressMap map_{cfg_.geom};

    LineAddr
    lineAt(u32 ch, u32 b, u32 r, u32 c) const
    {
        return map_.coordToLine({StackId{0}, ChannelId{ch}, BankId{b},
                                 RowId{r}, ColId{c}});
    }
};

TEST_F(LiveRasTest, CleanReadsStayClean)
{
    LiveRasDatapath dp(cfg_);
    dp.tick(0);
    const DemandOutcome out = dp.onDemandRead(lineAt(0, 0, 3, 1), 1);
    EXPECT_EQ(out.kind, DemandOutcome::Kind::Clean);
    EXPECT_TRUE(out.extraReads.empty());
    EXPECT_EQ(dp.counters().demandReads, 1u);
    EXPECT_EQ(dp.counters().crcDetects, 0u);
}

TEST_F(LiveRasTest, RowFaultIsCorrectedThenSpared)
{
    LiveRasDatapath dp(cfg_);
    dp.scheduleFault(rowFault(0, 0, 0, 5), 10);

    dp.tick(9);
    EXPECT_TRUE(dp.activeFaults().empty()); // not materialized yet
    dp.tick(10);
    ASSERT_EQ(dp.activeFaults().size(), 1u);
    EXPECT_TRUE(dp.engine(StackId{0}).lineCorruptAt(DieId{0}, BankId{0}, RowId{5}, ColId{0}));

    const LineAddr line = lineAt(0, 0, 5, 2);
    const DemandOutcome out = dp.onDemandRead(line, 11);
    EXPECT_EQ(out.kind, DemandOutcome::Kind::Corrected);
    // Retry plus the D1 group (other 3 data units + the parity line).
    EXPECT_GE(out.extraReads.size(), 2u);
    EXPECT_EQ(out.extraReads.front(), line);

    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.crcDetects, 1u);
    EXPECT_EQ(c.retries, 1u);
    EXPECT_EQ(c.ce, 1u);
    EXPECT_EQ(c.sdc, 0u);
    EXPECT_GT(c.parityGroupReads, 0u);
    EXPECT_EQ(c.rowsSpared, 1u); // permanent fault retired on demand
    EXPECT_EQ(c.divergences, 0u);
    EXPECT_TRUE(dp.activeFaults().empty());

    // Subsequent accesses to the row are served from spare storage.
    EXPECT_TRUE(dp.lineIsRemapped(line));
    const DemandOutcome again = dp.onDemandRead(line, 12);
    EXPECT_EQ(again.kind, DemandOutcome::Kind::Clean);
    EXPECT_EQ(dp.counters().remappedReads, 1u);

    // A CE event with a dimension and a group-read cost was logged.
    bool saw_ce = false;
    for (const RasEvent &ev : dp.log().events())
        if (ev.type == RasEventType::CorrectableError) {
            saw_ce = true;
            EXPECT_EQ(ev.line, line);
            EXPECT_EQ(ev.dimUsed, 1u);
            EXPECT_GT(ev.groupReads, 0u);
        }
    EXPECT_TRUE(saw_ce);
}

TEST_F(LiveRasTest, TransientRecorrectsUntilScrub)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);

    Fault f = bitFault(0, 1, 1, 7, 3, 100);
    f.transient = true;
    dp.scheduleFault(f, 0);
    dp.tick(0);

    const LineAddr line = lineAt(1, 1, 7, 3);
    // A transient is not spared; until the scrub rewrites the line it
    // re-corrupts and must be re-corrected on every access.
    EXPECT_EQ(dp.onDemandRead(line, 1).kind,
              DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.onDemandRead(line, 2).kind,
              DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.counters().ce, 2u);
    EXPECT_EQ(dp.counters().rowsSpared, 0u);
    EXPECT_FALSE(dp.lineIsRemapped(line));

    dp.tick(1000); // scrub boundary: transient cells rewritten
    EXPECT_TRUE(dp.activeFaults().empty());
    EXPECT_EQ(dp.onDemandRead(line, 1001).kind,
              DemandOutcome::Kind::Clean);
    EXPECT_EQ(dp.counters().ce, 2u);
}

TEST_F(LiveRasTest, DifferentialVerdictsFollowTheActiveSet)
{
    // Two column faults crossed by a row fault: the analytic model
    // blocks all three ranges, the bit-true peel finishes line by line
    // (analyticConservative). The verdicts are recomputed only when
    // the active set changes, but every check still counts.
    LiveRasOptions opts;
    opts.scheme.enableDds = false; // nothing leaves the active set
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);
    dp.scheduleFault(columnFault(0, 1, 0, 3), 0);
    dp.scheduleFault(columnFault(0, 0, 1, 0), 0);
    Fault row = rowFault(0, 1, 1, 17);
    row.transient = true;
    dp.scheduleFault(row, 10);

    dp.tick(0);
    EXPECT_EQ(dp.counters().analyticConservative, 0u);
    dp.tick(10);
    EXPECT_EQ(dp.counters().analyticConservative, 1u);
    EXPECT_EQ(dp.onDemandRead(lineAt(1, 1, 17, 1), 11).kind,
              DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.onDemandRead(lineAt(1, 0, 5, 3), 12).kind,
              DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.counters().analyticConservative, 3u);

    dp.tick(1000); // the scrub clears the row fault; both models agree
    EXPECT_EQ(dp.activeFaults().size(), 2u);
    EXPECT_EQ(dp.onDemandRead(lineAt(1, 0, 6, 3), 1001).kind,
              DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.counters().analyticConservative, 3u);
    EXPECT_EQ(dp.counters().ce, 3u);
    EXPECT_EQ(dp.counters().divergences, 0u);
}

TEST_F(LiveRasTest, FaultyParityForcesHigherDimension)
{
    LiveRasDatapath dp(cfg_);
    dp.scheduleFault(rowFault(0, 0, 0, 5), 0);
    dp.scheduleFault(parityRowFault(cfg_.geom, 0, 5), 0);
    dp.tick(0);

    // The D1 parity line of row 5 is itself corrupt, so the data row
    // must reconstruct via D2; the verdict must still agree with the
    // analytic model (no divergence).
    const DemandOutcome out = dp.onDemandRead(lineAt(0, 0, 5, 1), 1);
    EXPECT_EQ(out.kind, DemandOutcome::Kind::Corrected);
    EXPECT_EQ(dp.counters().sdc, 0u);
    EXPECT_EQ(dp.counters().divergences, 0u);

    bool saw_d2plus = false;
    for (const RasEvent &ev : dp.log().events())
        if (ev.type == RasEventType::CorrectableError && ev.dimUsed >= 2)
            saw_d2plus = true;
    EXPECT_TRUE(saw_d2plus);
}

TEST_F(LiveRasTest, TripleBankPatternReportsDueAndContinues)
{
    LiveRasDatapath dp(cfg_);
    dp.scheduleFault(bankFault(0, 0, 0), 0);
    dp.scheduleFault(bankFault(0, 0, 1), 0);
    dp.scheduleFault(bankFault(0, 1, 0), 0);
    dp.tick(0);

    const LineAddr line = lineAt(0, 0, 9, 1);
    const DemandOutcome out = dp.onDemandRead(line, 1);
    EXPECT_EQ(out.kind, DemandOutcome::Kind::Uncorrectable);
    // The retry still happened; no parity group could be charged.
    EXPECT_EQ(out.extraReads.size(), 1u);

    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.due, 1u);
    EXPECT_EQ(c.dueReads, 1u);
    EXPECT_EQ(c.ce, 0u);
    EXPECT_EQ(c.sdc, 0u);
    EXPECT_EQ(c.divergences, 0u);

    // The DUE offlined its page (the default ladder rung): the same
    // line again is steered to a healthy stand-in and reads clean,
    // and the DUE is reported (machine-check style) only once.
    EXPECT_EQ(c.pagesOfflined, 1u);
    EXPECT_EQ(dp.onDemandRead(line, 2).kind, DemandOutcome::Kind::Clean);
    EXPECT_EQ(dp.counters().due, 1u);
    EXPECT_EQ(dp.counters().dueReads, 1u);
    EXPECT_EQ(dp.counters().offlinedReads, 1u);

    // And the datapath still serves unaffected banks normally.
    EXPECT_EQ(dp.onDemandRead(lineAt(1, 1, 9, 1), 3).kind,
              DemandOutcome::Kind::Clean);
}

TEST_F(LiveRasTest, TsvFaultAbsorbedBySwap)
{
    LiveRasDatapath dp(cfg_);
    dp.scheduleFault(dataTsvFault(0, 0, 17), 0);
    dp.tick(0);

    EXPECT_TRUE(dp.activeFaults().empty());
    EXPECT_EQ(dp.counters().tsvRepairs, 1u);
    EXPECT_EQ(dp.counters().faultsAbsorbed, 1u);
    EXPECT_EQ(dp.onDemandRead(lineAt(0, 0, 0, 0), 1).kind,
              DemandOutcome::Kind::Clean);
}

TEST_F(LiveRasTest, TsvBudgetExhaustionLeavesFaultLive)
{
    LiveRasOptions opts;
    opts.scheme.standbyTsvsPerChannel = 1;
    LiveRasDatapath dp(cfg_, opts);
    dp.scheduleFault(dataTsvFault(0, 0, 3), 0);
    dp.scheduleFault(dataTsvFault(0, 0, 200), 0);
    dp.tick(0);

    EXPECT_EQ(dp.counters().tsvRepairs, 1u);
    EXPECT_EQ(dp.activeFaults().size(), 1u);
}

TEST_F(LiveRasTest, RrtExhaustionEscalatesToBankSparing)
{
    LiveRasDatapath dp(cfg_);
    // Five permanent row faults in one bank vs an RRT of four entries.
    for (u32 r = 0; r < 5; ++r)
        dp.scheduleFault(rowFault(0, 1, 1, r), 0);
    dp.tick(0);

    for (u32 r = 0; r < 5; ++r)
        EXPECT_EQ(dp.onDemandRead(lineAt(1, 1, r, 0), r + 1).kind,
                  DemandOutcome::Kind::Corrected);

    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.rowsSpared, 4u);
    EXPECT_EQ(c.banksSpared, 1u); // fifth row escalated (VII-C.3)
    EXPECT_TRUE(dp.activeFaults().empty());
    EXPECT_TRUE(dp.lineIsRemapped(lineAt(1, 1, 60, 0))); // whole bank
}

TEST_F(LiveRasTest, SchemeEventSinkObservesDecisions)
{
    // The satellite API: Monte Carlo schemes report the same decision
    // kinds the live datapath logs.
    SystemConfig sys;
    sys.geom = cfg_.geom;
    sys.subArrayRows = 32;

    SchemePtr scheme = makeCitadel();
    std::vector<SchemeEvent> seen;
    scheme->setEventSink(
        [&](const SchemeEvent &ev) { seen.push_back(ev); });
    scheme->reset(sys);

    EXPECT_TRUE(scheme->absorb(dataTsvFault(0, 0, 5)));
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].kind, SchemeEvent::Kind::TsvRepaired);

    std::vector<Fault> active = {rowFault(0, 0, 0, 3)};
    scheme->onScrub(active);
    EXPECT_TRUE(active.empty());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].kind, SchemeEvent::Kind::RowSpared);
    EXPECT_EQ(seen[1].fault.cls, FaultClass::Row);
}

TEST_F(LiveRasTest, EventLogIsBoundedCountersExact)
{
    LiveRasOptions opts;
    opts.maxEvents = 2;
    LiveRasDatapath dp(cfg_, opts);
    Fault f = bitFault(0, 0, 0, 1, 1, 5);
    f.transient = true;
    dp.scheduleFault(f, 0);
    dp.tick(0);
    const LineAddr line = lineAt(0, 0, 1, 1);
    for (u64 i = 0; i < 6; ++i)
        dp.onDemandRead(line, i + 1);

    EXPECT_EQ(dp.counters().ce, 6u);       // exact
    EXPECT_LE(dp.log().events().size(), 2u); // bounded
    EXPECT_GT(dp.log().dropped(), 0u);
}

TEST_F(LiveRasTest, RefusesFullSizeGeometry)
{
    SimConfig big;
    big.geom = StackGeometry::hbm();
    EXPECT_DEATH({ LiveRasDatapath dp(big); }, "model bytes");
}

TEST_F(LiveRasTest, RejectsWildStackFault)
{
    LiveRasDatapath dp(cfg_);
    Fault f = rowFault(0, 0, 0, 1);
    f.stack = DimSpec::wild();
    EXPECT_DEATH(dp.scheduleFault(f, 0), "stack");
}

TEST_F(LiveRasTest, LoadStateRejectsFaultOnMissingStack)
{
    // A saved pending fault, data or meta, whose stack coordinate is
    // patched to a stack that does not exist must be refused by
    // loadState, not indexed into the per-stack tables when it
    // materializes. `stack_at` is the offset of the fault's u32 stack
    // value; the four bytes after it read `next` in the saved state.
    const auto refused = [&](const auto &schedule, std::size_t stack_at,
                             u8 next, const char *diag) {
        LiveRasDatapath dp(cfg_);
        schedule(dp);
        ByteSink sink;
        dp.saveState(sink);
        std::vector<u8> bytes = sink.bytes();

        ASSERT_GT(bytes.size(), stack_at + 8);
        for (std::size_t i = 0; i < 4; ++i) {
            ASSERT_EQ(bytes[stack_at + i], 0u);
            ASSERT_EQ(bytes[stack_at + 4 + i], next);
        }
        {
            LiveRasDatapath intact(cfg_);
            ByteSource src(bytes);
            intact.loadState(src);
            EXPECT_EQ(intact.stateFingerprint(), dp.stateFingerprint());
        }

        const u32 missing = 1'000'000;
        for (std::size_t i = 0; i < 4; ++i)
            bytes[stack_at + i] = static_cast<u8>(missing >> (8 * i));
        LiveRasDatapath other(cfg_);
        ByteSource src(bytes);
        EXPECT_DEATH(other.loadState(src), diag);
    };

    // Magic, version, active count (0), pending count (1), the fault's
    // cycle, then its stack (value, mask), little-endian.
    refused([](LiveRasDatapath &dp) {
        dp.scheduleFault(bankFault(0, 1, 1), 100);
    }, 4 + 4 + 8 + 8 + 8, 0xFF, "checkpoint pending fault");

    // Magic, version, active and pending counts (0), pending-meta count
    // (1), the fault's cycle and target byte, then its stack and
    // channel.
    refused([](LiveRasDatapath &dp) {
        MetaFault mf;
        mf.target = MetaTarget::BrtEntry;
        mf.stack = StackId{0};
        mf.flipMask = 1;
        dp.scheduleMetaFault(mf, 100);
    }, 4 + 4 + 8 + 8 + 8 + 8 + 1, 0x00,
            "checkpoint pending meta fault: stack out of range");
}

TEST_F(LiveRasTest, LoadStateRejectsUnknownFaultClass)
{
    // A saved pending fault whose class byte is one past the last
    // FaultClass must be refused by loadState, not restored as a class
    // no correction path knows.
    LiveRasDatapath dp(cfg_);
    dp.scheduleFault(bankFault(0, 1, 1), 100);
    ByteSink sink;
    dp.saveState(sink);
    std::vector<u8> bytes = sink.bytes();

    // Magic, version, active count (0), pending count (1), the fault's
    // cycle, its six (value, mask) dimensions, then the class byte.
    constexpr std::size_t kClass = 4 + 4 + 8 + 8 + 8 + 6 * 8;
    ASSERT_GT(bytes.size(), kClass);
    ASSERT_EQ(bytes[kClass], static_cast<u8>(FaultClass::Bank));
    bytes[kClass] = static_cast<u8>(FaultClass::AddrTsvBank) + 1;
    LiveRasDatapath other(cfg_);
    ByteSource src(bytes);
    EXPECT_DEATH(other.loadState(src), "unknown fault class 10");
}

/** A datapath holding every kind of saved state: spared rows and a
 *  spared bank, a TSV swap, landed and pending meta faults, a pending
 *  data fault, a poisoned line and an offlined page. */
void
runScriptedScenario(LiveRasDatapath &dp, const AddressMap &map)
{
    const auto line = [&](u32 ch, u32 b, u32 r, u32 c) {
        return map.coordToLine({StackId{0}, ChannelId{ch}, BankId{b},
                                RowId{r}, ColId{c}});
    };
    for (u32 r = 0; r < 5; ++r)
        dp.scheduleFault(rowFault(0, 1, 1, r), 0);
    dp.scheduleFault(dataTsvFault(0, 0, 17), 0);
    dp.tick(0);
    for (u32 r = 0; r < 5; ++r)
        dp.onDemandRead(line(1, 1, r, 0), r + 1);

    dp.scheduleFault(bankFault(0, 0, 0), 10);
    dp.scheduleFault(bankFault(0, 0, 1), 10);
    dp.scheduleFault(bankFault(0, 1, 0), 10);
    MetaFault mf;
    mf.target = MetaTarget::ParityCacheLine;
    mf.stack = StackId{0};
    mf.slot = MetaSlotId{3};
    mf.flipMask = 1ull << 20;
    dp.scheduleMetaFault(mf, 12);
    dp.tick(20);
    dp.onDemandRead(line(0, 0, 9, 1), 21);

    dp.scheduleFault(rowFault(0, 0, 1, 7), 1'000'000);
    mf.target = MetaTarget::RrtEntry;
    mf.unit = UnitId{3};
    mf.slot = MetaSlotId{1};
    mf.mirrorFlipMask = 0b11000;
    dp.scheduleMetaFault(mf, 2'000'000);
    dp.tick(30);
}

// The exact checkpoint bytes of the scripted scenario. Sizes and
// fingerprints alone pass a symmetric reorder of two fields; this
// digest does not. Captured before the save and load field lists were
// merged into one: a checkpoint layout change must move it on purpose.
TEST_F(LiveRasTest, CheckpointBytesArePinned)
{
    LiveRasDatapath dp(cfg_);
    runScriptedScenario(dp, map_);
    const RasCounters &c = dp.counters();
    ASSERT_EQ(c.rowsSpared, 4u);
    ASSERT_EQ(c.banksSpared, 1u);
    ASSERT_EQ(c.tsvRepairs, 1u);
    ASSERT_GE(c.metaFaultsInjected, 1u);
    ASSERT_GE(c.pagesOfflined, 1u);
    ASSERT_GE(dp.poisonSet().runCount(), 1u);

    ByteSink sink;
    dp.saveState(sink);
    EXPECT_EQ(sink.bytes().size(), 2300u);
    EXPECT_EQ(fnv1a(sink.bytes()), 0x499daa058ebb5f4bull);
}

// ---------------------------------------------------------------------
// End-to-end: the datapath attached to the running timing simulator.
// ---------------------------------------------------------------------

TEST(LiveRasEndToEnd, BankFaultCorrectedMidRun)
{
    SimConfig cfg = tinyConfig();
    cfg.ras = RasTraffic::ThreeDPCached;

    LiveRasDatapath dp(cfg);
    // A quarter of the address space fails shortly after the run
    // starts; a single-bank fault peels via D1.
    dp.scheduleFault(bankFault(0, 0, 0), 500);

    SystemSim sim(cfg, findBenchmark("mcf"));
    sim.attachRas(&dp);
    const SimResult res = sim.run();

    // The simulation retires everything despite the fault.
    EXPECT_EQ(res.insnsRetired,
              static_cast<u64>(cfg.cores) * cfg.insnsPerCore);

    const RasCounters &c = dp.counters();
    EXPECT_GT(c.demandReads, 0u);
    EXPECT_GE(c.ce, 1u);          // at least one demand hit the bank
    EXPECT_EQ(c.sdc, 0u);         // every correction is bit-identical
    EXPECT_EQ(c.due, 0u);
    EXPECT_EQ(c.divergences, 0u);
    EXPECT_GT(c.parityGroupReads, 0u);
    EXPECT_EQ(c.banksSpared, 1u); // degraded gracefully via the BRT
    EXPECT_GT(c.remappedReads, 0u);

    // Correction traffic is charged to the memory system.
    EXPECT_GT(res.mem.rasReads, 0u);
}

TEST(LiveRasEndToEnd, UncorrectablePatternSurvivesToCompletion)
{
    SimConfig cfg = tinyConfig();
    cfg.insnsPerCore = 15'000;

    LiveRasDatapath dp(cfg);
    dp.scheduleFault(bankFault(0, 0, 0), 0);
    dp.scheduleFault(bankFault(0, 0, 1), 0);
    dp.scheduleFault(bankFault(0, 1, 0), 0);

    SystemSim sim(cfg, findBenchmark("mcf"));
    sim.attachRas(&dp);
    const SimResult res = sim.run();

    // No abort, no hang: the run completes with DUEs reported.
    EXPECT_EQ(res.insnsRetired,
              static_cast<u64>(cfg.cores) * cfg.insnsPerCore);
    EXPECT_GT(dp.counters().due, 0u);
    EXPECT_GT(dp.counters().dueReads, 0u);
    EXPECT_EQ(dp.counters().sdc, 0u);
    EXPECT_EQ(dp.counters().divergences, 0u);
}

TEST(LiveRasEndToEnd, CorrectionLatencyStallsTheRun)
{
    SimConfig cfg = tinyConfig();
    cfg.ras = RasTraffic::ThreeDPCached;

    SystemSim clean(cfg, findBenchmark("mcf"));
    const SimResult base = clean.run();

    LiveRasOptions opts;
    opts.scheme.enableDds = false; // no sparing: every hit re-corrects
    LiveRasDatapath dp2(cfg, opts);
    dp2.scheduleFault(bankFault(0, 0, 0), 0);

    SystemSim faulty(cfg, findBenchmark("mcf"));
    faulty.attachRas(&dp2);
    const SimResult slow = faulty.run();

    // Re-correcting a quarter of the space on every access must cost
    // cycles: the replay-token chain holds cores until the parity-group
    // reads complete.
    EXPECT_GT(dp2.counters().ce, 10u);
    EXPECT_GT(slow.cycles, base.cycles);
    EXPECT_GT(slow.mem.rasReads, base.mem.rasReads);
}

} // namespace
} // namespace citadel
