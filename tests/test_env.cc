/**
 * @file
 * Hardened env-parser tests: every new knob flows through
 * envU64InRange / envDoubleInRange, so malformed or out-of-range text
 * must be *rejected back to the fallback*, never half-parsed into a
 * wedged campaign, and a fallback that itself violates the stated
 * range is a programming error (fatal).
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/kernels.h"
#include "fleet/wire.h"

namespace citadel {
namespace {

class EnvRangeTest : public ::testing::Test
{
  protected:
    static constexpr const char *kVar = "CITADEL_TEST_RANGE_VAR";

    void SetUp() override { unsetenv(kVar); }
    void TearDown() override { unsetenv(kVar); }

    void set(const char *text) { setenv(kVar, text, 1); }
};

TEST_F(EnvRangeTest, UnsetReturnsFallback)
{
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 7u);
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 2.5);
}

TEST_F(EnvRangeTest, InRangeValueAccepted)
{
    set("42");
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 42u);
    set("3.125");
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 3.125);
}

TEST_F(EnvRangeTest, BoundariesAreInclusive)
{
    set("1");
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 1u);
    set("100");
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 100u);
    set("0.0");
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 0.0);
    set("10.0");
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 10.0);
}

TEST_F(EnvRangeTest, MalformedTextRejectedToFallback)
{
    for (const char *bad : {"bogus", "", " ", "12abc", "--3"}) {
        set(bad);
        EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 7u) << bad;
        EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 2.5)
            << bad;
    }
}

TEST_F(EnvRangeTest, OutOfRangeRejectedToFallback)
{
    set("0");
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 7u);
    set("101");
    EXPECT_EQ(envU64InRange(kVar, 7, 1, 100), 7u);
    set("-1.0");
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 2.5);
    set("1e9");
    EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 2.5);
}

TEST_F(EnvRangeTest, NonFiniteAlwaysRejected)
{
    for (const char *bad : {"nan", "inf", "-inf", "NAN", "Infinity"}) {
        set(bad);
        EXPECT_DOUBLE_EQ(envDoubleInRange(kVar, 2.5, 0.0, 10.0), 2.5)
            << bad;
    }
}

TEST_F(EnvRangeTest, FallbackOutsideRangeIsFatal)
{
    // A fallback violating its own stated range is a programming
    // error, not user input: it must die loudly even when unset.
    EXPECT_DEATH(envU64InRange(kVar, 0, 1, 100), "fallback");
    EXPECT_DEATH(envDoubleInRange(kVar, 11.0, 0.0, 10.0), "fallback");
}

TEST_F(EnvRangeTest, SoakKnobRangesMatchDriver)
{
    // The exact knob/range pairs the soak driver publishes; a typo'd
    // "1e9" scrub or a 0 backoff must come back as the default.
    setenv("CITADEL_SOAK_YEARS", "1e9", 1);
    EXPECT_DOUBLE_EQ(
        envDoubleInRange("CITADEL_SOAK_YEARS", 2.0, 0.01, 100.0), 2.0);
    unsetenv("CITADEL_SOAK_YEARS");

    setenv("CITADEL_META_BACKOFF_CYCLES", "0", 1);
    EXPECT_EQ(envU64InRange("CITADEL_META_BACKOFF_CYCLES", 16, 1,
                            1'000'000),
              16u);
    unsetenv("CITADEL_META_BACKOFF_CYCLES");

    setenv("CITADEL_SOAK_SHARDS", "99999", 1);
    EXPECT_EQ(envU64InRange("CITADEL_SOAK_SHARDS", 4, 1, 256), 4u);
    unsetenv("CITADEL_SOAK_SHARDS");
}

TEST_F(EnvRangeTest, FleetKnobRangesMatchDriver)
{
    // The exact knob/range pairs the fleet load driver publishes
    // (bench/fleet_load_driver.cc). A fleet of 1 cannot replicate, a
    // fleet of 65 overflows the write-ack bitmask, and a probability
    // above 1 is nonsense -- each must come back as the default.
    setenv("CITADEL_FLEET_SERVERS", "1", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_SERVERS", 8, 2, 64), 8u);
    setenv("CITADEL_FLEET_SERVERS", "65", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_SERVERS", 8, 2, 64), 8u);
    unsetenv("CITADEL_FLEET_SERVERS");

    setenv("CITADEL_FLEET_TICKS", "10", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_TICKS", 2048, 64, 1'000'000),
              2048u);
    unsetenv("CITADEL_FLEET_TICKS");

    setenv("CITADEL_FLEET_REPLICATION", "9", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_REPLICATION", 2, 1, 8), 2u);
    unsetenv("CITADEL_FLEET_REPLICATION");

    setenv("CITADEL_FLEET_QUORUM", "0", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_QUORUM", 2, 1, 8), 2u);
    unsetenv("CITADEL_FLEET_QUORUM");

    setenv("CITADEL_FLEET_WRITE_FRAC", "1.5", 1);
    EXPECT_DOUBLE_EQ(
        envDoubleInRange("CITADEL_FLEET_WRITE_FRAC", 0.5, 0.0, 1.0),
        0.5);
    unsetenv("CITADEL_FLEET_WRITE_FRAC");

    setenv("CITADEL_FLEET_DROP_PROB", "2", 1);
    EXPECT_DOUBLE_EQ(
        envDoubleInRange("CITADEL_FLEET_DROP_PROB", 0.01, 0.0, 1.0),
        0.01);
    unsetenv("CITADEL_FLEET_DROP_PROB");

    setenv("CITADEL_FLEET_QUEUE_CAP", "0", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_QUEUE_CAP", 256, 1, 65536),
              256u);
    unsetenv("CITADEL_FLEET_QUEUE_CAP");

    setenv("CITADEL_FLEET_CALIB_INSNS", "999999999", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_CALIB_INSNS", 20'000, 0,
                            10'000'000),
              20'000u);
    unsetenv("CITADEL_FLEET_CALIB_INSNS");

    // Wire batch: a frame must carry at least one record and at most
    // kMaxFrameRecords (4096, the decoder's hard cap).
    setenv("CITADEL_FLEET_BATCH", "0", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_BATCH", 32, 1, 4096), 32u);
    setenv("CITADEL_FLEET_BATCH", "4097", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_BATCH", 32, 1, 4096), 32u);
    setenv("CITADEL_FLEET_BATCH", "4096", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_BATCH", 32, 1, 4096),
              4096u);
    unsetenv("CITADEL_FLEET_BATCH");

    // Elasticity knobs: the on/off switches reject anything but 0/1,
    // and the checkpoint cut tick rejects values past the range cap —
    // each falls back to its (off) default with a warning.
    setenv("CITADEL_FLEET_JOIN", "2", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_JOIN", 0, 0, 1), 0u);
    setenv("CITADEL_FLEET_JOIN", "1", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_JOIN", 0, 0, 1), 1u);
    unsetenv("CITADEL_FLEET_JOIN");

    setenv("CITADEL_FLEET_REBALANCE", "7", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_REBALANCE", 0, 0, 1), 0u);
    setenv("CITADEL_FLEET_REBALANCE", "1", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_REBALANCE", 0, 0, 1), 1u);
    unsetenv("CITADEL_FLEET_REBALANCE");

    setenv("CITADEL_FLEET_CHECKPOINT", "1000001", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_CHECKPOINT", 0, 0,
                            1'000'000),
              0u);
    setenv("CITADEL_FLEET_CHECKPOINT", "-5", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_CHECKPOINT", 0, 0,
                            1'000'000),
              0u);
    setenv("CITADEL_FLEET_CHECKPOINT", "512", 1);
    EXPECT_EQ(envU64InRange("CITADEL_FLEET_CHECKPOINT", 0, 0,
                            1'000'000),
              512u);
    unsetenv("CITADEL_FLEET_CHECKPOINT");
}

class KernelEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("CITADEL_KERNEL"); }
    void TearDown() override { unsetenv("CITADEL_KERNEL"); }
};

TEST_F(KernelEnvTest, UnsetResolvesToAuto)
{
    EXPECT_EQ(requestedKernelMode(), KernelMode::Auto);
}

TEST_F(KernelEnvTest, ExactLowercaseSpellingsAccepted)
{
    setenv("CITADEL_KERNEL", "scalar", 1);
    EXPECT_EQ(requestedKernelMode(), KernelMode::Scalar);
    setenv("CITADEL_KERNEL", "vector", 1);
    EXPECT_EQ(requestedKernelMode(), KernelMode::Vector);
    setenv("CITADEL_KERNEL", "auto", 1);
    EXPECT_EQ(requestedKernelMode(), KernelMode::Auto);
}

TEST_F(KernelEnvTest, InvalidValuesRejectedToAuto)
{
    // The knob selects among bit-identical implementations, so the
    // safe fallback for malformed text is Auto (fastest available),
    // with a warning — never a half-parsed or wedged mode.
    for (const char *bad : {"Scalar", "VECTOR", "simd", "avx2", "",
                            " auto", "auto ", "scalar|vector", "2"}) {
        setenv("CITADEL_KERNEL", bad, 1);
        EXPECT_EQ(requestedKernelMode(), KernelMode::Auto) << bad;
    }
}

class TransportEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("CITADEL_FLEET_TRANSPORT"); }
    void TearDown() override { unsetenv("CITADEL_FLEET_TRANSPORT"); }
};

TEST_F(TransportEnvTest, UnsetResolvesToLoopback)
{
    EXPECT_EQ(fleet::requestedTransportMode(),
              fleet::TransportMode::Loopback);
}

TEST_F(TransportEnvTest, ExactLowercaseSpellingsAccepted)
{
    setenv("CITADEL_FLEET_TRANSPORT", "loopback", 1);
    EXPECT_EQ(fleet::requestedTransportMode(),
              fleet::TransportMode::Loopback);
    setenv("CITADEL_FLEET_TRANSPORT", "socket", 1);
    EXPECT_EQ(fleet::requestedTransportMode(),
              fleet::TransportMode::Socket);
}

TEST_F(TransportEnvTest, InvalidValuesRejectedToLoopback)
{
    // Both transports produce the same fingerprint, so the safe
    // fallback for malformed text is the default (loopback), with a
    // warning — never a half-parsed mode. "direct" names a transport
    // that no longer exists and falls back the same way.
    for (const char *bad :
         {"direct", "Direct", "SOCKET", "tcp", "", " socket", "socket ",
          "loopback|socket", "3"}) {
        setenv("CITADEL_FLEET_TRANSPORT", bad, 1);
        EXPECT_EQ(fleet::requestedTransportMode(),
                  fleet::TransportMode::Loopback)
            << bad;
    }
}

} // namespace
} // namespace citadel
