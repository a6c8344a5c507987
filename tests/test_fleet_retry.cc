/**
 * @file
 * Deterministic unit tests of the fleet client's retry machinery
 * under a fake clock: backoff growth/cap/jitter, per-attempt
 * timeouts, hedged reads, deadline failure, duplicate suppression,
 * quorum write acks, the fatal sizing limits, and corrupt op records
 * in a restored checkpoint. No servers here — the test scripts
 * placement and captures every request the client sends, then feeds
 * responses back at chosen virtual times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fleet/client.h"
#include "fleet/retry.h"

using namespace citadel;
using namespace citadel::fleet;

namespace {

// ---- RetryPolicy ---------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministic)
{
    RetryPolicy p;
    p.seed = 42;
    for (u32 attempt = 1; attempt < 6; ++attempt)
        EXPECT_EQ(p.backoff(7, attempt), p.backoff(7, attempt));
    // Different ops decorrelate (not all equal across a small sweep).
    bool differs = false;
    for (u64 op = 0; op < 16 && !differs; ++op)
        differs = p.backoff(op, 3) != p.backoff(op + 1, 3);
    EXPECT_TRUE(differs);
}

TEST(RetryPolicy, BackoffJitterStaysInWindow)
{
    RetryPolicy p;
    p.seed = 99;
    for (u64 op = 0; op < 64; ++op) {
        for (u32 attempt = 1; attempt < 10; ++attempt) {
            u64 window = kBackoffBase << (attempt - 1);
            window = std::min(window, kBackoffCap);
            const u64 d = p.backoff(op, attempt);
            EXPECT_GE(d, window / 2) << "op " << op << " a " << attempt;
            EXPECT_LT(d, window);
        }
    }
}

TEST(RetryPolicy, BackoffGrowsThenCaps)
{
    static_assert(kBackoffBase == 4 && kBackoffCap == 256);
    RetryPolicy p;
    p.seed = 5;
    // Window sequence: 4, 8, 16, 32, 64, 128, 256, 256, ... jitter
    // keeps delays in [w/2, w), so attempt 40's delay is bounded by
    // the cap.
    EXPECT_LT(p.backoff(3, 1), 4u);
    EXPECT_GE(p.backoff(3, 4), 16u);
    EXPECT_LT(p.backoff(3, 4), 32u);
    EXPECT_GE(p.backoff(3, 7), 128u);
    EXPECT_LT(p.backoff(3, 40), 256u);
    EXPECT_GE(p.backoff(3, 40), 128u);
}

TEST(RetryPolicy, HugeAttemptOrdinalDoesNotOverflow)
{
    RetryPolicy p;
    // 4 << 199 (or << 2^32 - 2) would overflow; the shift saturates.
    for (const u32 attempt : {200u, 0xFFFFFFFFu}) {
        const u64 d = p.backoff(1, attempt);
        EXPECT_LT(d, kBackoffCap);
        EXPECT_GE(d, kBackoffCap / 2);
    }
}

// ---- Scripted client harness ---------------------------------------

/** Client sizing for the scripted tests: live op ids span at most
 *  kOpWindow (slots round up to a power of two), keys < kKeySpace. */
constexpr u64 kOpWindow = 16;
constexpr u64 kKeySpace = 128;

/** Captures every request the client emits, with placement scripted
 *  by the test. */
struct Harness
{
    std::vector<ServerIdx> placement{0, 1};
    std::vector<std::pair<Request, ServerIdx>> sent;
    FleetClient client;

    explicit Harness(const RetryPolicy &p, u32 replication = 2,
                     u32 quorum = 2)
        : client(p, replication, quorum, /*valueSalt=*/77,
                 ClientTuning{kOpWindow, kKeySpace})
    {
        client.connect(
            [this](u64, std::vector<ServerIdx> &out) {
                out = placement;
            },
            [this](const Request &r, ServerIdx s) {
                sent.emplace_back(r, s);
            });
    }

    Response okFor(std::size_t i) const
    {
        const auto &[req, server] = sent[i];
        Response resp;
        resp.op = req.op;
        resp.attempt = req.attempt;
        resp.replica = req.replica;
        resp.status = Status::Ok;
        resp.version = req.version;
        resp.value = req.value;
        resp.from = server;
        return resp;
    }
};

RetryPolicy
testPolicy()
{
    RetryPolicy p;
    p.attemptTimeout = 10;
    p.opDeadline = 200;
    p.maxAttempts = 4;
    p.hedgeAfter = 6;
    p.seed = 1234;
    return p;
}

TEST(FleetClient, ReadCompletesOnResponse)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, /*now=*/0);
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.sent[0].second, 0u); // Primary first.
    h.client.onResponse(h.okFor(0), 2);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsAcked, 1u);
    EXPECT_EQ(h.client.counters().hedges, 0u);
}

TEST(FleetClient, ReadHedgesAfterHedgeDelay)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    // Just before the hedge delay: nothing new.
    for (u64 t = 1; t < 6; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.sent.size(), 1u);
    h.client.tick(6);
    ASSERT_EQ(h.sent.size(), 2u);
    EXPECT_EQ(h.sent[1].second, 1u); // Next replica.
    EXPECT_EQ(h.client.counters().hedges, 1u);

    // The hedge answers first: operation completes, hedgeWins counted.
    h.client.onResponse(h.okFor(1), 8);
    EXPECT_EQ(h.client.counters().opsAcked, 1u);
    EXPECT_EQ(h.client.counters().hedgeWins, 1u);
    // The primary's late answer is suppressed.
    h.client.onResponse(h.okFor(0), 9);
    EXPECT_EQ(h.client.counters().duplicatesSuppressed, 1u);
}

TEST(FleetClient, AttemptTimeoutBacksOffThenRetries)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    // Run past the attempt timeout (hedge fires on the way at t=6).
    for (u64 t = 1; t <= 10; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.client.counters().attemptTimeouts, 1u);
    EXPECT_EQ(h.client.counters().retries, 1u);
    const std::size_t before = h.sent.size();

    // The retry is delayed by backoff(op=1, attempt=1) in [2, 4).
    RetryPolicy p = testPolicy();
    const u64 delay = p.backoff(1, 1);
    EXPECT_GE(delay, 2u);
    EXPECT_LT(delay, 4u);
    for (u64 t = 11; t < 10 + delay; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.sent.size(), before); // Still backing off.
    h.client.tick(10 + delay);
    ASSERT_EQ(h.sent.size(), before + 1);
    // Second attempt rotates to the other replica.
    EXPECT_EQ(h.sent.back().second, 1u);
}

TEST(FleetClient, DeadlineFailsOperation)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    // No responses ever: the op must fail by its deadline, not hang.
    h.client.startRead(1, 50, 0);
    for (u64 t = 1; t <= 200; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsFailed, 1u);
    EXPECT_EQ(h.client.counters().opsAcked, 0u);
    // Attempt budget respected: at most maxAttempts rounds, each of
    // which may add one hedge.
    EXPECT_LE(h.client.counters().attempts,
              2ull * testPolicy().maxAttempts);
    EXPECT_LE(h.client.counters().attemptTimeouts,
              static_cast<u64>(testPolicy().maxAttempts));
}

TEST(FleetClient, WriteFansOutAndAcksAtQuorum)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startWrite(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 2u); // One request per replica.
    EXPECT_EQ(h.sent[0].first.version, 1u);
    EXPECT_EQ(h.sent[0].first.value,
              FleetClient::valueFor(50, 1, 77));

    // First ack: no quorum yet.
    h.client.onResponse(h.okFor(0), 1);
    EXPECT_EQ(h.client.inflight(), 1u);
    EXPECT_EQ(h.client.counters().writesAcked, 0u);
    // Duplicate ack from the same server does not count twice.
    h.client.onResponse(h.okFor(0), 2);
    EXPECT_EQ(h.client.inflight(), 1u);
    // Second replica acks: quorum reached.
    h.client.onResponse(h.okFor(1), 3);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().writesAcked, 1u);
    std::vector<std::pair<u64, u64>> acked; // (key, version)
    h.client.forEachAcked([&](u64 key, const FleetClient::AckedWrite &aw) {
        acked.emplace_back(key, aw.version);
    });
    EXPECT_EQ(acked, (std::vector<std::pair<u64, u64>>{{50, 1}}));
    EXPECT_EQ(h.client.ackedCount(), 1u);
}

TEST(FleetClient, WriteRefanoutSkipsAckedReplicas)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startWrite(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 2u);
    h.client.onResponse(h.okFor(0), 1); // Replica 0 acked.

    // Attempt times out; after backoff the re-fan-out goes only to
    // the replica that has not acked.
    for (u64 t = 2; t <= 20; ++t)
        h.client.tick(t);
    ASSERT_GE(h.sent.size(), 3u);
    for (std::size_t i = 2; i < h.sent.size(); ++i)
        EXPECT_EQ(h.sent[i].second, 1u);
}

TEST(FleetClient, BusyTriggersBackoffNotInstantRetry)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    Response busy;
    busy.op = 1;
    busy.attempt = 0;
    busy.status = Status::Busy;
    busy.from = 0;
    h.client.onResponse(busy, 1);
    EXPECT_EQ(h.client.counters().busyRejections, 1u);
    EXPECT_EQ(h.sent.size(), 1u); // No same-tick hammering.
    EXPECT_EQ(h.client.counters().retries, 1u);
    for (u64 t = 2; t <= 8; ++t)
        h.client.tick(t);
    EXPECT_GE(h.sent.size(), 2u); // Retried after the backoff window.
}

TEST(FleetClient, ReadFailsOverImmediatelyOnDueData)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    Response due;
    due.op = 1;
    due.attempt = 0;
    due.status = Status::DueData;
    due.from = 0;
    h.client.onResponse(due, 1);
    // DUE at the primary is not a timeout: the client fails over to
    // the next replica in the same tick.
    ASSERT_EQ(h.sent.size(), 2u);
    EXPECT_EQ(h.sent[1].second, 1u);
    EXPECT_EQ(h.client.counters().dueFailovers, 1u);
}

TEST(FleetClient, EmptyPlacementFailsFast)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.placement.clear(); // Every server evicted.
    h.client.startRead(1, 50, 0);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsFailed, 1u);
}

TEST(FleetClient, FinishCountsUnresolved)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    h.client.startWrite(2, 60, 0);
    h.client.finish();
    EXPECT_EQ(h.client.counters().opsUnresolved, 2u);
    EXPECT_EQ(h.client.inflight(), 0u);
}

// ---- Sizing limits ------------------------------------------------

TEST(FleetClientDeath, LiveOpSpanBeyondWindowIsFatal)
{
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    // Op 1 is still live, and op 1 + kOpWindow maps to its slot.
    EXPECT_DEATH(h.client.startRead(1 + kOpWindow, 50, 0),
                 "live op id span exceeds the op window");
}

TEST(FleetClientDeath, WriteKeyOutsideKeySpaceIsFatal)
{
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    EXPECT_DEATH(h.client.startWrite(1, kKeySpace, 0),
                 "outside the key space");
}

// ---- Checkpoint restore ---------------------------------------------

TEST(FleetClientDeath, CorruptRestoredOpRecordsAreFatal)
{
    // Distinctive ids (slots 1 and 2) locate each saved op record: the
    // live-op list precedes the wakeup buckets, and a record is the
    // id, then the kind byte, then the key.
    constexpr u64 kOpA = 0xA11CE00000000001ull;
    constexpr u64 kOpB = 0xA11CE00000000002ull;
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(kOpA, 50, 0);
    h.client.startWrite(kOpB, 60, 0);
    ByteSink sink;
    h.client.saveState(sink);
    const std::vector<u8> &saved = sink.bytes();
    const auto encode = [](u64 v) {
        ByteSink enc;
        enc.putU64(v);
        return enc.bytes();
    };
    const auto recordOf = [&](u64 id) {
        const std::vector<u8> enc = encode(id);
        return std::search(saved.begin(), saved.end(), enc.begin(),
                           enc.end()) -
               saved.begin();
    };
    const std::ptrdiff_t recA = recordOf(kOpA);
    const std::ptrdiff_t recB = recordOf(kOpB);
    ASSERT_LT(recA, recB);
    ASSERT_LT(recB, static_cast<std::ptrdiff_t>(saved.size()));

    const auto dies = [&](std::ptrdiff_t at, u64 v, const char *diag) {
        SCOPED_TRACE(diag);
        std::vector<u8> bytes = saved;
        const std::vector<u8> enc = encode(v);
        std::copy(enc.begin(), enc.end(), bytes.begin() + at);
        Harness restored(testPolicy());
        ByteSource src(bytes);
        EXPECT_DEATH(restored.client.loadState(src), diag);
    };
    dies(recB, kOpA, "duplicate operation id");
    dies(recB, kOpA + kOpWindow, "live op id span exceeds the op window");
    dies(recA + 9, kKeySpace, "outside the key space");
    dies(recA + 8, 2, "unknown op kind"); // Kind byte 2, key zeroed.
}

} // namespace
