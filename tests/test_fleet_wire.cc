/**
 * @file
 * Wire-protocol gate: the frame codec round-trips every record field,
 * rejects every malformed frame (truncated, bit-flipped, wrong
 * version/kind/count/length, corrupt records) without crashing, stays
 * zero-copy on decode, and the transport delivers frames intact in
 * both directions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "ecc/crc32.h"
#include "fleet/wire.h"

namespace citadel {
namespace fleet {
namespace {

Request
makeRequest(u64 i)
{
    Request r;
    r.op = mix64(i * 0x9E3779B97F4A7C15ull + 1);
    r.key = mix64(i ^ 0xA5A5ull);
    r.version = mix64(i + 17) | 1;
    r.value = mix64(i + 29);
    r.attempt = static_cast<u32>(mix64(i + 41) & 0xFFFFu);
    r.replica = static_cast<u32>(i % 7);
    r.kind = (i & 1) ? OpKind::Write : OpKind::Read;
    return r;
}

Response
makeResponse(u64 i)
{
    Response r;
    r.op = mix64(i * 0xBF58476D1CE4E5B9ull + 3);
    r.version = mix64(i + 5);
    r.value = mix64(i + 7);
    r.attempt = static_cast<u32>(mix64(i + 11) & 0xFFFFu);
    r.replica = static_cast<u32>(i % 5);
    r.from = static_cast<ServerIdx>(i % 13);
    r.status = static_cast<Status>(i % 4); // Ok..Busy, all valid.
    return r;
}

std::vector<u8>
encodeRequests(u32 n)
{
    FrameWriter w;
    w.beginRequestFrame();
    for (u32 i = 0; i < n; ++i)
        w.add(makeRequest(i));
    const std::span<const u8> frame = w.finish();
    return {frame.begin(), frame.end()};
}

std::vector<u8>
encodeResponses(u32 n)
{
    FrameWriter w;
    w.beginResponseFrame();
    for (u32 i = 0; i < n; ++i)
        w.add(makeResponse(i));
    const std::span<const u8> frame = w.finish();
    return {frame.begin(), frame.end()};
}

/** Recompute and patch the stored CRC after a deliberate header/
 *  payload mutation, so the test isolates the field check under test
 *  from the CRC check. */
void
patchCrc(std::vector<u8> &frame)
{
    ASSERT_GE(frame.size(), kFrameHeaderBytes);
    u32 state = Crc32::begin();
    state = Crc32::update(state, std::span<const u8>{frame.data(), 12});
    state = Crc32::update(
        state, std::span<const u8>{frame.data() + kFrameHeaderBytes,
                                   frame.size() - kFrameHeaderBytes});
    const u32 crc = Crc32::finish(state);
    frame[12] = static_cast<u8>(crc);
    frame[13] = static_cast<u8>(crc >> 8);
    frame[14] = static_cast<u8>(crc >> 16);
    frame[15] = static_cast<u8>(crc >> 24);
}

TEST(FleetWire, RequestBatchRoundTripsEveryField)
{
    const u32 n = 57;
    const std::vector<u8> frame = encodeRequests(n);
    EXPECT_EQ(frame.size(),
              kFrameHeaderBytes + n * kRequestRecordBytes);

    FrameView view;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(frame, view, &consumed), DecodeStatus::Ok);
    EXPECT_EQ(consumed, frame.size());
    ASSERT_EQ(view.kind(), FrameKind::RequestBatch);
    ASSERT_EQ(view.count(), n);
    for (u32 i = 0; i < n; ++i) {
        const Request want = makeRequest(i);
        const Request got = view.requestAt(i);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.key, want.key);
        EXPECT_EQ(got.version, want.version);
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.attempt, want.attempt);
        EXPECT_EQ(got.replica, want.replica);
        EXPECT_EQ(got.kind, want.kind);
    }
}

TEST(FleetWire, ResponseBatchRoundTripsEveryField)
{
    const u32 n = 33;
    const std::vector<u8> frame = encodeResponses(n);
    EXPECT_EQ(frame.size(),
              kFrameHeaderBytes + n * kResponseRecordBytes);

    FrameView view;
    ASSERT_EQ(decodeFrame(frame, view), DecodeStatus::Ok);
    ASSERT_EQ(view.kind(), FrameKind::ResponseBatch);
    ASSERT_EQ(view.count(), n);
    for (u32 i = 0; i < n; ++i) {
        const Response want = makeResponse(i);
        const Response got = view.responseAt(i);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.version, want.version);
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.attempt, want.attempt);
        EXPECT_EQ(got.replica, want.replica);
        EXPECT_EQ(got.from, want.from);
        EXPECT_EQ(got.status, want.status);
    }
}

TEST(FleetWire, EmptyFrameRoundTrips)
{
    const std::vector<u8> frame = encodeRequests(0);
    EXPECT_EQ(frame.size(), kFrameHeaderBytes);
    FrameView view;
    ASSERT_EQ(decodeFrame(frame, view), DecodeStatus::Ok);
    EXPECT_EQ(view.count(), 0u);
}

TEST(FleetWire, MaxRecordFrameRoundTrips)
{
    const std::vector<u8> frame = encodeRequests(kMaxFrameRecords);
    FrameView view;
    ASSERT_EQ(decodeFrame(frame, view), DecodeStatus::Ok);
    EXPECT_EQ(view.count(), kMaxFrameRecords);
    EXPECT_EQ(view.requestAt(kMaxFrameRecords - 1).op,
              makeRequest(kMaxFrameRecords - 1).op);
}

TEST(FleetWire, DecodeIsZeroCopy)
{
    const std::vector<u8> frame = encodeRequests(9);
    FrameView view;
    ASSERT_EQ(decodeFrame(frame, view), DecodeStatus::Ok);
    // The payload pointer must alias the input buffer, not a copy.
    EXPECT_EQ(view.payload(), frame.data() + kFrameHeaderBytes);
}

TEST(FleetWire, ConsumedLeavesTrailingBytesForTheNextFrame)
{
    const std::vector<u8> first = encodeRequests(5);
    const std::vector<u8> second = encodeRequests(11);
    std::vector<u8> stream = first;
    stream.insert(stream.end(), second.begin(), second.end());

    FrameView view;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(stream, view, &consumed), DecodeStatus::Ok);
    EXPECT_EQ(consumed, first.size());
    EXPECT_EQ(view.count(), 5u);

    const std::span<const u8> rest{stream.data() + consumed,
                                   stream.size() - consumed};
    ASSERT_EQ(decodeFrame(rest, view, &consumed), DecodeStatus::Ok);
    EXPECT_EQ(consumed, second.size());
    EXPECT_EQ(view.count(), 11u);
}

TEST(FleetWire, EveryTruncationIsReportedAsTruncated)
{
    const std::vector<u8> frame = encodeRequests(7);
    for (std::size_t len = 0; len < frame.size(); ++len) {
        FrameView view;
        const std::span<const u8> prefix{frame.data(), len};
        EXPECT_EQ(decodeFrame(prefix, view), DecodeStatus::Truncated)
            << "prefix length " << len;
    }
}

TEST(FleetWire, EverySingleBitFlipIsRejected)
{
    const std::vector<u8> frame = encodeRequests(8);
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<u8> bad = frame;
            bad[byte] ^= static_cast<u8>(1u << bit);
            FrameView view;
            EXPECT_NE(decodeFrame(bad, view), DecodeStatus::Ok)
                << "flip survived at byte " << byte << " bit " << bit;
        }
    }
}

TEST(FleetWire, HeaderFieldChecksFireWithAValidCrc)
{
    // Each mutation gets a freshly patched CRC so the named check —
    // not BadCrc — is what rejects the frame.
    std::vector<u8> frame = encodeRequests(3);
    FrameView view;

    std::vector<u8> badMagic = frame;
    badMagic[0] ^= 0xFF;
    patchCrc(badMagic);
    EXPECT_EQ(decodeFrame(badMagic, view), DecodeStatus::BadMagic);

    std::vector<u8> badVersion = frame;
    badVersion[4] = kWireVersion + 1;
    patchCrc(badVersion);
    EXPECT_EQ(decodeFrame(badVersion, view), DecodeStatus::BadVersion);

    std::vector<u8> badKind = frame;
    badKind[5] = 3;
    patchCrc(badKind);
    EXPECT_EQ(decodeFrame(badKind, view), DecodeStatus::BadKind);

    std::vector<u8> badCount = frame;
    const u32 over = kMaxFrameRecords + 1;
    badCount[6] = static_cast<u8>(over);
    badCount[7] = static_cast<u8>(over >> 8);
    patchCrc(badCount);
    EXPECT_EQ(decodeFrame(badCount, view), DecodeStatus::BadCount);

    std::vector<u8> badLength = frame;
    badLength[8] ^= 0x01; // payload-bytes no longer count * record.
    patchCrc(badLength);
    EXPECT_EQ(decodeFrame(badLength, view), DecodeStatus::BadLength);

    std::vector<u8> badCrc = frame;
    badCrc[12] ^= 0xFF;
    EXPECT_EQ(decodeFrame(badCrc, view), DecodeStatus::BadCrc);

    // A request-kind enum byte out of range survives the CRC (we
    // repatch) and must be caught by the record check.
    std::vector<u8> badRecord = frame;
    badRecord[kFrameHeaderBytes + 40] = 7; // record 0's kind byte.
    patchCrc(badRecord);
    EXPECT_EQ(decodeFrame(badRecord, view), DecodeStatus::BadRecord);

    // A response-status byte out of range, same story.
    std::vector<u8> badStatus = encodeResponses(2);
    badStatus[kFrameHeaderBytes + 36] = 9; // record 0's status byte.
    patchCrc(badStatus);
    EXPECT_EQ(decodeFrame(badStatus, view), DecodeStatus::BadRecord);
}

TEST(FleetWire, GarbageBuffersNeverCrashTheDecoder)
{
    // Counter-seeded garbage of every small size: the decoder must
    // return a status — any status — without reading out of bounds
    // (ASan-checked in CI) or crashing.
    for (u64 round = 0; round < 64; ++round) {
        const std::size_t len = (mix64(round ^ 0xBADC0DEull) % 512);
        std::vector<u8> junk(len);
        for (std::size_t i = 0; i < len; ++i)
            junk[i] = static_cast<u8>(mix64(round * 131 + i));
        FrameView view;
        (void)decodeFrame(junk, view);
        // Adversarial sweep: grant the header a valid prefix so deeper
        // checks run against garbage payloads.
        if (len >= kFrameHeaderBytes) {
            junk[0] = 0x1F;
            junk[1] = 0xDE;
            junk[2] = 0x7A;
            junk[3] = 0xC1;
            junk[4] = kWireVersion;
            junk[5] = 1;
            (void)decodeFrame(junk, view);
        }
    }
    SUCCEED();
}

TEST(FleetWire, WriterIsReusableWithoutStaleState)
{
    FrameWriter w;
    EXPECT_FALSE(w.open());
    w.beginRequestFrame();
    EXPECT_TRUE(w.open());
    for (u32 i = 0; i < 20; ++i)
        w.add(makeRequest(i));
    (void)w.finish();
    EXPECT_FALSE(w.open());

    // Re-begin must fully reset: a 1-record frame after a 20-record
    // frame decodes as exactly 1 record.
    w.beginRequestFrame();
    w.add(makeRequest(99));
    const std::span<const u8> frame = w.finish();
    FrameView view;
    ASSERT_EQ(decodeFrame(frame, view), DecodeStatus::Ok);
    ASSERT_EQ(view.count(), 1u);
    EXPECT_EQ(view.requestAt(0).op, makeRequest(99).op);
}

TEST(FleetWire, TransportRoundTripsFramesInOrder)
{
    ThreadRoleGrant serial(kSerialPhase);
    const u32 servers = 5;
    Transport t(servers);

    // Both directions, several frames per channel: each stream holds
    // its frames back to back and reassembles them in send order.
    const u32 framesPerServer = 24;
    const u32 recordsPerFrame = 96;
    FrameWriter w;
    for (u32 s = 0; s < servers; ++s) {
        for (u32 f = 0; f < framesPerServer; ++f) {
            w.beginRequestFrame();
            for (u32 i = 0; i < recordsPerFrame; ++i)
                w.add(makeRequest(u64(s) * 1000 + f * 100 + i));
            t.sendToServer(s, w.finish());

            w.beginResponseFrame();
            for (u32 i = 0; i < recordsPerFrame; ++i)
                w.add(makeResponse(u64(s) * 1000 + f * 100 + i));
            t.sendToClient(s, w.finish());
        }
    }

    for (u32 s = 0; s < servers; ++s) {
        for (int dir = 0; dir < 2; ++dir) {
            RxStream &rx = dir == 0 ? t.serverRx(s) : t.clientRx(s);
            u32 frames = 0;
            while (!rx.pending().empty()) {
                FrameView view;
                std::size_t consumed = 0;
                ASSERT_EQ(decodeFrame(rx.pending(), view, &consumed),
                          DecodeStatus::Ok);
                ASSERT_EQ(view.count(), recordsPerFrame);
                const u64 base = u64(s) * 1000 + frames * 100;
                if (dir == 0) {
                    ASSERT_EQ(view.kind(), FrameKind::RequestBatch);
                    EXPECT_EQ(view.requestAt(5).op,
                              makeRequest(base + 5).op);
                } else {
                    ASSERT_EQ(view.kind(), FrameKind::ResponseBatch);
                    EXPECT_EQ(view.responseAt(5).op,
                              makeResponse(base + 5).op);
                }
                rx.consume(consumed);
                ++frames;
            }
            rx.compact();
            EXPECT_EQ(frames, framesPerServer)
                << "server " << s << " dir " << dir;
        }
    }
}

} // namespace
} // namespace fleet
} // namespace citadel
