#include "fleet/wire.h"

#include <cstring>

#include "common/log.h"
#include "ecc/crc32.h"

namespace citadel {
namespace fleet {

// ---- Frame format --------------------------------------------------

namespace {

// Record layouts (little-endian, byte offsets):
//   Request (41B):  op@0 key@8 version@16 value@24 attempt@32
//                   replica@36 kind@40
//   Response (37B): op@0 version@8 value@16 attempt@24 replica@28
//                   from@32 status@36

inline void putLE16(u8 *p, u16 v)
{
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
}

inline void putLE32(u8 *p, u32 v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

inline void putLE64(u8 *p, u64 v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

inline u16 getLE16(const u8 *p)
{
    return static_cast<u16>(p[0] | (u16(p[1]) << 8));
}

inline u32 getLE32(const u8 *p)
{
    u32 v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

inline u64 getLE64(const u8 *p)
{
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

inline std::size_t recordBytesFor(FrameKind kind)
{
    return kind == FrameKind::RequestBatch ? kRequestRecordBytes
                                           : kResponseRecordBytes;
}

/** CRC over the first 12 header bytes plus the payload (everything a
 *  frame carries except the stored CRC itself). */
u32 frameCrc(const u8 *frame, std::size_t payloadBytes)
{
    u32 state = Crc32::begin();
    state = Crc32::update(state, std::span<const u8>(frame, 12));
    state = Crc32::update(
        state,
        std::span<const u8>(frame + kFrameHeaderBytes, payloadBytes));
    return Crc32::finish(state);
}

} // namespace

const char *decodeStatusName(DecodeStatus s)
{
    switch (s) {
    case DecodeStatus::Ok: return "ok";
    case DecodeStatus::Truncated: return "truncated";
    case DecodeStatus::BadMagic: return "bad-magic";
    case DecodeStatus::BadVersion: return "bad-version";
    case DecodeStatus::BadKind: return "bad-kind";
    case DecodeStatus::BadCount: return "bad-count";
    case DecodeStatus::BadLength: return "bad-length";
    case DecodeStatus::BadCrc: return "bad-crc";
    case DecodeStatus::BadRecord: return "bad-record";
    }
    return "?";
}

Request FrameView::requestAt(u32 i) const
{
    if (kind_ != FrameKind::RequestBatch)
        panic("FrameView::requestAt on a response frame");
    if (i >= count_)
        panic("FrameView::requestAt(%u) out of range (count %u)", i,
              count_);
    const u8 *p = payload_ + std::size_t(i) * kRequestRecordBytes;
    Request r;
    r.op = getLE64(p + 0);
    r.key = getLE64(p + 8);
    r.version = getLE64(p + 16);
    r.value = getLE64(p + 24);
    r.attempt = getLE32(p + 32);
    r.replica = getLE32(p + 36);
    r.kind = static_cast<OpKind>(p[40]);
    return r;
}

Response FrameView::responseAt(u32 i) const
{
    if (kind_ != FrameKind::ResponseBatch)
        panic("FrameView::responseAt on a request frame");
    if (i >= count_)
        panic("FrameView::responseAt(%u) out of range (count %u)", i,
              count_);
    const u8 *p = payload_ + std::size_t(i) * kResponseRecordBytes;
    Response r;
    r.op = getLE64(p + 0);
    r.version = getLE64(p + 8);
    r.value = getLE64(p + 16);
    r.attempt = getLE32(p + 24);
    r.replica = getLE32(p + 28);
    r.from = getLE32(p + 32);
    r.status = static_cast<Status>(p[36]);
    return r;
}

DecodeStatus decodeFrame(std::span<const u8> buf, FrameView &out,
                         std::size_t *consumed)
{
    if (buf.size() < kFrameHeaderBytes)
        return DecodeStatus::Truncated;
    const u8 *p = buf.data();
    if (getLE32(p + 0) != kFrameMagic)
        return DecodeStatus::BadMagic;
    if (p[4] != kWireVersion)
        return DecodeStatus::BadVersion;
    const u8 kindByte = p[5];
    if (kindByte != static_cast<u8>(FrameKind::RequestBatch) &&
        kindByte != static_cast<u8>(FrameKind::ResponseBatch))
        return DecodeStatus::BadKind;
    const FrameKind kind = static_cast<FrameKind>(kindByte);
    const u32 count = getLE16(p + 6);
    if (count > kMaxFrameRecords)
        return DecodeStatus::BadCount;
    const u32 payloadBytes = getLE32(p + 8);
    // count/length single-bit flips always break this consistency
    // check, so neither field needs independent CRC coverage to be
    // caught — but both are still inside the CRC anyway.
    if (payloadBytes != count * recordBytesFor(kind))
        return DecodeStatus::BadLength;
    if (buf.size() < kFrameHeaderBytes + payloadBytes)
        return DecodeStatus::Truncated;
    if (getLE32(p + 12) != frameCrc(p, payloadBytes))
        return DecodeStatus::BadCrc;
    // CRC passed: the bytes are what the encoder wrote. Enum bytes are
    // still validated so a buggy (or hand-rolled) encoder can't smuggle
    // out-of-range values into switch statements downstream.
    const u8 *payload = p + kFrameHeaderBytes;
    if (kind == FrameKind::RequestBatch) {
        for (u32 i = 0; i < count; ++i) {
            const u8 op =
                payload[std::size_t(i) * kRequestRecordBytes + 40];
            if (op > static_cast<u8>(OpKind::Write))
                return DecodeStatus::BadRecord;
        }
    } else {
        for (u32 i = 0; i < count; ++i) {
            const u8 st =
                payload[std::size_t(i) * kResponseRecordBytes + 36];
            if (st > static_cast<u8>(Status::Busy))
                return DecodeStatus::BadRecord;
        }
    }
    out.kind_ = kind;
    out.count_ = count;
    out.payload_ = payload;
    if (consumed)
        *consumed = kFrameHeaderBytes + payloadBytes;
    return DecodeStatus::Ok;
}

void FrameWriter::begin(FrameKind kind)
{
    buf_.assign(kFrameHeaderBytes, 0);
    kind_ = kind;
    count_ = 0;
    open_ = true;
}

void FrameWriter::add(const Request &r)
{
    if (!open_ || kind_ != FrameKind::RequestBatch)
        panic("FrameWriter::add(Request) outside an open request frame");
    if (count_ >= kMaxFrameRecords)
        fatal("FrameWriter: request frame exceeds %u records",
              kMaxFrameRecords);
    const std::size_t at = buf_.size();
    buf_.resize(at + kRequestRecordBytes);
    u8 *p = buf_.data() + at;
    putLE64(p + 0, r.op);
    putLE64(p + 8, r.key);
    putLE64(p + 16, r.version);
    putLE64(p + 24, r.value);
    putLE32(p + 32, r.attempt);
    putLE32(p + 36, r.replica);
    p[40] = static_cast<u8>(r.kind);
    ++count_;
}

void FrameWriter::add(const Response &r)
{
    if (!open_ || kind_ != FrameKind::ResponseBatch)
        panic("FrameWriter::add(Response) outside an open response "
              "frame");
    if (count_ >= kMaxFrameRecords)
        fatal("FrameWriter: response frame exceeds %u records",
              kMaxFrameRecords);
    const std::size_t at = buf_.size();
    buf_.resize(at + kResponseRecordBytes);
    u8 *p = buf_.data() + at;
    putLE64(p + 0, r.op);
    putLE64(p + 8, r.version);
    putLE64(p + 16, r.value);
    putLE32(p + 24, r.attempt);
    putLE32(p + 28, r.replica);
    putLE32(p + 32, r.from);
    p[36] = static_cast<u8>(r.status);
    ++count_;
}

std::span<const u8> FrameWriter::finish()
{
    if (!open_)
        panic("FrameWriter::finish without begin");
    open_ = false;
    u8 *p = buf_.data();
    const u32 payloadBytes =
        static_cast<u32>(buf_.size() - kFrameHeaderBytes);
    putLE32(p + 0, kFrameMagic);
    p[4] = kWireVersion;
    p[5] = static_cast<u8>(kind_);
    putLE16(p + 6, static_cast<u16>(count_));
    putLE32(p + 8, payloadBytes);
    putLE32(p + 12, frameCrc(p, payloadBytes));
    return {buf_.data(), buf_.size()};
}

// ---- Transport -----------------------------------------------------

Transport::Transport(u32 servers)
    : serverRx_(servers), clientRx_(servers)
{
    if (servers == 0)
        fatal("Transport: zero servers");
}

RxStream &Transport::serverRx(u32 s)
{
    if (s >= serverRx_.size())
        panic("Transport::serverRx(%u) out of range", s);
    return serverRx_[s];
}

RxStream &Transport::clientRx(u32 s)
{
    if (s >= clientRx_.size())
        panic("Transport::clientRx(%u) out of range", s);
    return clientRx_[s];
}

void Transport::sendToServer(u32 s, std::span<const u8> bytes)
{
    RxStream &rx = serverRx(s);
    rx.buf.insert(rx.buf.end(), bytes.begin(), bytes.end());
}

void Transport::sendToClient(u32 s, std::span<const u8> bytes)
{
    RxStream &rx = clientRx(s);
    rx.buf.insert(rx.buf.end(), bytes.begin(), bytes.end());
}

} // namespace fleet
} // namespace citadel
