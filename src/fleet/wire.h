/**
 * @file
 * Fleet wire protocol: a compact binary frame format for batches of
 * `Request` / `Response` records, and the byte-stream transport that
 * carries it between the campaign's client side and its stack servers.
 *
 * A frame is a 16-byte header followed by a packed array of
 * fixed-width little-endian records:
 *
 *     offset  size  field
 *          0     4  magic        0xC17ADE1F
 *          4     1  version      kWireVersion
 *          5     1  kind         1 = RequestBatch, 2 = ResponseBatch
 *          6     2  count        records in the payload (<= 4096)
 *          8     4  payload      payload bytes = count * record size
 *         12     4  crc32        over bytes [0, 12) ++ payload
 *         16     …  payload      `count` packed records
 *
 * The CRC is computed through Crc32::update — the same runtime-
 * dispatched kernel (slice8 / PCLMUL / ARMv8) the device datapath
 * uses — over everything except the stored CRC itself, so every
 * single-bit corruption anywhere in a frame is rejected. Decoding is
 * zero-copy: a FrameView borrows the input buffer and materializes
 * records on access; nothing is allocated and malformed input is
 * answered with a DecodeStatus, never a crash or a fatal() (the
 * checkpoint ByteSource is deliberately NOT reused here — a wire peer
 * may present garbage, a checkpoint may not).
 *
 * The transport is a deliberately dumb byte pipe with one duplex
 * channel per server: sending a frame appends its bytes to the peer's
 * RxStream, and the receiver reassembles frames from that stream.
 * Because frames are length-prefixed, a partial stream just waits for
 * more bytes.
 */

#ifndef CITADEL_FLEET_WIRE_H
#define CITADEL_FLEET_WIRE_H

#include <span>
#include <vector>

#include "fleet/fleet_types.h"

namespace citadel {
namespace fleet {

// ---- Frame format --------------------------------------------------

constexpr u32 kFrameMagic = 0xC17ADE1Fu;
constexpr u8 kWireVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 16;
constexpr std::size_t kRequestRecordBytes = 41;
constexpr std::size_t kResponseRecordBytes = 37;
/** The decoder's bound on a frame's record count: a peer's count
 *  field above it is rejected as BadCount. */
constexpr u32 kMaxFrameRecords = 4096;
/** Records per frame on the campaign's request and response paths: a
 *  frame ships once it holds this many, and a partial one at the end
 *  of the tick. */
constexpr u32 kFrameRecords = 32;
static_assert(kFrameRecords <= kMaxFrameRecords);

/** What a frame carries. */
enum class FrameKind : u8
{
    RequestBatch = 1,
    ResponseBatch = 2,
};

/** Why a decode was rejected (Ok = accepted). */
enum class DecodeStatus : u8
{
    Ok,
    Truncated,  ///< Fewer bytes than the header/payload requires.
    BadMagic,
    BadVersion, ///< Version skew: reject, never guess at layout.
    BadKind,
    BadCount,   ///< count > kMaxFrameRecords.
    BadLength,  ///< payload size inconsistent with count * record.
    BadCrc,
    BadRecord,  ///< CRC passed but a record enum byte is out of range.
};

const char *decodeStatusName(DecodeStatus s);

/**
 * Zero-copy view of a decoded frame: borrows the buffer handed to
 * decodeFrame() (which must outlive the view) and unpacks records on
 * access. requestAt/responseAt bounds- and kind-check with fatal():
 * by the time a view exists the frame has already been validated, so
 * a bad index is a caller bug, not wire input.
 */
class FrameView
{
  public:
    FrameKind kind() const { return kind_; }
    u32 count() const { return count_; }

    Request requestAt(u32 i) const;
    Response responseAt(u32 i) const;

    /** Borrowed payload pointer — inside the decoded buffer (the
     *  zero-copy property the wire tests pin). */
    const u8 *payload() const { return payload_; }

  private:
    friend DecodeStatus decodeFrame(std::span<const u8> buf,
                                    FrameView &out,
                                    std::size_t *consumed);
    FrameKind kind_ = FrameKind::RequestBatch;
    u32 count_ = 0;
    const u8 *payload_ = nullptr;
};

/**
 * Decode one frame from the front of `buf`. On Ok, `out` borrows
 * `buf` and `*consumed` (if non-null) is the frame's total size —
 * trailing bytes belong to the next frame. On Truncated, more bytes
 * are needed (stream reassembly); every other status is a permanent
 * rejection of the frame. Never crashes on arbitrary input.
 */
DecodeStatus decodeFrame(std::span<const u8> buf, FrameView &out,
                         std::size_t *consumed = nullptr);

/**
 * Reusable frame encoder. begin*() resets the buffer (capacity is
 * kept, so steady-state encoding never allocates), add() packs one
 * record, finish() patches count/length/CRC and returns the frame.
 * Adding more than kMaxFrameRecords records is fatal; the campaign
 * ships its frames at kFrameRecords.
 */
class FrameWriter
{
  public:
    void beginRequestFrame() { begin(FrameKind::RequestBatch); }
    void beginResponseFrame() { begin(FrameKind::ResponseBatch); }

    void add(const Request &r);
    void add(const Response &r);

    u32 count() const { return count_; }
    /** Between a begin*() and its finish(). */
    bool open() const { return open_; }

    /** Finalize and return the frame (valid until the next begin*). */
    std::span<const u8> finish();

  private:
    void begin(FrameKind kind);

    std::vector<u8> buf_;
    FrameKind kind_ = FrameKind::RequestBatch;
    u32 count_ = 0;
    bool open_ = false;
};

// ---- Transport -----------------------------------------------------

/**
 * A received byte stream awaiting frame reassembly. `pos` is the
 * consumer's cursor; compact() drops consumed bytes once the stream
 * is fully drained (the steady state), so the buffer is reused rather
 * than reallocated.
 */
struct RxStream
{
    std::vector<u8> buf;
    std::size_t pos = 0;

    std::span<const u8> pending() const
    {
        return {buf.data() + pos, buf.size() - pos};
    }
    void consume(std::size_t n) { pos += n; }
    void compact()
    {
        if (pos == buf.size()) {
            buf.clear();
            pos = 0;
        }
    }
};

/**
 * One duplex byte channel per server, in process: a send is an append
 * to the peer's RxStream. Everything here runs in the campaign's
 * serial phase (send and receive are two halves of the same
 * single-threaded loop), so each stream holds exactly the bytes sent
 * to it, in FIFO order.
 */
class Transport
{
  public:
    explicit Transport(u32 servers);

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** Append bytes to server `s`'s stream / the client side's. */
    void sendToServer(u32 s, std::span<const u8> bytes)
        CITADEL_REQUIRES(kSerialPhase);
    void sendToClient(u32 s, std::span<const u8> bytes)
        CITADEL_REQUIRES(kSerialPhase);

    /** Bytes that have arrived at server `s` / at the client side. */
    RxStream &serverRx(u32 s) CITADEL_REQUIRES(kSerialPhase);
    RxStream &clientRx(u32 s) CITADEL_REQUIRES(kSerialPhase);

  private:
    std::vector<RxStream> serverRx_; ///< Client → server direction.
    std::vector<RxStream> clientRx_; ///< Server → client direction.
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_WIRE_H
