/**
 * @file
 * The EVA2 serving wire protocol: a small length-prefixed binary
 * framing over TCP.
 *
 * Every message is a fixed 32-byte header followed by a bounded
 * payload. The header carries a magic, a protocol version, the
 * message type, the wire session id (one TCP connection multiplexes
 * many sessions), a per-session sequence number, the payload length,
 * and an FNV-1a checksum over the preceding header bytes — so a
 * desynchronized or hostile peer is detected at the header, before a
 * length field can drive an allocation. All integers are
 * little-endian with explicit byte access (no struct punning, no
 * host-endianness assumptions).
 *
 * Message flow (client -> server unless noted):
 *
 *   HELLO      open session `name` with a priority class; `session`
 *              is the client-chosen wire id used by later messages.
 *   HELLO_ACK  (server) session admitted; carries the in-flight
 *              window (the session's credit budget).
 *   NACK       (server) typed rejection: connection/session limits,
 *              duplicate name, protocol violation, draining.
 *   FRAME      one input tensor; `seq` is the client's frame number.
 *   OUTCOME    (server) one completed frame: key flag, top-1, output
 *              digest, match error — plus the session's refreshed
 *              credit, the sender-visible backpressure signal.
 *   SHED       (server) the frame was dropped (window exceeded,
 *              overload, draining) without entering the engine;
 *              carries the refreshed credit.
 *   BYE        either side: orderly close after in-flight work.
 *
 * Decoding is hostile-input hardened: every length is bounded before
 * use, every parse failure throws ProtocolError with a description,
 * and the incremental FrameDecoder never buffers more than one
 * maximum-size message.
 */
#ifndef EVA2_NET_WIRE_H
#define EVA2_NET_WIRE_H

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/common.h"

namespace eva2::net {

/**
 * Thrown when a peer violates the wire protocol (bad magic, bad
 * checksum, out-of-bounds length, malformed payload). The connection
 * that produced it cannot be resynchronized and must be closed.
 */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &msg)
        : std::runtime_error("eva2 net protocol error: " + msg)
    {
    }
};

/** "EVA2" read as a little-endian u32. */
constexpr u32 kMagic = 0x32415645u;
constexpr u8 kWireVersion = 1;
/** Fixed encoded header size in bytes. */
constexpr size_t kHeaderSize = 32;
/**
 * Hard upper bound on one message's payload. Large enough for any
 * realistic input frame (a 1000x562 float frame is ~2.2 MiB), small
 * enough that a hostile length field cannot balloon server memory.
 */
constexpr u32 kMaxPayload = 16u * 1024 * 1024;

/** Message types. Values are wire-stable; never renumber. */
enum class MsgType : u8
{
    kHello = 1,
    kHelloAck = 2,
    kNack = 3,
    kFrame = 4,
    kOutcome = 5,
    kShed = 6,
    kBye = 7,
};

/** Why a HELLO (or the whole connection) was rejected. */
enum class NackReason : u16
{
    kProtocol = 1,        ///< Unparseable traffic; connection closes.
    kConnectionLimit = 2, ///< Server at max_connections.
    kSessionLimit = 3,    ///< Server at max_sessions.
    kDuplicateSession = 4, ///< Name already bound on a live connection.
    kDraining = 5,        ///< Server is shutting down.
    kBadFrame = 6,        ///< Frame shape does not match the network.
};

/** Why a FRAME was shed instead of processed. */
enum class ShedReason : u16
{
    kWindow = 1,   ///< Sender overran its in-flight window.
    kOverload = 2, ///< Server-wide in-flight cap for this priority.
    kDraining = 3, ///< Server is draining; no new work admitted.
    kMemory = 4,   ///< Engine resident-memory budget exceeded.
};

const char *nack_reason_name(NackReason reason);
const char *shed_reason_name(ShedReason reason);

/** Decoded message header. */
struct MsgHeader
{
    MsgType type = MsgType::kBye;
    u32 session = 0;     ///< Wire session id (client-chosen).
    u64 seq = 0;         ///< Per-session sequence number.
    u32 payload_len = 0; ///< Bytes following the header.
};

/** One fully decoded message. */
struct Message
{
    MsgHeader header;
    std::vector<u8> payload;
};

// --------------------------------------------------------------------
// Bounded little-endian readers/writers

/** Append-only little-endian byte writer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<u8> *out) : out_(out) {}

    void
    u8v(u8 v)
    {
        out_->push_back(v);
    }

    void
    u16v(u16 v)
    {
        out_->push_back(static_cast<u8>(v));
        out_->push_back(static_cast<u8>(v >> 8));
    }

    void
    u32v(u32 v)
    {
        u16v(static_cast<u16>(v));
        u16v(static_cast<u16>(v >> 16));
    }

    void
    u64v(u64 v)
    {
        u32v(static_cast<u32>(v));
        u32v(static_cast<u32>(v >> 32));
    }

    void
    f32v(float v)
    {
        u32 bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32v(bits);
    }

    void
    f64v(double v)
    {
        u64 bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64v(bits);
    }

    void
    bytes(const void *p, size_t n)
    {
        const u8 *b = static_cast<const u8 *>(p);
        out_->insert(out_->end(), b, b + n);
    }

  private:
    std::vector<u8> *out_;
};

/** Bounds-checked little-endian reader; overruns throw. */
class ByteReader
{
  public:
    ByteReader(const u8 *data, size_t size) : data_(data), size_(size) {}

    explicit ByteReader(const std::vector<u8> &v)
        : ByteReader(v.data(), v.size())
    {
    }

    size_t remaining() const { return size_ - pos_; }

    u8
    u8v()
    {
        need(1);
        return data_[pos_++];
    }

    u16
    u16v()
    {
        need(2);
        const u16 v = static_cast<u16>(data_[pos_]) |
                      static_cast<u16>(data_[pos_ + 1]) << 8;
        pos_ += 2;
        return v;
    }

    u32
    u32v()
    {
        const u32 lo = u16v();
        const u32 hi = u16v();
        return lo | hi << 16;
    }

    u64
    u64v()
    {
        const u64 lo = u32v();
        const u64 hi = u32v();
        return lo | hi << 32;
    }

    float
    f32v()
    {
        const u32 bits = u32v();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    double
    f64v()
    {
        const u64 bits = u64v();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str(size_t n)
    {
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** All payload bytes must have been consumed. */
    void
    done(const char *what) const
    {
        if (pos_ != size_) {
            throw ProtocolError(
                std::string(what) + ": " +
                std::to_string(size_ - pos_) +
                " trailing payload byte(s)");
        }
    }

  private:
    void
    need(size_t n) const
    {
        if (size_ - pos_ < n) {
            throw ProtocolError("payload truncated: need " +
                                std::to_string(n) + " byte(s), have " +
                                std::to_string(size_ - pos_));
        }
    }

    const u8 *data_;
    size_t size_;
    size_t pos_ = 0;
};

// --------------------------------------------------------------------
// Header encode/decode

/** FNV-1a over the first 24 header bytes (the checksummed prefix). */
u32 header_checksum(const u8 *header24);

/** Append a full header (checksum included) to `out`. */
void encode_header(std::vector<u8> *out, const MsgHeader &header);

/**
 * Decode the 32 header bytes at `buf`. Throws ProtocolError on bad
 * magic, unsupported version, unknown type, corrupt checksum, or a
 * payload length past kMaxPayload.
 */
MsgHeader decode_header(const u8 *buf);

// --------------------------------------------------------------------
// Typed payloads

/** HELLO: open a named session at a priority class. */
struct HelloMsg
{
    u8 priority = 0; ///< 0 (shed first) .. 3 (shed last).
    std::string name;
};

/** HELLO_ACK: session admitted with this in-flight window. */
struct HelloAckMsg
{
    u32 window = 0;
};

/** NACK: typed rejection with a human-readable detail. */
struct NackMsg
{
    NackReason reason = NackReason::kProtocol;
    std::string detail;
};

/** OUTCOME: one completed frame plus the refreshed credit. */
struct OutcomeMsg
{
    bool is_key = false;
    bool failed = false;
    u32 credit = 0; ///< Frames the sender may now have in flight.
    i64 top1 = -1;
    u64 output_digest = 0;
    /** RFBME mean error; 0 when RFBME did not run: the first frame
     * and schedule-forced keys. */
    double match_error = 0.0;
};

/** SHED: the frame was dropped before the engine. */
struct ShedMsg
{
    ShedReason reason = ShedReason::kOverload;
    u32 credit = 0;
};

/** Bound on encoded frame edge lengths (u16 dims on the wire). */
constexpr i64 kMaxFrameEdge = 65535;

std::vector<u8> encode_hello(u32 session, const HelloMsg &msg);
std::vector<u8> encode_hello_ack(u32 session, const HelloAckMsg &msg);
std::vector<u8> encode_nack(u32 session, const NackMsg &msg);
/** FRAME: c,h,w dims + raw little-endian f32 planes. */
std::vector<u8> encode_frame(u32 session, u64 seq, const Tensor &frame);
std::vector<u8> encode_outcome(u32 session, u64 seq,
                               const OutcomeMsg &msg);
std::vector<u8> encode_shed(u32 session, u64 seq, const ShedMsg &msg);
std::vector<u8> encode_bye(u32 session);

HelloMsg parse_hello(const std::vector<u8> &payload);
HelloAckMsg parse_hello_ack(const std::vector<u8> &payload);
NackMsg parse_nack(const std::vector<u8> &payload);
Tensor parse_frame(const std::vector<u8> &payload);
OutcomeMsg parse_outcome(const std::vector<u8> &payload);
ShedMsg parse_shed(const std::vector<u8> &payload);

// --------------------------------------------------------------------
// Incremental decoder

/**
 * Incremental stream decoder: feed() raw bytes as they arrive, then
 * drain complete messages with next(). Throws ProtocolError as soon
 * as the buffered prefix is provably invalid (corrupt header), so a
 * hostile peer is dropped before its declared payload arrives. Never
 * buffers more than kHeaderSize + kMaxPayload bytes.
 */
class FrameDecoder
{
  public:
    /** Append raw bytes from the stream. */
    void feed(const u8 *data, size_t size);

    /**
     * Extract the next complete message into `*out`. Returns false
     * when the buffer holds only a partial message.
     */
    bool next(Message *out);

    /** Bytes currently buffered (tests; bounded by construction). */
    size_t buffered() const { return buf_.size() - consumed_; }

  private:
    std::vector<u8> buf_;
    size_t consumed_ = 0;
};

} // namespace eva2::net

#endif // EVA2_NET_WIRE_H
