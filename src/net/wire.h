/// \file wire.h
/// \brief Length-prefixed little-endian binary event protocol for the
/// socket ingestion front-end (docs/net_protocol.md is the normative
/// spec; this header is the implementation of it).
///
/// Every frame is a fixed 24-byte header followed by `payload_len` bytes
/// of type-specific payload. The header carries a magic, a version byte,
/// a frame type, a per-connection sequence number, and a CRC-32 over the
/// first 20 header bytes — enough to reject garbage, truncation, and
/// version skew before trusting the length prefix. Payloads are flat
/// little-endian structs; `kEventBatch` carries a count-prefixed array of
/// 16-byte `EventRecord`s.
///
/// Encode/decode are the per-event hot path of the server and client, so
/// they are `// HOTPATH` functions under the conclint contract: no
/// allocation, no locks, no syscalls. Decoding is zero-copy into
/// caller-owned buffers — `DecodeEventBatch` writes records into an array
/// the caller sized from `max_frame_events`, and every reject status is a
/// preallocated constant (mirroring `IngestPipeline::TrySubmitBatch`'s
/// allocation-free reject discipline).
///
/// Wire integers are little-endian regardless of host order; the
/// byte-at-a-time load/store helpers compile to plain moves on
/// little-endian targets.

#ifndef COUNTLIB_NET_WIRE_H_
#define COUNTLIB_NET_WIRE_H_

#include <cstdint>

#include "analytics/key_weight.h"
#include "util/status.h"

namespace countlib {
namespace net {

/// "CNW1" in little-endian byte order: the first four bytes of every frame.
inline constexpr uint32_t kWireMagic = 0x31574E43u;

/// Protocol version carried in every header. Peers with a different
/// version byte must not be interpreted (see docs/net_protocol.md for the
/// versioning rules: additive evolution uses new frame types, breaking
/// changes bump this byte).
inline constexpr uint8_t kWireVersion = 1;

/// Fixed header size in bytes; frames are `kFrameHeaderSize + payload_len`.
inline constexpr uint64_t kFrameHeaderSize = 24;

/// Bytes of the header covered by the CRC (everything before the CRC
/// field itself).
inline constexpr uint64_t kFrameCrcCoverage = 20;

/// One event on the wire: 16 little-endian bytes (key, weight). It is the
/// write path's update record, so a decoded frame is handed to the
/// pipeline's `SubmitBatch` as is.
using EventRecord = analytics::KeyWeight;
inline constexpr uint64_t kEventRecordSize = 16;

/// Most events any `kEventBatch` frame may carry (2^20, a 16 MiB payload).
/// `EventServer` advertises half its ring, capped here, as the hello ack's
/// `max_frame_events`; `EventClient` refuses a cap above it.
inline constexpr uint64_t kMaxFrameEvents = uint64_t{1} << 20;

/// Frame types. Unknown types are a protocol error: v1 peers reject them
/// rather than skipping, so an accidental version mix fails loudly.
enum class FrameType : uint8_t {
  kHello = 1,      ///< client → server: version + requested credit window
  kHelloAck = 2,   ///< server → client: initial credit grant + limits
  kEventBatch = 3, ///< client → server: count-prefixed EventRecord array
  kAck = 4,        ///< server → client: cumulative delivery/credit totals
  kGoodbye = 5,    ///< client → server: clean close, final ack requested
};

/// Decoded header. `payload_len` has already been bounds-checked against
/// the decoder's `max_payload` by the time a caller sees one.
struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kHello;
  uint16_t flags = 0;  ///< must be zero in v1; nonzero is rejected
  uint32_t payload_len = 0;
  uint64_t seq = 0;  ///< per-connection, monotone from 1
};

/// kHello payload (8 bytes): the wire version the client speaks and the
/// credit window it would like (0 = server default).
struct HelloBody {
  uint16_t wire_version = kWireVersion;
  uint16_t reserved = 0;  ///< must be zero
  uint32_t requested_window = 0;
};
inline constexpr uint64_t kHelloBodySize = 8;

/// kHelloAck payload (16 bytes): the opening cumulative credit grant, the
/// per-frame event cap the server will accept, and the leased producer
/// slot (diagnostic — clients do not interpret it).
struct HelloAckBody {
  uint64_t credit_grant_total = 0;
  uint32_t max_frame_events = 0;
  uint32_t producer_slot = 0;
};
inline constexpr uint64_t kHelloAckBodySize = 16;

/// kAck payload (32 bytes). Everything is cumulative over the connection
/// so a lost or duplicated ack never corrupts the books: the client
/// derives deltas by diffing against the previous ack.
struct AckBody {
  uint64_t acked_seq = 0;           ///< highest frame seq processed
  uint64_t delivered_total = 0;     ///< events accepted by the pipeline so far
  uint64_t shed_total = 0;          ///< always 0 from EventServer (v1 field)
  uint64_t credit_grant_total = 0;  ///< cumulative credits granted
};
inline constexpr uint64_t kAckBodySize = 32;

/// kEventBatch payload prefix (8 bytes) before `count` EventRecords.
inline constexpr uint64_t kEventBatchPrefixSize = 8;

/// Payload length of a batch of `count` records.
inline constexpr uint64_t EventBatchPayloadSize(uint64_t count) {
  return kEventBatchPrefixSize + count * kEventRecordSize;
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `len` bytes.
/// Bitwise, table-free: header coverage is 20 bytes, so a lookup table
/// would buy nothing and the static state it needs is not worth carrying.
uint32_t WireCrc32(const uint8_t* data, uint64_t len);

/// Serializes `header` (computing its CRC) into `out`, which must hold
/// `kFrameHeaderSize` bytes.
void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);  // HOTPATH

/// Parses a header from `buf` (at least `kFrameHeaderSize` bytes),
/// validating magic, version, flags, CRC, and `payload_len <=
/// max_payload`. All reject statuses are preallocated constants:
/// `kInvalidArgument` for corruption (bad magic/CRC/flags/oversize) and
/// `kUnimplemented` for a version or frame-type this build does not
/// speak.
Status DecodeFrameHeader(const uint8_t* buf, uint64_t len,
                         uint64_t max_payload, FrameHeader* out);  // HOTPATH

/// Serializes `count` records (batch prefix + array) into `out`, which
/// must hold `EventBatchPayloadSize(count)` bytes.
void EncodeEventBatch(const EventRecord* records, uint32_t count,
                      uint8_t* out);  // HOTPATH

/// Zero-copy batch decode: validates the count prefix against both
/// `payload_len` and the caller's `max_records`, then writes the records
/// into caller-owned `out` (sized `max_records`). Preallocated
/// `kInvalidArgument` on any mismatch.
Status DecodeEventBatch(const uint8_t* payload, uint64_t payload_len,
                        EventRecord* out, uint32_t max_records,
                        uint32_t* count);  // HOTPATH

/// Fixed-size body encode/decode. Decodes validate the exact payload
/// length and (for Hello) the reserved field; rejects are preallocated
/// `kInvalidArgument`.
void EncodeHelloBody(const HelloBody& body, uint8_t* out);
Status DecodeHelloBody(const uint8_t* payload, uint64_t payload_len,
                       HelloBody* out);
void EncodeHelloAckBody(const HelloAckBody& body, uint8_t* out);
Status DecodeHelloAckBody(const uint8_t* payload, uint64_t payload_len,
                          HelloAckBody* out);
void EncodeAckBody(const AckBody& body, uint8_t* out);  // HOTPATH
Status DecodeAckBody(const uint8_t* payload, uint64_t payload_len,
                     AckBody* out);  // HOTPATH

}  // namespace net
}  // namespace countlib

#endif  // COUNTLIB_NET_WIRE_H_
