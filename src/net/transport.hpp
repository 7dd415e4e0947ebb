// Datagram framing for the socket runtime — core::Packet over UDP.
//
// Every datagram is one self-contained frame: magic + version header, a
// frame kind, the kind's body, and a trailing FNV-1a checksum over all
// preceding bytes. Framing is versioned exactly like the checkpoint codecs:
// a frame from a different build generation is refused (version skew), a
// truncated or bit-flipped datagram is refused (checksum / bounds checks),
// and refusal is always an exception the receive loop converts into a
// counted drop (PerfCounters::frames_rejected) — never a crash. UDP already
// checksums payloads, but the runtime cannot tell a kernel-validated
// datagram from a stray packet on a reused port; the application-level
// frame check is what makes "decoded" trustworthy.
//
// Two frame kinds exist:
//  * data       one reducer Packet on a directed link, carrying the link's
//               monotone sequence number. Receivers use the sequence to
//               MEASURE loss (gaps), duplication (repeats) and reordering
//               (stale numbers) — the observed-fault counters the trust
//               table is reconciled against. Enforcing monotone delivery
//               also preserves the reducers' per-link FIFO contract.
//  * heartbeat  shard-to-shard failure-detector beacon with the sender's
//               restart epoch, so a peer that died and was restarted is
//               distinguishable from one that was merely slow, and whether
//               the sender has met its stopping criterion (so every shard
//               keeps gossiping until the slowest one is done).
//
// Encoding uses the little-endian bounds-checked binio primitives, so frames
// are byte-identical across platforms; decode throws TransportError on any
// malformed input.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/reducer.hpp"
#include "net/topology.hpp"

namespace pcf::net {

/// Malformed, version-skewed or corrupted frame. The receive path treats
/// this as a counted drop, not an error.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// 4-byte frame magic.
inline constexpr std::string_view kFrameMagic = "PCFD";
/// Bump on any change to the frame layout below.
/// v2: heartbeats carry the sender's `done` flag.
inline constexpr std::uint32_t kTransportVersion = 2;

enum class FrameKind : std::uint8_t {
  kData = 1,
  kHeartbeat = 2,
};

/// One reducer packet on the directed link from → to.
struct DataFrame {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t seq = 0;  ///< per directed link, monotone from 1
  core::Packet packet;
};

/// Failure-detector beacon between shard processes.
struct HeartbeatFrame {
  std::uint32_t shard = 0;  ///< sender shard index
  std::uint32_t epoch = 0;  ///< sender restart generation (0 = first life)
  std::uint64_t seq = 0;    ///< beacon counter within the epoch
  bool done = false;        ///< sender has met its stopping criterion
};

/// Decoded frame: `kind` selects which body is meaningful.
struct Frame {
  FrameKind kind = FrameKind::kData;
  DataFrame data;
  HeartbeatFrame heartbeat;
};

[[nodiscard]] std::string encode_frame(const DataFrame& frame);
[[nodiscard]] std::string encode_frame(const HeartbeatFrame& frame);

/// Parses and validates one datagram. Throws TransportError on bad magic,
/// version skew, unknown kind, truncation, trailing bytes, or checksum
/// mismatch — each with a distinct message (tests pin them).
[[nodiscard]] Frame decode_frame(std::string_view bytes);

}  // namespace pcf::net
