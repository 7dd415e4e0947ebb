#include "net/transport.hpp"

#include "core/state_io.hpp"
#include "support/binio.hpp"

namespace pcf::net {

namespace {

/// FNV-1a over raw bytes (the checkpoint layer's word-wise variant does not
/// fit a byte stream whose length is not a multiple of 8).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] BinaryWriter begin_frame(FrameKind kind) {
  BinaryWriter w;
  w.raw(kFrameMagic.data(), kFrameMagic.size());
  w.u32(kTransportVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  return w;
}

[[nodiscard]] std::string seal_frame(BinaryWriter&& w) {
  const std::uint64_t checksum = fnv1a(w.buffer());
  w.u64(checksum);
  return std::move(w).take();
}

// Frame bodies, one field list each for encode and decode (F is const when
// encoding).
template <class IO, class F>
void data_fields(IO& io, F& frame) {
  io.u32(frame.from);
  io.u32(frame.to);
  io.u64(frame.seq);
  core::transfer_packet(io, frame.packet);
}

template <class IO, class F>
void heartbeat_fields(IO& io, F& frame) {
  io.u32(frame.shard);
  io.u32(frame.epoch);
  io.u64(frame.seq);
  io.boolean(frame.done);
}

}  // namespace

std::string encode_frame(const DataFrame& frame) {
  BinaryWriter w = begin_frame(FrameKind::kData);
  data_fields(w, frame);
  return seal_frame(std::move(w));
}

std::string encode_frame(const HeartbeatFrame& frame) {
  BinaryWriter w = begin_frame(FrameKind::kHeartbeat);
  heartbeat_fields(w, frame);
  return seal_frame(std::move(w));
}

Frame decode_frame(std::string_view bytes) {
  // Checksum first: it covers the header too, so a bit flip anywhere —
  // including inside the magic or version — is reported as corruption, and
  // only an intact frame's version field is trusted for the skew check.
  if (bytes.size() < kFrameMagic.size() + 4 + 1 + 8) {
    throw TransportError("transport: frame too short");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  try {
    BinaryReader trailer(bytes.substr(bytes.size() - 8));
    if (trailer.u64() != fnv1a(body)) {
      throw TransportError("transport: checksum mismatch");
    }

    BinaryReader r(body);
    if (r.raw(kFrameMagic.size()) != kFrameMagic) {
      throw TransportError("transport: bad frame magic");
    }
    const std::uint32_t version = r.u32();
    if (version != kTransportVersion) {
      throw TransportError("transport: version skew (frame v" + std::to_string(version) +
                           ", this build speaks v" + std::to_string(kTransportVersion) + ")");
    }

    Frame frame;
    const std::uint8_t kind = r.u8();
    switch (kind) {
      case static_cast<std::uint8_t>(FrameKind::kData):
        frame.kind = FrameKind::kData;
        data_fields(r, frame.data);
        break;
      case static_cast<std::uint8_t>(FrameKind::kHeartbeat):
        frame.kind = FrameKind::kHeartbeat;
        heartbeat_fields(r, frame.heartbeat);
        break;
      default:
        throw TransportError("transport: unknown frame kind");
    }
    r.expect_end();
    return frame;
  } catch (const BinioError& e) {
    // Truncation or malformed nested fields (e.g. packet mass dimension).
    throw TransportError(std::string("transport: ") + e.what());
  }
}

}  // namespace pcf::net
