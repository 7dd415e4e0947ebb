// Transport framing wall — mirrors the checkpoint codec tests: round-trip
// property over representative packets of every algorithm, plus a rejection
// wall (truncation, corruption, version skew, unknown kind, trailing bytes).
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/mass.hpp"
#include "support/rng.hpp"

namespace pcf::net {
namespace {

using core::Mass;
using core::Packet;
using core::Values;

Mass random_mass(Rng& rng, std::size_t dim) {
  Values v;
  for (std::size_t k = 0; k < dim; ++k) v.push_back(rng.uniform(-1e6, 1e6));
  return Mass(std::move(v), rng.uniform(-4.0, 4.0));
}

/// Representative packets across every algorithm's field usage: push-sum/PF
/// (a only), PCF (a, b, active_slot, role_count), FU (a flow + b estimate),
/// corr (tree segments in a), plus degenerate shapes (zero mass, dim 0,
/// max dim, negative weights, denormals).
std::vector<Packet> representative_packets() {
  std::vector<Packet> packets;
  Rng rng(7);

  for (const std::size_t dim : {std::size_t{1}, std::size_t{3}, core::kMaxDim}) {
    Packet push_style;  // push-sum / push-flow: one mass pair
    push_style.a = random_mass(rng, dim);
    packets.push_back(push_style);

    Packet pcf;  // both slots + handshake bookkeeping
    pcf.a = random_mass(rng, dim);
    pcf.b = random_mass(rng, dim);
    pcf.active_slot = 2;
    pcf.role_count = 123456789ULL;
    packets.push_back(pcf);

    Packet fu;  // flow + sender estimate
    fu.a = random_mass(rng, dim);
    fu.b = random_mass(rng, dim);
    packets.push_back(fu);
  }

  Packet zero;  // dim-0 masses (pre-init shapes must still frame)
  packets.push_back(zero);

  Packet tiny;  // denormal + negative-zero payloads must survive bit-exactly
  tiny.a = Mass::scalar(5e-324, -0.0);
  tiny.b = Mass::scalar(-5e-324, 1.0);
  packets.push_back(tiny);

  return packets;
}

bool same_mass_bits(const Mass& x, const Mass& y) {
  if (x.dim() != y.dim()) return false;
  if (std::bit_cast<std::uint64_t>(x.w) != std::bit_cast<std::uint64_t>(y.w)) return false;
  for (std::size_t k = 0; k < x.dim(); ++k) {
    if (std::bit_cast<std::uint64_t>(x.s[k]) != std::bit_cast<std::uint64_t>(y.s[k])) {
      return false;
    }
  }
  return true;
}

TEST(Transport, DataFrameRoundTripsBitExactlyOverAllPacketShapes) {
  std::uint64_t seq = 0;
  for (const Packet& packet : representative_packets()) {
    DataFrame in;
    in.from = 17;
    in.to = 4093;
    in.seq = ++seq * 7919;
    in.packet = packet;

    const std::string bytes = encode_frame(in);
    const Frame out = decode_frame(bytes);
    ASSERT_EQ(out.kind, FrameKind::kData);
    EXPECT_EQ(out.data.from, in.from);
    EXPECT_EQ(out.data.to, in.to);
    EXPECT_EQ(out.data.seq, in.seq);
    EXPECT_TRUE(same_mass_bits(out.data.packet.a, packet.a));
    EXPECT_TRUE(same_mass_bits(out.data.packet.b, packet.b));
    EXPECT_EQ(out.data.packet.active_slot, packet.active_slot);
    EXPECT_EQ(out.data.packet.role_count, packet.role_count);
  }
}

TEST(Transport, HeartbeatFrameRoundTrips) {
  HeartbeatFrame in;
  in.shard = 11;
  in.epoch = 3;
  in.seq = 0xdeadbeefULL;
  in.done = true;
  const Frame out = decode_frame(encode_frame(in));
  ASSERT_EQ(out.kind, FrameKind::kHeartbeat);
  EXPECT_EQ(out.heartbeat.shard, 11u);
  EXPECT_EQ(out.heartbeat.epoch, 3u);
  EXPECT_EQ(out.heartbeat.seq, 0xdeadbeefULL);
  EXPECT_TRUE(out.heartbeat.done);
}

TEST(Transport, EncodingIsDeterministic) {
  DataFrame frame;
  frame.from = 1;
  frame.to = 2;
  frame.seq = 3;
  frame.packet.a = Mass::scalar(1.5, 1.0);
  EXPECT_EQ(encode_frame(frame), encode_frame(frame));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Transport, FrameBytesArePinned) {
  // FNV-1a over one frame of each kind with fixed fields. A changed hash
  // means the wire layout drifted: bump kTransportVersion and re-pin.
  DataFrame data;
  data.from = 5;
  data.to = 6;
  data.seq = 42;
  data.packet.a = Mass(Values{1.5, -2.25}, 0.5);
  data.packet.b = Mass(Values{3.0, 0.125}, -1.0);
  data.packet.active_slot = 1;
  data.packet.role_count = 9;
  EXPECT_EQ(fnv1a(encode_frame(data)), 0x7fabd3aa1d1c8bc2ULL) << "data frame layout drifted";
  HeartbeatFrame heartbeat;
  heartbeat.shard = 2;
  heartbeat.epoch = 1;
  heartbeat.seq = 77;
  heartbeat.done = true;
  EXPECT_EQ(fnv1a(encode_frame(heartbeat)), 0xe21addc8c0bcc3f4ULL)
      << "heartbeat frame layout drifted";
}

TEST(Transport, TruncationAtEveryLengthIsRejected) {
  DataFrame frame;
  frame.from = 9;
  frame.to = 10;
  frame.seq = 42;
  frame.packet.a = Mass::scalar(2.0, 1.0);
  frame.packet.b = Mass::scalar(-2.0, -1.0);
  const std::string bytes = encode_frame(frame);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_frame(std::string_view(bytes).substr(0, len)), TransportError)
        << "length " << len;
  }
}

TEST(Transport, Everysingle_ByteCorruptionIsRejected) {
  HeartbeatFrame frame;
  frame.shard = 5;
  frame.epoch = 1;
  frame.seq = 99;
  const std::string bytes = encode_frame(frame);
  // Flipping any bit anywhere — header, body or trailer — must be caught by
  // the checksum (or, for trailer flips, by the mismatch it creates).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW((void)decode_frame(corrupt), TransportError) << "byte " << i;
  }
}

TEST(Transport, TrailingBytesAreRejected) {
  HeartbeatFrame frame;
  const std::string bytes = encode_frame(frame) + std::string("x");
  EXPECT_THROW((void)decode_frame(bytes), TransportError);
}

/// Re-seals a tampered frame with a valid checksum, isolating the semantic
/// checks (magic, version, kind) from the corruption check.
std::string reseal(std::string bytes, std::size_t index, char value) {
  bytes[index] = value;
  const std::string_view body = std::string_view(bytes).substr(0, bytes.size() - 8);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : body) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xffU);
  }
  return bytes;
}

TEST(Transport, VersionSkewIsRefusedWithDistinctMessage) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string skewed = reseal(bytes, kFrameMagic.size(), 99);  // version LSB
  try {
    (void)decode_frame(skewed);
    FAIL() << "version skew accepted";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string_view(e.what()).find("version skew"), std::string_view::npos);
  }
}

TEST(Transport, BadMagicIsRefused) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string alien = reseal(bytes, 0, 'X');
  try {
    (void)decode_frame(alien);
    FAIL() << "bad magic accepted";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string_view(e.what()).find("magic"), std::string_view::npos);
  }
}

TEST(Transport, UnknownFrameKindIsRefused) {
  const std::string bytes = encode_frame(HeartbeatFrame{});
  const std::string unknown = reseal(bytes, kFrameMagic.size() + 4, 77);  // kind byte
  EXPECT_THROW((void)decode_frame(unknown), TransportError);
}

TEST(Transport, OversizedMassDimensionInsidePacketIsRefused) {
  DataFrame frame;
  frame.packet.a = Mass::scalar(1.0, 1.0);
  std::string bytes = encode_frame(frame);
  // The packet body starts after magic+version+kind+from+to+seq; its first
  // byte is mass a's dimension. Blow it past kMaxDim and re-seal: the frame
  // is "intact" per checksum but semantically malformed.
  const std::size_t dim_index = kFrameMagic.size() + 4 + 1 + 4 + 4 + 8;
  const std::string malformed =
      reseal(bytes, dim_index, static_cast<char>(core::kMaxDim + 1));
  EXPECT_THROW((void)decode_frame(malformed), TransportError);
}

}  // namespace
}  // namespace pcf::net
