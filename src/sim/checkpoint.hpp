// Checkpoint/restore for the simulation engines (DESIGN.md §8).
//
// The checkpoint layer serializes the COMPLETE mutable state of an engine —
// reducer state for every node (its ArenaFleet rows, dim-prefixed, or raw in
// the kArena sync engine), RNG streams, fault-plan progress cursors,
// PCF handshake phase, the oracle's conserved targets, and (async, full
// mode) every pending event, in firing order — into a versioned binary
// blob. Restoring the blob into a freshly constructed engine with the
// identical topology, initial masses and configuration resumes the
// run so that every subsequent per-round state fingerprint is bitwise
// identical to the uninterrupted run. That guarantee is what the determinism
// contract (pcflow-lint D1–D4) buys, and what the property wall in
// tests/sim/test_checkpoint.cpp holds the implementation to.
//
// Immutable inputs (topology, initial masses, reducer config, scheduled fault
// events) are NOT serialized: the restorer reconstructs the engine from the
// same inputs, and the blob carries a compatibility hash over them so a
// checkpoint cannot be restored into a mismatched engine by accident.
//
// Two modes, following FTPregel's lightweight-checkpoint insight:
//  * kFull        — wire-inclusive. The async engine's pending events
//                   (including in-flight packet payloads) are saved in
//                   firing order; restore is bitwise-exact.
//  * kLightweight — state-only: pending kDelivery events are dropped and the
//                   queue is rebuilt from the surviving control events. The
//                   blob shrinks by the in-flight traffic; continuation is no
//                   longer bitwise-identical — the in-flight packets are
//                   simply *lost*, which the flow algorithms self-heal (their
//                   mirrors are absolute) while push-sum loses the in-flight
//                   mass. For the synchronous engine the wire is empty at
//                   every round boundary, so both modes produce the same body.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pcf::sim {

enum class CheckpointMode : std::uint8_t {
  kLightweight = 0,  ///< state-only; in-flight messages are dropped, not saved
  kFull = 1,         ///< wire-inclusive; bitwise-exact continuation
};

[[nodiscard]] constexpr std::string_view to_string(CheckpointMode m) noexcept {
  return m == CheckpointMode::kFull ? "full" : "light";
}

/// Bump on ANY change to the blob layout — old checkpoints are then rejected
/// instead of misread. tests/sim/test_checkpoint.cpp pins the format of the
/// current version with a golden hash so accidental drift fails in CI.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// 8-byte file magic ("PCFCKPT" + NUL).
inline constexpr std::string_view kCheckpointMagic{"PCFCKPT\0", 8};

/// A checkpoint that cannot be restored: truncated, corrupted, wrong version,
/// or saved from an engine incompatible with the restore target.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed checkpoint header — inspect a blob without an engine.
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint8_t engine_kind = 0;  ///< 1 = sync, 2 = async
  CheckpointMode mode = CheckpointMode::kFull;
  std::uint8_t algorithm = 0;    ///< core::Algorithm value
  std::uint8_t engine_mode = 0;  ///< sync only: row codec, 0 legacy, 1 arena
  std::uint64_t seed = 0;
  std::uint64_t nodes = 0;
  std::uint64_t dim = 0;
  std::uint64_t compat_hash = 0;  ///< over the immutable construction inputs
  double position = 0.0;          ///< round (sync) or simulation time (async)
};

/// Parses and validates the fixed-size header; throws CheckpointError on a
/// blob that is not a pcflow checkpoint of the current version.
[[nodiscard]] CheckpointInfo peek_checkpoint(std::string_view blob);

}  // namespace pcf::sim
