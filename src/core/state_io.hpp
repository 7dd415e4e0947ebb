// Binary serialization of the core value types (Mass, Packet) shared by the
// engine checkpoint layer (sim/checkpoint.cpp), the transport frames and the
// socket runtime's result files. One field list per type serves both
// directions (support/binio.hpp): M and P are const when writing.
//
// Doubles travel as IEEE-754 bit patterns so a restored state is bit-exact —
// the checkpoint contract is bitwise-identical continuation, not approximate.
#pragma once

#include "core/reducer.hpp"
#include "support/binio.hpp"

namespace pcf::core {

/// u8 dimension (at most kMaxDim), the components, then the weight.
template <class IO, class M>
void transfer_mass(IO& io, M& m) {
  io.u8_size(m.s, kMaxDim);
  for (auto& v : m.s) io.f64(v);
  io.f64(m.w);
}

template <class IO, class P>
void transfer_packet(IO& io, P& p) {
  transfer_mass(io, p.a);
  transfer_mass(io, p.b);
  io.u8(p.active_slot);
  io.u64(p.role_count);
}

}  // namespace pcf::core
