#pragma once
/// \file wire.hpp
/// \brief Frame format shared by the wire transports (shm ring, socket).
///
/// One fixed-size little-endian header followed by `bytes` of payload.
/// Both wire backends speak exactly this framing — the shm ring stores
/// frames in slots/spillover, the socket backend writes them onto an
/// ordered stream — so the failure-mapping and sequencing logic lives
/// in one place (DESIGN.md §15).
///
/// The `seq` field scopes a frame to one Machine generation.  SPMD
/// processes create their machines in lockstep (same program, same
/// order), so the n-th machine of every process shares sequence number
/// n; a frame that arrives before the local machine of its generation
/// exists is buffered by the endpoint, and a frame for an already-
/// destroyed generation (a message leaked by the program) is dropped —
/// stale traffic can never satisfy a later run's receive.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "faults/plan.hpp"
#include "kernels/crc32c.hpp"
#include "mpi/transport.hpp"

namespace peachy::mpi::detail {

/// "PCH2": bumped from "PCHY" when the CRC field landed — a mixed-version
/// world fails loudly at the magic check instead of misparsing frames.
inline constexpr std::uint32_t kWireMagic = 0x50434832;

/// Frame discriminator.  kData carries a Message; the rest are control
/// frames (hello/bye are endpoint-level, failed/revoke/abort map onto
/// CtrlKind for the sink).
enum class WireKind : std::uint8_t {
  kData = 0,
  kHello = 1,   ///< first frame on a socket connection; source = proc id
  kBye = 2,     ///< clean process departure; EOF after this is not a death
  kFailed = 3,  ///< source = world rank that died
  kRevoke = 4,  ///< comm = revoked communicator id
  kAbort = 5,   ///< payload = abort reason string
  kPing = 6,    ///< heartbeat; endpoint-level, never routed to a machine
};

// The faults layer scopes wire events by frame kind without being able to
// include this header (mpi depends on faults, not vice versa); it mirrors
// these values as plain ints.  Keep the two sides pinned together.
static_assert(faults::kWireFrameData == static_cast<int>(WireKind::kData) &&
                  faults::kWireFrameHello == static_cast<int>(WireKind::kHello) &&
                  faults::kWireFrameBye == static_cast<int>(WireKind::kBye) &&
                  faults::kWireFrameFailed == static_cast<int>(WireKind::kFailed) &&
                  faults::kWireFrameRevoke == static_cast<int>(WireKind::kRevoke) &&
                  faults::kWireFrameAbort == static_cast<int>(WireKind::kAbort) &&
                  faults::kWireFramePing == static_cast<int>(WireKind::kPing),
              "faults::kWireFrame* must mirror WireKind numerically");

/// FrameHeader.flags bit: the CRC also covers the payload bytes, not just
/// the header.  The flag travels with the frame, so the receiver verifies
/// exactly what the sender sealed even when the two processes disagree
/// about the environment.
inline constexpr std::uint8_t kFrameFlagCrcPayload = 1;

struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;    ///< kFrameFlag* bits; covered by the CRC
  std::uint8_t pad[2] = {0, 0};
  std::uint32_t seq = 0;     ///< machine generation (kData/kRevoke/kAbort)
  std::int32_t source = 0;   ///< sender world rank (kData) / proc or rank id (ctrl)
  std::int32_t dest = 0;     ///< destination world rank (kData)
  std::int32_t tag = 0;
  std::uint32_t comm = 0;
  std::uint64_t bytes = 0;   ///< payload length following this header
  std::uint32_t crc = 0;     ///< CRC32C over header (crc zeroed) [+ payload]
  std::uint32_t pad2 = 0;
};
static_assert(sizeof(FrameHeader) == 48, "wire framing is layout-sensitive");

/// Should outbound frames seal the CRC over the payload too?
///
/// The header CRC is always on: 44 bytes through the hardware CRC32C
/// costs ~10ns a frame and catches desync, header corruption, and a torn
/// length field — the failures that wedge a stream.  Payload coverage
/// costs two extra passes over every byte (seal + verify, ~8 GB/s each
/// against a wire that moves ~5 GB/s), so it switches on only when it can
/// catch something: a wire fault plan is armed (chaos runs *flip payload
/// bytes* and the receiver must catch every one), or the deployment asks
/// for it with PEACHY_WIRE_CRC=full.  This is the "<2% when idle"
/// contract of EXPERIMENTS.md T-FLT-2 — full coverage is measured there
/// at up to 2.1x on 64 KiB shm transfers.
[[nodiscard]] inline bool wire_crc_covers_payload() noexcept {
  static const bool forced = [] {
    const char* env = std::getenv("PEACHY_WIRE_CRC");
    return env != nullptr && std::strcmp(env, "full") == 0;
  }();
  return forced || faults::wire::injector() != nullptr;
}

/// CRC32C of a frame: the header with its crc field zeroed, chained with
/// the payload when the header's flag says it was sealed that way.
[[nodiscard]] inline std::uint32_t frame_crc(const FrameHeader& h,
                                             const std::byte* payload) noexcept {
  FrameHeader c = h;
  c.crc = 0;
  std::uint32_t x = kernels::crc32c(0, &c, sizeof c);
  if ((h.flags & kFrameFlagCrcPayload) != 0 && h.bytes != 0 && payload != nullptr) {
    x = kernels::crc32c(x, payload, static_cast<std::size_t>(h.bytes));
  }
  return x;
}

/// Stamp the CRC before the frame goes onto the wire (every send path).
/// Resolves the payload-coverage policy and records it in the header.
inline void seal_frame(FrameHeader& h, const std::byte* payload) noexcept {
  if (wire_crc_covers_payload()) h.flags |= kFrameFlagCrcPayload;
  h.crc = frame_crc(h, payload);
}

/// The one wire-fault path of both wire endpoints: seal `h` and hand the
/// frame to `push(header, payload, copies)`.  With a wire plan armed, the
/// injector — scoped by sender: a data frame's rank, else this process —
/// may delay, drop, duplicate, or damage the frame.  The CRC is sealed
/// over the *true* content before any damage, so the receiver's integrity
/// check must catch it.  Damage lands on a pooled private copy, because
/// duplicates and machine-level fan-out share `payload`: corrupt flips its
/// middle byte, and `truncate(copy)` expresses truncation in the
/// endpoint's medium.  A frame with no payload has nothing to damage but
/// its CRC, which is flipped instead.
template <typename Truncate, typename Push>
inline void apply_wire_faults(int my_proc, int proc, FrameHeader h, const PayloadBuffer& payload,
                              Truncate&& truncate, Push&& push) {
  faults::WireInjector* wi = faults::wire::injector();
  if (wi == nullptr) [[likely]] {
    seal_frame(h, payload.data());
    push(h, payload, 1);
    return;
  }
  const int src = static_cast<WireKind>(h.kind) == WireKind::kData ? h.source : my_proc;
  const faults::WireAction a = wi->on_frame(src, proc, h.kind);
  if (a.delay_ns != 0) std::this_thread::sleep_for(std::chrono::nanoseconds{a.delay_ns});
  if (a.drop) return;
  seal_frame(h, payload.data());
  const int copies = a.duplicate ? 2 : 1;
  if (!a.corrupt && !a.truncate) {
    push(h, payload, copies);
    return;
  }
  if (h.bytes == 0) {
    h.crc ^= 1;
    push(h, payload, copies);
    return;
  }
  const auto n = static_cast<std::size_t>(h.bytes);
  PayloadBuffer copy = BufferPool::instance().acquire(n);
  std::memcpy(copy.mutable_data(), payload.data(), n);
  if (a.corrupt) copy.mutable_data()[n / 2] ^= std::byte{0x01};
  if (a.truncate) truncate(copy);
  push(h, copy, copies);
}

/// Receive-side integrity check; verifies what the sender sealed.
[[nodiscard]] inline bool frame_crc_ok(const FrameHeader& h,
                                       const std::byte* payload) noexcept {
  return h.crc == frame_crc(h, payload);
}

[[nodiscard]] inline FrameHeader make_data_header(std::uint32_t seq, const Message& m,
                                                  int dest) noexcept {
  FrameHeader h;
  h.kind = static_cast<std::uint8_t>(WireKind::kData);
  h.seq = seq;
  h.source = m.source;
  h.dest = dest;
  h.tag = m.tag;
  h.comm = m.comm;
  h.bytes = m.payload.size();
  return h;
}

[[nodiscard]] inline FrameHeader make_ctrl_header(WireKind kind, std::uint32_t seq,
                                                  std::int32_t source, std::uint32_t comm,
                                                  std::uint64_t bytes = 0) noexcept {
  FrameHeader h;
  h.kind = static_cast<std::uint8_t>(kind);
  h.seq = seq;
  h.source = source;
  h.comm = comm;
  h.bytes = bytes;
  return h;
}

/// Reconstruct a Message from a received frame (payload copied into a
/// pooled buffer — the wire is where zero-copy forwarding ends).
[[nodiscard]] inline Message frame_to_message(const FrameHeader& h, const std::byte* payload) {
  Message m;
  m.source = h.source;
  m.tag = h.tag;
  m.comm = h.comm;
  m.payload = BufferPool::instance().acquire(static_cast<std::size_t>(h.bytes));
  if (h.bytes != 0) std::memcpy(m.payload.mutable_data(), payload, h.bytes);
  return m;
}

}  // namespace peachy::mpi::detail
