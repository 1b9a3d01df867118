#include "mpi/mpi.hpp"
#include "obs/obs.hpp"

namespace peachy::mpi {

void Comm::barrier() {
  const int tag = begin_collective({"barrier", -1, 1, -1});
  const int p = size();
  const std::byte token{0};
  for (int dist = 1; dist < p; dist <<= 1) {
    const int dest = (rank_ + dist) % p;
    const int src = (rank_ - dist + p) % p;
    // Round-distinct sub-tag: token from round k must not satisfy round k+1.
    machine_->post(world_rank(), to_world(dest), tag, std::span<const std::byte>{&token, 1},
                   comm_id_);
    (void)recv_bytes(src, tag);
    // NOTE: dissemination rounds reuse the same tag but distinct (src,dist)
    // pairs, and recv matches on source, so rounds cannot cross-match
    // unless p is a power of two *and* two rounds share a source — which
    // cannot happen since distances are distinct powers of two < p.
  }
}

PayloadBuffer Comm::broadcast_(std::span<const std::byte> bytes, int root) {
  PEACHY_CHECK(root >= 0 && root < size(), "broadcast: bad root");
  const int tag = begin_collective(
      {"broadcast", root, 1,
       rank_ == root ? static_cast<std::int64_t>(bytes.size()) : std::int64_t{-1}});
  const obs::SpanScope span{"mpi", "broadcast"};
  PayloadBuffer buf;
  if (rank_ == root) {
    buf = BufferPool::instance().acquire(bytes.size());
    if (!bytes.empty()) std::memcpy(buf.mutable_data(), bytes.data(), bytes.size());
  }
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  // Receive phase: find the lowest set bit position where we get our copy.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int vsrc = vrank - mask;
      const int src = (vsrc + root) % p;
      buf = recv_buffer(src, tag);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to the subtree below us.  Forwarding is a
  // refcount bump on the pooled payload — each edge is counted as a full
  // message, but its bytes are never copied again.
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & mask) == 0 && vrank + mask < p) {
      const int dest = (vrank + mask + root) % p;
      machine_->post_move(world_rank(), to_world(dest), tag, buf.share(), comm_id_);
    }
    mask >>= 1;
  }
  return buf;
}

void Comm::revoke() { machine_->revoke(comm_id_); }

Comm Comm::shrink() {
  const obs::SpanScope span{"faults", "shrink"};
  const std::uint64_t t0 = obs::now_ns();
  const std::vector<int> members = group();
  // ULFM's iterate-until-stable discipline, with the machine's shared
  // agreement table standing in for a cross-process agreement protocol:
  // propose the survivors we observe; the first proposal stored under the
  // key wins and every survivor adopts it.  If an adopted group member
  // fails before everyone adopted, all survivors iterate to the next key
  // (deterministic: same keys, same table, same winner on every rank).
  //
  // Across processes (wire transports) each process has its own table
  // with exactly one caller per key, so "agreement" degenerates to: all
  // processes observe the same failed set (kFailed frames precede the
  // revoke that triggers shrink) and compute identical groups + comm ids
  // independently.  DESIGN.md §15 records the convergence argument.
  detail::Machine::Agreement agreed;
  for (;;) {
    const std::vector<int> survivors = machine_->survivors_of(members);
    PEACHY_CHECK(!survivors.empty(), "shrink: no surviving ranks");
    const std::uint64_t key = (static_cast<std::uint64_t>(comm_id_) << 32) | shrink_seq_;
    ++shrink_seq_;
    agreed = machine_->agree_group(key, survivors);
    if (machine_->first_failed_in(&agreed.group) < 0) break;
  }
  // Stale traffic from the dead rank(s) must not satisfy post-recovery
  // receives on the old communicator; each survivor scrubs its own box.
  machine_->purge_failed_senders(world_rank());
  const int my_world = world_rank();
  int new_rank = -1;
  for (std::size_t i = 0; i < agreed.group.size(); ++i) {
    if (agreed.group[i] == my_world) new_rank = static_cast<int>(i);
  }
  PEACHY_CHECK(new_rank >= 0, "shrink: calling rank is not a survivor");
  if (obs::enabled()) {
    static obs::Histogram& recovery = obs::histogram("faults.recovery_ns");
    recovery.note(obs::now_ns() - t0);
  }
  return Comm{*machine_, new_rank, agreed.group, agreed.comm_id, timeout_ns_};
}

}  // namespace peachy::mpi
