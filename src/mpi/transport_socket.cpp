#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/eventfd.h>
#endif

#include "faults/detect.hpp"
#include "faults/faults.hpp"
#include "faults/plan.hpp"
#include "faults/retry.hpp"
#include "mpi/frame_router.hpp"
#include "mpi/launch.hpp"
#include "mpi/transport.hpp"
#include "mpi/wire.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi::detail {

namespace {

/// Ceiling on frames gathered into one sendmsg: 2 iovecs per frame
/// (header + payload) keeps the batch far under IOV_MAX everywhere.
constexpr std::size_t kBatchFrames = 64;
/// Outbound queue caps per peer — the backpressure that used to come
/// from blocking inside send(2) now comes from waiting on the channel.
constexpr std::size_t kMaxQueuedFrames = 1024;
constexpr std::size_t kMaxQueuedBytes = std::size_t{4} << 20;
/// Inbound drain chunk.  Big enough that a bandwidth test's worth of
/// small frames arrives in a handful of read syscalls.
constexpr std::size_t kReadChunk = std::size_t{256} << 10;

void count(const char* name, std::int64_t delta) noexcept {
  if (obs::enabled()) {
    obs::counter(name).add(delta);
  }
}

/// One process-wide endpoint: a loopback listener, one *ordered*
/// outbound connection per peer process (frames carry source/dest
/// ranks, so a process pair needs only one stream each way), and a
/// single pump thread that accepts, reassembles, and routes inbound
/// frames.  Persists across Machines — the FrameRouter scopes frames
/// to machine generations (frame_router.hpp).
///
/// Send path: a *combining writer* per peer.  Senders enqueue
/// {header, payload-handle} pairs (no copy — the payload handle shares
/// the pooled slab) and the first sender to find the channel idle
/// becomes its drainer: it gathers up to kBatchFrames queued frames
/// into one sendmsg scatter list (header iovec + payload iovec each)
/// and writes them in a single syscall, looping until the queue is
/// empty.  Senders that arrive while a drainer is active just enqueue
/// and return — their frames coalesce into the drainer's next batch, so
/// a burst of small sends costs ~1 syscall, not N — and wait only when
/// the queue caps are hit (backpressure).
///
/// Failure mapping: EOF or ECONNRESET on a peer's connection *without*
/// a prior kBye frame means the process died; the pump reports it to
/// the router, which poisons the corresponding rank for the current and
/// all future machines.  A kBye (sent at endpoint teardown, flushed
/// through the queue before the fds close) makes the EOF a clean
/// departure.  Writes to a dead or departed peer are dropped silently —
/// the sender learns of the death through the failure path, exactly
/// like sends to a crashed in-process rank.
///
/// In an un-launched process the endpoint still runs the full frame
/// path through a self-connection: every send is serialized, pumped,
/// and reassembled, so single-process shm/socket runs exercise the
/// real wire.
class SocketEndpoint : public WireEndpoint {
 public:
  static constexpr TransportKind kKind = TransportKind::kSocket;

  void ensure_started() {
    std::lock_guard lock{start_mu_};
    if (started_) return;
    const LaunchInfo& li = launch_info();
    launched_ = li.launched;
    my_proc_ = li.launched ? li.rank : 0;
    nprocs_ = li.launched ? li.nranks : 1;
    bye_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(nprocs_));

    // Listener on an ephemeral loopback port.
    // The listener is nonblocking: the pump's accept loop drains it until
    // EAGAIN, and a blocking listener would wedge the pump inside accept4
    // instead of returning to poll.
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    PEACHY_CHECK(listen_fd_ >= 0, "socket transport: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    PEACHY_CHECK(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
                 "socket transport: bind to 127.0.0.1 failed (" +
                     std::string{std::strerror(errno)} + ")");
    PEACHY_CHECK(listen(listen_fd_, 128) == 0, "socket transport: listen failed");
    socklen_t alen = sizeof addr;
    PEACHY_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) == 0,
                 "socket transport: getsockname failed");
    const std::uint16_t my_port = ntohs(addr.sin_port);

    // Rendezvous: my port up to the launcher, the full table back down.
    std::vector<std::uint16_t> ports(static_cast<std::size_t>(nprocs_), my_port);
    if (launched_) {
      PEACHY_CHECK(li.up_fd >= 0 && li.down_fd >= 0,
                   "socket transport: launched but the rendezvous pipes are missing");
      PEACHY_CHECK(write_full(li.up_fd, &my_port, sizeof my_port),
                   "socket transport: rendezvous write to the launcher failed");
      PEACHY_CHECK(read_full(li.down_fd, ports.data(),
                             sizeof(std::uint16_t) * static_cast<std::size_t>(nprocs_)),
                   "socket transport: rendezvous read from the launcher failed");
      close(li.up_fd);
      close(li.down_fd);
    }

    // Heartbeat failure detector (faults/detect.hpp): launched
    // multi-process worlds only.  Set up before the pump starts — the
    // pump thread owns last_rx_/mon_ from here on.
    hb_ = faults::HeartbeatConfig::from_env(launched_, nprocs_);
    if (hb_.enabled()) {
      last_rx_ = std::make_unique<std::uint64_t[]>(static_cast<std::size_t>(nprocs_));
      mon_.emplace(nprocs_, hb_);
    }

    // The pump must be accepting before we dial out: every process
    // connects to every other (and to itself) at the same time.
#if defined(__linux__)
    wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    PEACHY_CHECK(wake_fd_ >= 0, "socket transport: eventfd failed");
#else
    int pipefd[2];
    PEACHY_CHECK(pipe(pipefd) == 0, "socket transport: pipe failed");
    wake_fd_ = pipefd[0];
    wake_write_fd_ = pipefd[1];
#endif
    // Channels exist (fd = -1) before the pump runs: its heartbeat tick
    // touches out_[p] and must never race the allocation.
    out_ = std::make_unique<OutChannel[]>(static_cast<std::size_t>(nprocs_));
    pump_ = std::thread{[this] { pump_main(); }};

    for (int p = 0; p < nprocs_; ++p) {
      out_[static_cast<std::size_t>(p)].fd = dial_peer(p, ports[static_cast<std::size_t>(p)]);
      const FrameHeader hello = make_ctrl_header(WireKind::kHello, 0, my_proc_, 0);
      send_frame(p, hello, PayloadBuffer{});
    }
    started_ = true;
  }

  /// Connect to peer `p`, retrying transient refusals with bounded
  /// backoff.  Every process dials every other the moment the port table
  /// arrives; a peer whose accept queue briefly overflows (or that is a
  /// beat behind in its own startup) answers ECONNREFUSED — one attempt
  /// is not a verdict.  Exhaustion raises RendezvousError naming the
  /// rank and port, not a bare errno.
  int dial_peer(int p, std::uint16_t port) {
    const faults::RetryPolicy policy{/*max_attempts=*/8, /*base_delay_ns=*/5'000'000,
                                     /*multiplier=*/2.0, /*jitter=*/0.1,
                                     /*seed=*/static_cast<std::uint64_t>(p) + 1};
    int last_err = 0;
    try {
      return policy.run([&] {
        const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        PEACHY_CHECK(fd >= 0, "socket transport: socket() failed");
        sockaddr_in peer{};
        peer.sin_family = AF_INET;
        peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        peer.sin_port = htons(port);
        int rc;
        do {
          rc = connect(fd, reinterpret_cast<sockaddr*>(&peer), sizeof peer);
        } while (rc != 0 && errno == EINTR);
        if (rc == 0) {
          const int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          return fd;
        }
        last_err = errno;
        close(fd);  // a failed connect poisons the socket; dial fresh next try
        if (last_err == ECONNREFUSED || last_err == EAGAIN || last_err == ETIMEDOUT ||
            last_err == ECONNRESET) {
          throw faults::TransientError{"connect refused"};
        }
        PEACHY_CHECK(false, "socket transport: connect to rank " + std::to_string(p) +
                                " (port " + std::to_string(port) + ") failed (" +
                                std::string{std::strerror(last_err)} + ")");
        return -1;  // unreachable: PEACHY_CHECK(false) throws
      });
    } catch (const faults::TransientError&) {
      throw faults::RendezvousError{
          "socket transport: connect to rank " + std::to_string(p) + " (port " +
          std::to_string(port) + ") still failing after " +
          std::to_string(policy.max_attempts()) + " attempts (" +
          std::string{std::strerror(last_err)} + ")"};
    }
  }

  /// Enqueue one frame on `proc`'s stream; a shared payload handle keeps
  /// the bytes alive until they hit the wire.  FIFO order per channel and
  /// a single drainer at a time preserve whole-frame atomicity.  A write
  /// failure means the peer is gone: the connection is retired and —
  /// absent a goodbye — the death is reported; queued frames are
  /// dropped.  This is the wire boundary, so the frame is sealed and the
  /// seeded wire-fault injector applied here (apply_wire_faults).
  void send_frame(int proc, FrameHeader h, const PayloadBuffer& payload) {
    std::size_t wire_len = static_cast<std::size_t>(h.bytes);
    apply_wire_faults(
        my_proc_, proc, h, payload,
        // Short-write the payload but leave h.bytes intact: the stream
        // desyncs and the receiver must detect it via magic/CRC.
        [&wire_len](PayloadBuffer& copy) { wire_len = copy.size() / 2; },
        [&](const FrameHeader& f, const PayloadBuffer& p, int copies) {
          enqueue_frames(proc, f, p, wire_len, copies);
        });
  }

  void enqueue_frames(int proc, const FrameHeader& h, const PayloadBuffer& payload,
                      std::size_t wire_len, int copies) {
    OutChannel& ch = out_[static_cast<std::size_t>(proc)];
    std::unique_lock lk{ch.mu};
    if (ch.fd < 0) return;
    while (ch.writing &&
           (ch.q.size() >= kMaxQueuedFrames || ch.queued_bytes >= kMaxQueuedBytes)) {
      ch.cv.wait(lk);
      if (ch.fd < 0) return;
    }
    for (int c = 0; c < copies; ++c) {
      ch.q.push_back(OutFrame{h, payload.share(), wire_len});
      ch.queued_bytes += static_cast<std::size_t>(h.bytes);
    }
    if (ch.writing) return;  // an active drainer will gather this frame
    ch.writing = true;
    drain(proc, ch, lk);
    ch.writing = false;
    lk.unlock();
    ch.cv.notify_all();
  }

  ~SocketEndpoint() {
    if (!started_) return;
    const FrameHeader bye = make_ctrl_header(WireKind::kBye, 0, my_proc_, 0);
    for (int p = 0; p < nprocs_; ++p) send_frame(p, bye, PayloadBuffer{});
    // The byes ride the queues; wait for every channel to flush so no
    // peer sees EOF-before-goodbye and reports us dead.
    for (int p = 0; p < nprocs_; ++p) {
      OutChannel& ch = out_[static_cast<std::size_t>(p)];
      std::unique_lock lk{ch.mu};
      ch.cv.wait(lk, [&ch] { return ch.fd < 0 || (ch.q.empty() && !ch.writing); });
    }
    stop_.store(true);
    wake_pump();
    pump_.join();
    for (int p = 0; p < nprocs_; ++p) {
      OutChannel& ch = out_[static_cast<std::size_t>(p)];
      if (ch.fd >= 0) close(ch.fd);
    }
    close(listen_fd_);
    close(wake_fd_);
#if !defined(__linux__)
    close(wake_write_fd_);
#endif
  }

 private:
  struct OutFrame {
    FrameHeader h;
    PayloadBuffer payload;
    /// Payload bytes actually written to the wire.  Equal to h.bytes
    /// except under injected wire_truncate, where the short write
    /// deliberately desyncs the stream.
    std::size_t wire_len = 0;
  };

  struct OutChannel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<OutFrame> q;
    std::size_t queued_bytes = 0;
    bool writing = false;  ///< a drainer owns the fd
    int fd = -1;
  };

  struct Conn {
    int fd = -1;
    int proc = -1;  ///< learned from the kHello frame
    bool bye = false;
    bool closed = false;
    std::vector<std::byte> buf;  ///< reassembly buffer (partial tails only)
  };

  void wake_pump() noexcept {
#if defined(__linux__)
    const std::uint64_t one = 1;
    (void)!write(wake_fd_, &one, sizeof one);
#else
    const char w = 0;
    (void)!write(wake_write_fd_, &w, 1);
#endif
  }

  /// Gather-write every frame queued on `ch` and any that arrive while
  /// we drain.  Called with `lk` held and `ch.writing == true`; unlocks
  /// around the actual syscalls so senders keep enqueueing (that is the
  /// coalescing) and re-locks before touching queue state again.
  void drain(int proc, OutChannel& ch, std::unique_lock<std::mutex>& lk) {
    std::vector<OutFrame> batch;
    std::vector<iovec> iov;
    while (!ch.q.empty()) {
      batch.clear();
      iov.clear();
      const std::size_t take = std::min(ch.q.size(), kBatchFrames);
      for (std::size_t i = 0; i < take; ++i) {
        ch.queued_bytes -= static_cast<std::size_t>(ch.q.front().h.bytes);
        batch.push_back(std::move(ch.q.front()));
        ch.q.pop_front();
      }
      const int fd = ch.fd;
      lk.unlock();
      ch.cv.notify_all();  // room freed — release any backpressured sender
      for (OutFrame& f : batch) {
        iov.push_back(iovec{&f.h, sizeof(FrameHeader)});
        if (f.wire_len != 0) {
          iov.push_back(iovec{const_cast<std::byte*>(f.payload.data()), f.wire_len});
        }
      }
      const bool ok = sendmsg_all(fd, iov.data(), iov.size());
      count("mpi.transport.sock.frames", static_cast<std::int64_t>(batch.size()));
      lk.lock();
      if (!ok) {
        fail_channel_locked(proc, ch, "connection reset");
        return;
      }
    }
  }

  /// Retire a channel whose peer is dead or unreachable and report the
  /// death (unless it said goodbye).  Requires ch.mu held; safe only
  /// when no *other* drainer owns the fd.
  void fail_channel_locked(int proc, OutChannel& ch, const char* why) {
    if (ch.fd >= 0) {
      close(ch.fd);
      ch.fd = -1;
    }
    ch.q.clear();
    ch.queued_bytes = 0;
    ch.cv.notify_all();
    if (launched_ && !bye_[static_cast<std::size_t>(proc)].load()) {
      router_.peer_failed(static_cast<std::uint32_t>(proc),
                          "rank " + std::to_string(proc) + "'s process died (" +
                              std::string{why} + ")");
    }
  }

  /// Channel teardown for a heartbeat-confirmed-dead peer.  If a drainer
  /// is mid-sendmsg to the corpse, shutdown() unsticks it — the blocked
  /// write fails and the drainer's own failure path finishes cleanup.
  void retire_channel(int p) {
    OutChannel& ch = out_[static_cast<std::size_t>(p)];
    std::unique_lock lk{ch.mu};
    if (ch.fd >= 0) {
      if (ch.writing) {
        ::shutdown(ch.fd, SHUT_RDWR);
      } else {
        close(ch.fd);
        ch.fd = -1;
        ch.q.clear();
        ch.queued_bytes = 0;
      }
    }
    lk.unlock();
    ch.cv.notify_all();
  }

  /// Fire one sealed kPing at `p` without ever blocking the pump.  Only
  /// an *idle* channel is pinged — queued data already proves to the
  /// peer that we are alive, and an active drainer owns the fd.
  void send_ping(int p) {
    OutChannel& ch = out_[static_cast<std::size_t>(p)];
    std::unique_lock lk{ch.mu, std::try_to_lock};
    if (!lk.owns_lock()) return;  // a sender owns the channel — data is the heartbeat
    if (ch.fd < 0 || ch.writing || !ch.q.empty()) return;
    FrameHeader ping = make_ctrl_header(WireKind::kPing, 0, my_proc_, 0);
    seal_frame(ping, nullptr);
    const char* bytes = reinterpret_cast<const char*>(&ping);
    std::size_t off = 0;
    int spins = 0;
    while (off < sizeof ping) {
      const ssize_t w =
          ::send(ch.fd, bytes + off, sizeof ping - off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (off == 0) return;  // no buffer room at all — skip this beat whole-frame
        // Mid-frame stall: a half-written header must not stay on the
        // stream.  A peer that cannot absorb 48 bytes has megabytes of
        // unread data sitting in its buffers — the wedged-rank
        // signature — so give it a brief grace, then retire it.
        if (++spins > 200) {
          fail_channel_locked(p, ch, "heartbeat write stalled (send buffer full)");
          return;
        }
        ::usleep(10);
        continue;
      }
      fail_channel_locked(p, ch, "connection reset");
      return;
    }
    count("mpi.transport.heartbeat.ping_tx", 1);
  }

  /// One beat, pump thread only: ping every live peer's idle channel,
  /// fold each peer's inbound last-alive stamp into the monitor, and
  /// turn confirmed silence into the same peer_failed path a connection
  /// reset takes — so a SIGKILLed *or wedged* rank is detected even
  /// when its sockets are still technically open.
  void heartbeat_tick() {
    if (now_ns_ < next_beat_ns_) return;
    next_beat_ns_ = now_ns_ + hb_.interval_ns();
    for (int p = 0; p < nprocs_; ++p) {
      if (p == my_proc_ || bye_[static_cast<std::size_t>(p)].load()) continue;
      send_ping(p);
      const std::uint64_t rx = last_rx_[static_cast<std::size_t>(p)];
      if (rx != 0) mon_->alive(p, rx);
      if (mon_->check(p, now_ns_) == faults::HeartbeatMonitor::Verdict::kConfirmed) {
        retire_channel(p);
        router_.peer_silent(p, now_ns_, rx);
      }
    }
  }

  /// Scatter-gather write of the whole iovec list, resuming after
  /// partial writes.  MSG_NOSIGNAL: a dying peer must surface as EPIPE,
  /// not kill the process.
  static bool sendmsg_all(int fd, iovec* iov, std::size_t cnt) {
    while (cnt > 0) {
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = cnt;
      ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      count("mpi.transport.sock.writev", 1);
      while (cnt > 0 && static_cast<std::size_t>(w) >= iov[0].iov_len) {
        w -= static_cast<ssize_t>(iov[0].iov_len);
        ++iov;
        --cnt;
      }
      if (cnt > 0 && w > 0) {
        iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + w;
        iov[0].iov_len -= static_cast<std::size_t>(w);
      }
    }
    return true;
  }

  static bool write_full(int fd, const void* buf, std::size_t n) {
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  }

  static bool read_full(int fd, void* buf, std::size_t n) {
    char* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t r = ::read(fd, p, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (r == 0) return false;
      p += r;
      n -= static_cast<std::size_t>(r);
    }
    return true;
  }

  /// The router routes data/revoke/abort; hello, bye, failed, and ping
  /// are this endpoint's.  Any frame, a ping included, refreshes the
  /// sender's last-alive stamp.
  void dispatch(Conn& conn, const FrameHeader& h, const std::byte* payload) {
    switch (router_.dispatch(h, payload)) {
      case WireKind::kHello:
        conn.proc = h.source;
        break;
      case WireKind::kBye:
        conn.bye = true;
        if (conn.proc >= 0) bye_[static_cast<std::size_t>(conn.proc)].store(true);
        break;
      case WireKind::kFailed:
        router_.peer_failed(static_cast<std::uint32_t>(h.source),
                            "rank " + std::to_string(h.source) + "'s process died");
        break;
      default:
        break;
    }
    if (conn.proc >= 0 && hb_.enabled()) {
      last_rx_[static_cast<std::size_t>(conn.proc)] = now_ns_;
    }
  }

  void on_conn_gone(Conn& conn, const char* why) {
    conn.closed = true;
    if (launched_ && conn.proc >= 0 && conn.proc != my_proc_ && !conn.bye) {
      router_.peer_failed(static_cast<std::uint32_t>(conn.proc),
                          "rank " + std::to_string(conn.proc) + "'s process died (" + why + ")");
    }
    close(conn.fd);
  }

  /// A header that fails the magic (or claims an absurd payload) means
  /// the byte stream has desynced — a truncated or garbled frame
  /// upstream.  Unlike a payload CRC miss, there is no way to find the
  /// next frame boundary, so the connection itself is unrecoverable.
  static void check_header(const FrameHeader& h) {
    if (h.magic != kWireMagic) {
      throw faults::WireIntegrityError{
          "socket transport: bad frame magic on the wire (stream desync)"};
    }
    if (h.bytes > (std::uint64_t{1} << 40)) {
      throw faults::WireIntegrityError{
          "socket transport: frame claims " + std::to_string(h.bytes) +
          " payload bytes (corrupt length)"};
    }
  }

  /// Parse complete frames out of [data, data+n); returns the number of
  /// bytes consumed (a partial frame tail stays unconsumed).
  std::size_t parse_frames(Conn& conn, const std::byte* data, std::size_t n) {
    std::size_t off = 0;
    while (n - off >= sizeof(FrameHeader)) {
      FrameHeader h;
      std::memcpy(&h, data + off, sizeof h);
      check_header(h);
      if (n - off < sizeof h + h.bytes) break;
      dispatch(conn, h, data + off + sizeof h);
      ++frames_this_wake_;
      off += sizeof h + static_cast<std::size_t>(h.bytes);
    }
    return off;
  }

  /// Move just enough of [data, data+n) into conn.buf to complete the
  /// partial frame carried over from the previous read, dispatch it, and
  /// return the number of bytes taken.  Never copies past the pending
  /// frame's end — the rest of the chunk is parsed in place by the
  /// caller.
  std::size_t complete_tail(Conn& conn, const std::byte* data, std::size_t n) {
    std::size_t taken = 0;
    if (conn.buf.size() < sizeof(FrameHeader)) {
      const std::size_t want = std::min(sizeof(FrameHeader) - conn.buf.size(), n);
      conn.buf.insert(conn.buf.end(), data, data + want);
      taken = want;
      if (conn.buf.size() < sizeof(FrameHeader)) return taken;  // header still partial
    }
    FrameHeader h;
    std::memcpy(&h, conn.buf.data(), sizeof h);
    check_header(h);
    const std::size_t total = sizeof h + static_cast<std::size_t>(h.bytes);
    const std::size_t want = std::min(total - conn.buf.size(), n - taken);
    conn.buf.insert(conn.buf.end(), data + taken, data + taken + want);
    taken += want;
    if (conn.buf.size() < total) return taken;  // payload still partial
    dispatch(conn, h, conn.buf.data() + sizeof h);
    ++frames_this_wake_;
    conn.buf.clear();
    return taken;
  }

  /// Drain everything readable on `conn` in kReadChunk slabs.  Complete
  /// frames are parsed straight out of the read staging buffer; only a
  /// partial tail is carried over in conn.buf — steady-state traffic is
  /// dispatched with zero reassembly copies, and a carried-over tail
  /// copies only its own completion bytes, not the whole next chunk.
  void read_conn(Conn& conn) {
    for (;;) {
      const ssize_t r = ::read(conn.fd, stage_.data(), stage_.size());
      if (r > 0) {
        count("mpi.transport.sock.reads", 1);
        std::size_t n = static_cast<std::size_t>(r);
        const std::byte* data = stage_.data();
        try {
          if (!conn.buf.empty()) {
            const std::size_t taken = complete_tail(conn, data, n);
            data += taken;
            n -= taken;
          }
          if (conn.buf.empty() && n != 0) {
            const std::size_t used = parse_frames(conn, data, n);
            if (used < n) conn.buf.assign(data + used, data + n);
          }
        } catch (const faults::WireIntegrityError& e) {
          // The stream has desynced; the connection is beyond repair.
          // Retire it and — absent a goodbye — report the peer failed,
          // so the error feeds the same revoke/shrink machinery as a
          // death.  Never PEACHY_CHECK here: an injected truncation must
          // not bring the *receiver* down.
          count("mpi.transport.crc_fail", 1);
          on_conn_gone(conn, e.what());
          break;
        }
        if (static_cast<std::size_t>(r) < stage_.size()) break;  // short read — socket drained
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      on_conn_gone(conn, "connection closed without goodbye");  // EOF or hard error
      break;
    }
  }

  void pump_main() {
    stage_.resize(kReadChunk);
    std::vector<Conn> conns;
    std::vector<pollfd> fds;
    // With heartbeats on, poll must wake at least once per beat even
    // when the wires are silent.
    const int poll_ms =
        hb_.enabled()
            ? static_cast<int>(std::min<std::uint64_t>(200, hb_.interval_ns() / 1'000'000))
            : 200;
    while (!stop_.load()) {
      fds.clear();
      fds.push_back(pollfd{wake_fd_, POLLIN, 0});
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      for (const Conn& c : conns) fds.push_back(pollfd{c.fd, POLLIN, 0});
      const int rc = poll(fds.data(), fds.size(), poll_ms);
      if (rc < 0 && errno != EINTR) break;
      if (stop_.load()) break;
      if (hb_.enabled()) {
        now_ns_ = monotonic_ns();
        heartbeat_tick();
      }
      if (rc <= 0) continue;
      if ((fds[0].revents & POLLIN) != 0) {
#if defined(__linux__)
        std::uint64_t drain = 0;
        (void)!read(wake_fd_, &drain, sizeof drain);
#else
        char drain[16];
        (void)!read(wake_fd_, drain, sizeof drain);
#endif
      }
      if ((fds[1].revents & POLLIN) != 0) {
        for (;;) {
          const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          conns.push_back(Conn{fd, -1, false, false, {}});
        }
      }
      // The pollfd list was built from the same vector in the same
      // order; entry i+2 is conns[i].  New conns join next iteration.
      frames_this_wake_ = 0;
      for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
        if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(conns[i]);
      }
      if (frames_this_wake_ != 0 && obs::enabled()) {
        static obs::Histogram& hist = obs::histogram("mpi.transport.sock.pump_batch");
        hist.note(frames_this_wake_);
      }
      std::erase_if(conns, [](const Conn& c) { return c.closed; });
    }
    for (const Conn& c : conns) close(c.fd);
  }

  int listen_fd_ = -1;
  int wake_fd_ = -1;
#if !defined(__linux__)
  int wake_write_fd_ = -1;
#endif
  std::unique_ptr<OutChannel[]> out_;
  std::unique_ptr<std::atomic<bool>[]> bye_;
  std::vector<std::byte> stage_;     ///< pump-thread read staging buffer
  std::uint64_t frames_this_wake_ = 0;
  std::optional<faults::HeartbeatMonitor> mon_;  ///< pump-thread only
  std::unique_ptr<std::uint64_t[]> last_rx_;     ///< pump-thread only; ns of last inbound frame per proc
  std::uint64_t now_ns_ = 0;                     ///< pump-thread clock cache
  std::uint64_t next_beat_ns_ = 0;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(const TransportConfig& cfg) {
  return std::make_unique<WireTransport<SocketEndpoint>>(cfg);
}

}  // namespace peachy::mpi::detail
