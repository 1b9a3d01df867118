#include "mpi/launch.hpp"

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mpi/shm_ring.hpp"
#include "mpi/wire.hpp"
#include "support/check.hpp"

extern char** environ;

namespace peachy::mpi {

namespace {

constexpr const char* kEnvRank = "PEACHY_RANK";
constexpr const char* kEnvNranks = "PEACHY_NRANKS";
constexpr const char* kEnvTransport = "PEACHY_TRANSPORT";
constexpr const char* kEnvShm = "PEACHY_SHM";
constexpr const char* kEnvUp = "PEACHY_RDZV_UP";
constexpr const char* kEnvDown = "PEACHY_RDZV_DOWN";

[[nodiscard]] int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? fallback : std::atoi(v);
}

[[nodiscard]] bool write_full(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

[[nodiscard]] bool read_full(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF: the peer died before finishing rendezvous
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// The launcher's copy of the environment with every peachy rendezvous
/// key stripped, so a child never inherits a stale half of a previous
/// rendezvous alongside its own.
[[nodiscard]] std::vector<std::string> base_environment() {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry{*e};
    bool ours = false;
    for (const char* key : {kEnvRank, kEnvNranks, kEnvTransport, kEnvShm, kEnvUp, kEnvDown}) {
      const std::size_t len = std::strlen(key);
      if (entry.size() > len && entry.compare(0, len, key) == 0 && entry[len] == '=') {
        ours = true;
        break;
      }
    }
    if (!ours) env.emplace_back(entry);
  }
  return env;
}

LaunchResult launch_impl(const LaunchOptions& opts, const std::string& exec_path,
                         const std::vector<std::string>& args) {
  PEACHY_CHECK(!launch_info().launched,
               "mpi::launch: nested launch from inside a launched rank process");
  PEACHY_CHECK(opts.nranks > 0, "mpi::launch: nranks must be positive");
  PEACHY_CHECK(opts.kind == TransportKind::kShm || opts.kind == TransportKind::kSocket,
               "mpi::launch: only the wire transports (shm, socket) can span processes");
  PEACHY_CHECK(!args.empty(), "mpi::launch: empty argv");
  const int n = opts.nranks;
  const bool socket = opts.kind == TransportKind::kSocket;

  // The shm world's segment exists before any child runs; children
  // attach by name.  The launcher keeps its own mapping for posting
  // failure frames while reaping.
  detail::ShmView shm;
  std::string shm_name;
  if (!socket) {
    shm_name = "/peachy." + std::to_string(getpid());
    shm = detail::shm_create(shm_name, n, detail::kShmSpillBytes);
  }

  // Socket rendezvous pipes, all CLOEXEC: each child re-enables exactly
  // its own pair between fork and exec, so a sibling's death can never
  // hold a pipe open and stall the launcher's reads.
  std::vector<std::array<int, 2>> up(static_cast<std::size_t>(n), {-1, -1});
  std::vector<std::array<int, 2>> down(static_cast<std::size_t>(n), {-1, -1});
  if (socket) {
    for (int r = 0; r < n; ++r) {
      PEACHY_CHECK(pipe2(up[static_cast<std::size_t>(r)].data(), O_CLOEXEC) == 0 &&
                       pipe2(down[static_cast<std::size_t>(r)].data(), O_CLOEXEC) == 0,
                   "mpi::launch: pipe2 failed (" + std::string{std::strerror(errno)} + ")");
    }
  }

  // Everything a child needs is materialized before fork: env blocks
  // and argv pointer tables (no allocation between fork and exec).
  const std::vector<std::string> base_env = base_environment();
  std::vector<std::vector<std::string>> child_env(static_cast<std::size_t>(n));
  std::vector<std::vector<char*>> child_envp(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& env = child_env[static_cast<std::size_t>(r)];
    env = base_env;
    env.push_back(std::string{kEnvRank} + "=" + std::to_string(r));
    env.push_back(std::string{kEnvNranks} + "=" + std::to_string(n));
    env.push_back(std::string{kEnvTransport} + "=" + transport_name(opts.kind));
    if (socket) {
      env.push_back(std::string{kEnvUp} + "=" +
                    std::to_string(up[static_cast<std::size_t>(r)][1]));
      env.push_back(std::string{kEnvDown} + "=" +
                    std::to_string(down[static_cast<std::size_t>(r)][0]));
    } else {
      env.push_back(std::string{kEnvShm} + "=" + shm_name);
    }
    auto& envp = child_envp[static_cast<std::size_t>(r)];
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const pid_t pid = fork();
    PEACHY_CHECK(pid >= 0, "mpi::launch: fork failed (" + std::string{std::strerror(errno)} + ")");
    if (pid == 0) {
      if (socket) {
        fcntl(up[static_cast<std::size_t>(r)][1], F_SETFD, 0);
        fcntl(down[static_cast<std::size_t>(r)][0], F_SETFD, 0);
      }
      execve(exec_path.c_str(), argv.data(), child_envp[static_cast<std::size_t>(r)].data());
      _exit(127);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  if (socket) {
    for (int r = 0; r < n; ++r) {
      close(up[static_cast<std::size_t>(r)][1]);
      close(down[static_cast<std::size_t>(r)][0]);
    }
  }

  // Socket rendezvous: gather every child's listener port, then write
  // the full table to every child.  A child dying mid-rendezvous (EOF)
  // aborts the launch: injected faults fire inside mpi::run, which
  // starts only after rendezvous, so this is a genuine spawn failure.
  bool rendezvous_ok = true;
  if (socket) {
    std::vector<std::uint16_t> ports(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < n && rendezvous_ok; ++r) {
      rendezvous_ok =
          read_full(up[static_cast<std::size_t>(r)][0], &ports[static_cast<std::size_t>(r)], 2);
    }
    // A child can die between sending its port and reading the table;
    // EPIPE on that write must not kill the launcher.
    struct sigaction ign{}, saved{};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, &saved);
    if (rendezvous_ok) {
      for (int r = 0; r < n && rendezvous_ok; ++r) {
        rendezvous_ok = write_full(down[static_cast<std::size_t>(r)][1], ports.data(),
                                   sizeof(std::uint16_t) * static_cast<std::size_t>(n));
      }
    }
    sigaction(SIGPIPE, &saved, nullptr);
    for (int r = 0; r < n; ++r) {
      close(up[static_cast<std::size_t>(r)][0]);
      close(down[static_cast<std::size_t>(r)][1]);
    }
    if (!rendezvous_ok) {
      for (const pid_t pid : pids) kill(pid, SIGKILL);
    }
  }

  // Reap.  For shm worlds the launcher is the failure detector: a
  // signal death is announced to every still-running survivor's ring
  // right away, so they shrink while the launcher keeps waiting.
  //
  // PEACHY_LAUNCH_REAP_MS > 0 arms straggler reaping: once any child has
  // exited, remaining children that produce no further exits for that
  // many milliseconds are SIGKILLed.  This exists for the wedged-rank
  // scenario (heartbeat e2e): survivors detect a SIGSTOPped peer,
  // shrink, finish, and exit — but the wedged child would park the
  // launcher in waitpid forever.  With no exits yet the timer is idle,
  // so a slow world start is never killed.
  const int reap_ms = env_int("PEACHY_LAUNCH_REAP_MS", 0);
  LaunchResult res;
  res.procs.resize(static_cast<std::size_t>(n));
  std::map<pid_t, int> rank_of;
  for (int r = 0; r < n; ++r) rank_of[pids[static_cast<std::size_t>(r)]] = r;
  std::vector<bool> reaped(static_cast<std::size_t>(n), false);
  int idle_ms = 0;
  bool any_exit = false;
  for (int remaining = n; remaining > 0;) {
    int st = 0;
    pid_t pid = -1;
    if (reap_ms > 0) {
      pid = waitpid(-1, &st, WNOHANG);
      if (pid == 0) {
        constexpr int kPollMs = 10;
        if (any_exit) {
          idle_ms += kPollMs;
          if (idle_ms > reap_ms) {
            for (int r = 0; r < n; ++r) {
              if (!reaped[static_cast<std::size_t>(r)]) {
                kill(pids[static_cast<std::size_t>(r)], SIGKILL);
              }
            }
            idle_ms = 0;  // the kills produce exits; reap them normally
          }
        }
        usleep(kPollMs * 1000);
        continue;
      }
    } else {
      pid = waitpid(-1, &st, 0);
    }
    if (pid < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const auto it = rank_of.find(pid);
    if (it == rank_of.end()) continue;  // some other child of the caller
    any_exit = true;
    idle_ms = 0;
    const int r = it->second;
    ProcStatus& ps = res.procs[static_cast<std::size_t>(r)];
    ps.rank = r;
    ps.pid = pid;
    if (WIFEXITED(st)) {
      ps.exited = true;
      ps.exit_code = WEXITSTATUS(st);
      (ps.exit_code == 0 ? res.clean : res.nonzero)++;
    } else if (WIFSIGNALED(st)) {
      ps.signaled = true;
      ps.sig = WTERMSIG(st);
      ++res.killed;
      if (!socket) {
        // Order matters: publish the death to the victim's `dead` flag
        // first, so a consumer wedged on the victim's half-written slot
        // can prove the hole is dead and skip it — only then post the
        // kFailed frames that ride the rings behind any such hole.
        detail::shm_mark_dead(shm, r);
        detail::FrameHeader h = detail::make_ctrl_header(
            detail::WireKind::kFailed, 0, r, 0);
        detail::seal_frame(h, nullptr);
        for (int peer = 0; peer < n; ++peer) {
          if (peer == r || reaped[static_cast<std::size_t>(peer)]) continue;
          (void)detail::ring_push(shm, peer, shm.nprocs, h, nullptr);  // launcher's register
        }
      }
    }
    reaped[static_cast<std::size_t>(r)] = true;
    --remaining;
  }

  if (!socket) {
    detail::shm_detach(shm);
    shm_unlink(shm_name.c_str());
  }
  PEACHY_CHECK(rendezvous_ok, "mpi::launch: a rank process died during rendezvous");
  return res;
}

}  // namespace

const LaunchInfo& launch_info() {
  static const LaunchInfo info = [] {
    LaunchInfo li;
    const char* rank = std::getenv(kEnvRank);
    if (rank == nullptr || *rank == '\0') return li;
    li.launched = true;
    li.rank = std::atoi(rank);
    li.nranks = env_int(kEnvNranks, 1);
    const char* kind = std::getenv(kEnvTransport);
    li.kind = parse_transport(kind == nullptr ? "" : kind);
    PEACHY_CHECK(li.kind == TransportKind::kShm || li.kind == TransportKind::kSocket,
                 "launch_info: PEACHY_RANK is set but PEACHY_TRANSPORT is not a wire transport");
    if (const char* shm = std::getenv(kEnvShm); shm != nullptr) li.shm_name = shm;
    li.up_fd = env_int(kEnvUp, -1);
    li.down_fd = env_int(kEnvDown, -1);
    PEACHY_CHECK(li.rank >= 0 && li.rank < li.nranks,
                 "launch_info: PEACHY_RANK out of range for PEACHY_NRANKS");
    return li;
  }();
  return info;
}

LaunchResult launch(const LaunchOptions& opts, const std::vector<std::string>& args) {
  PEACHY_CHECK(!args.empty(), "mpi::launch: empty argv");
  return launch_impl(opts, args[0], args);
}

LaunchResult launch_self(const LaunchOptions& opts, int argc, char** argv,
                         const std::vector<std::string>& extra_args) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + extra_args.size());
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  for (const std::string& a : extra_args) args.push_back(a);
  return launch_impl(opts, "/proc/self/exe", args);
}

}  // namespace peachy::mpi
