/// \file bench_transport.cpp
/// \brief Cross-process wire regression harness: times ping-pong round-trip
/// latency, one-way streaming throughput, and three collectives on every
/// transport backend (inproc / shm / socket) across the payload sizes that
/// matter to the wire — below the shm inline-slot limit, at the boundary, and
/// on the spill path.  Results are emitted as machine-readable JSON (schema
/// "peachy-bench/1", same shape as BENCH_kernels.json) so each PR has a
/// wire-perf trajectory to compare against.
///
/// Column semantics: `kernel_ns` is the backend under test, `scalar_ns` is
/// the pooled in-process path timed on the identical shape — the "speed of
/// not having a wire" reference — so `speedup` reads as inproc-vs-this-wire
/// (inproc rows are ~1 by construction).  scripts/bench_compare.py gates on
/// `kernel_ns` across runs regardless.
///
/// Usage:
///   bench_transport [--tiny] [--out FILE] [--repeat N]
///
/// --tiny shrinks every workload to smoke-test size (for scripts/check.sh
/// transport-bench-smoke: validates the wiring and the JSON schema on all
/// three backends, not the numbers).  --repeat overrides the best-of count
/// (default 5; the regression gate in scripts/gates.sh uses a higher value
/// so a fresh run's floor estimate is at least as tight as the committed
/// baseline's).
/// Default output: BENCH_transport.json.
///
/// The harness runs unlaunched (one OS process): wire backends serialize
/// even same-process traffic through the full frame path — shm frames cross
/// the slot ring, socket frames cross a real loopback TCP connection — so a
/// single-process sweep measures the real per-message wire cost without
/// multi-process timer skew.  Method: best-of-R wall time, many rounds per
/// mpi::run so frame traffic, not thread spawn, dominates.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpi/mpi.hpp"
#include "support/timer.hpp"

namespace {

namespace pm = peachy::mpi;
namespace ps = peachy::support;

double g_sink = 0.0;  // defeats dead-code elimination; printed at the end

struct Row {
  std::string name;
  std::string shape;
  std::uint64_t items;  // payload bytes per message (for context)
  double scalar_ns;     // inproc reference on the identical shape
  double kernel_ns;     // the backend under test
  double speedup;
  std::string extra;  // raw JSON appended to the row ("" or ", \"k\": v...")
};

std::vector<Row> g_rows;

constexpr pm::TransportKind kBackends[] = {
    pm::TransportKind::kInproc, pm::TransportKind::kShm, pm::TransportKind::kSocket};

const char* backend_name(pm::TransportKind k) {
  switch (k) {
    case pm::TransportKind::kInproc: return "inproc";
    case pm::TransportKind::kShm: return "shm";
    case pm::TransportKind::kSocket: return "socket";
    default: return "default";
  }
}

constexpr int kTag = 11;

/// Ping-pong: rank 0 sends `bytes` to rank 1, rank 1 echoes it back,
/// `rounds` times.  Returns best-of-reps nanoseconds per round trip.
double time_pingpong(pm::TransportKind k, std::size_t bytes, int rounds, int reps) {
  pm::RunOptions opts;
  opts.transport = k;
  const double secs = ps::time_best_of(reps, [&] {
    pm::run(
        2,
        [bytes, rounds](pm::Comm& comm) {
          std::vector<std::byte> buf(bytes, std::byte{0x5A});
          for (int r = 0; r < rounds; ++r) {
            if (comm.rank() == 0) {
              comm.send_bytes(1, kTag, std::span<const std::byte>{buf});
              (void)comm.recv_bytes_into(std::span<std::byte>{buf}, 1, kTag);
            } else {
              (void)comm.recv_bytes_into(std::span<std::byte>{buf}, 0, kTag);
              comm.send_bytes(0, kTag, std::span<const std::byte>{buf});
            }
          }
          g_sink += static_cast<double>(std::to_integer<int>(buf[0]));
        },
        opts);
  });
  return secs * 1e9 / rounds;
}

/// One-way stream: rank 0 posts `count` messages of `bytes` back to back,
/// rank 1 drains them and acks once.  Returns nanoseconds per message.
double time_stream(pm::TransportKind k, std::size_t bytes, int count, int reps) {
  pm::RunOptions opts;
  opts.transport = k;
  const double secs = ps::time_best_of(reps, [&] {
    pm::run(
        2,
        [bytes, count](pm::Comm& comm) {
          if (comm.rank() == 0) {
            std::vector<std::byte> buf(bytes, std::byte{0x5A});
            for (int i = 0; i < count; ++i) {
              comm.send_bytes(1, kTag, std::span<const std::byte>{buf});
            }
            int done = comm.recv_value<int>(1, kTag + 1);
            g_sink += done;
          } else {
            std::vector<std::byte> buf(bytes);
            for (int i = 0; i < count; ++i) {
              (void)comm.recv_bytes_into(std::span<std::byte>{buf}, 0, kTag);
            }
            comm.send_value<int>(0, kTag + 1, 1);
            g_sink += static_cast<double>(std::to_integer<int>(buf[0]));
          }
        },
        opts);
  });
  return secs * 1e9 / count;
}

/// The collectives the sweep times, and their row names.
enum class CollOp { kAllreduce, kAllgather, kAlltoall };
constexpr const char* kCollNames[] = {"allreduce", "allgather", "alltoall"};

/// `rounds` rounds of `op` over `n` doubles on `ranks` ranks (alltoall: `n`
/// doubles to every destination).  Returns ns per round.
double time_coll(pm::TransportKind k, CollOp op, int ranks, std::size_t n, int rounds,
                 int reps) {
  pm::RunOptions opts;
  opts.transport = k;
  const double secs = ps::time_best_of(reps, [&] {
    pm::run(
        ranks,
        [op, n, rounds](pm::Comm& comm) {
          std::vector<double> data(n, 1.0 + 1e-9 * comm.rank());
          std::vector<double> all;
          if (op == CollOp::kAllgather) {
            all.resize(n * static_cast<std::size_t>(comm.size()));
          }
          for (int r = 0; r < rounds; ++r) {
            switch (op) {
              case CollOp::kAllreduce:
                comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
                for (double& x : data) x = x * 1e-3 + 1.0;  // keep magnitudes O(1)
                break;
              case CollOp::kAllgather:
                comm.allgather_into<double>(std::span<const double>{data},
                                            std::span<double>{all});
                break;
              case CollOp::kAlltoall: {
                // Send buckets rebuilt every round and moved into the
                // rvalue overload, as MapReduce::collate hands over its
                // pages.
                std::vector<std::vector<double>> buckets(static_cast<std::size_t>(comm.size()),
                                                         data);
                all = std::move(comm.alltoall(std::move(buckets)).back());
                break;
              }
            }
          }
          g_sink += op == CollOp::kAllreduce ? data[0] : all.back();
        },
        opts);
  });
  return secs * 1e9 / rounds;
}

std::string size_tag(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%zuk", bytes / 1024);
  } else {
    std::snprintf(buf, sizeof buf, "%zu", bytes);
  }
  return buf;
}

void run_all(bool tiny, int repeat_override) {
  // Sizes straddle the shm inline-slot limit (1 KiB): 8/256 are pure
  // slot-ring traffic, 1024 is the boundary, 4k/64k ride the spill arena
  // (and the socket writev payload iovec).
  const std::vector<std::size_t> pp_sizes =
      tiny ? std::vector<std::size_t>{8, 4096}
           : std::vector<std::size_t>{8, 256, 1024, 4096, 65536};
  const int reps = repeat_override > 0 ? repeat_override : (tiny ? 1 : 5);

  // --- Ping-pong round-trip latency, p=2 ------------------------------
  for (const std::size_t bytes : pp_sizes) {
    const int rounds = tiny ? 4 : (bytes >= 65536 ? 200 : 1000);
    const std::string shape = "pp p=2 b=" + size_tag(bytes);
    double ref = 0.0;
    for (const pm::TransportKind k : kBackends) {
      const double ns = time_pingpong(k, bytes, rounds, reps);
      if (k == pm::TransportKind::kInproc) ref = ns;
      const std::string name = std::string("pp_") + backend_name(k) + "_" + size_tag(bytes);
      g_rows.push_back({name, shape, bytes, ref, ns, ref / ns, ""});
      std::printf("%-22s %-20s rtt %10.0f ns   (inproc ref %10.0f ns)\n", name.c_str(),
                  shape.c_str(), ns, ref);
    }
  }

  // --- One-way stream throughput, p=2 ---------------------------------
  for (const std::size_t bytes : pp_sizes) {
    const int count = tiny ? 8 : (bytes >= 65536 ? 400 : 4000);
    const std::string shape = "bw p=2 b=" + size_tag(bytes);
    double ref = 0.0;
    for (const pm::TransportKind k : kBackends) {
      const double ns = time_stream(k, bytes, count, reps);
      if (k == pm::TransportKind::kInproc) ref = ns;
      const double mbs = static_cast<double>(bytes) * 1e3 / ns;  // MB/s
      char extra[64];
      std::snprintf(extra, sizeof extra, ", \"mb_s\": %.1f", mbs);
      const std::string name = std::string("bw_") + backend_name(k) + "_" + size_tag(bytes);
      g_rows.push_back({name, shape, bytes, ref, ns, ref / ns, extra});
      std::printf("%-22s %-20s per-msg %8.0f ns   %10.1f MB/s\n", name.c_str(), shape.c_str(),
                  ns, mbs);
    }
  }

  // --- Collectives, p=4 -----------------------------------------------
  const std::vector<std::size_t> coll_n =
      tiny ? std::vector<std::size_t>{32} : std::vector<std::size_t>{256, 8192};
  const int coll_rounds = tiny ? 2 : 50;
  for (const CollOp op : {CollOp::kAllreduce, CollOp::kAllgather, CollOp::kAlltoall}) {
    const char* opname = kCollNames[static_cast<int>(op)];
    for (const std::size_t n : coll_n) {
      const std::string shape =
          std::string(opname) + " p=4 n=" + std::to_string(n) + " f64";
      double ref = 0.0;
      for (const pm::TransportKind k : kBackends) {
        const double ns = time_coll(k, op, 4, n, coll_rounds, reps);
        if (k == pm::TransportKind::kInproc) ref = ns;
        const std::string name =
            std::string("coll_") + opname + "_" + backend_name(k) + "_" + std::to_string(n);
        g_rows.push_back({name, shape, n * sizeof(double), ref, ns, ref / ns, ""});
        std::printf("%-28s %-24s %10.0f ns/round\n", name.c_str(), shape.c_str(), ns);
      }
    }
  }
}

void write_json(const std::string& path, bool tiny) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_transport: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"peachy-bench/1\",\n");
  std::fprintf(f, "  \"harness\": \"bench_transport\",\n");
  std::fprintf(f, "  \"isa\": \"none\",\n");
  std::fprintf(f, "  \"tiny\": %s,\n", tiny ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"items\": %llu, "
                 "\"scalar_ns\": %.1f, \"kernel_ns\": %.1f, \"speedup\": %.3f%s}%s\n",
                 r.name.c_str(), r.shape.c_str(), static_cast<unsigned long long>(r.items),
                 r.scalar_ns, r.kernel_ns, r.speedup, r.extra.c_str(),
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu benchmarks)\n", path.c_str(), g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  int repeat = 0;
  std::string out = "BENCH_transport.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_transport [--tiny] [--out FILE] [--repeat N]\n");
      return 2;
    }
  }
  std::printf("bench_transport: wire cost per backend (inproc reference)%s\n",
              tiny ? " (tiny smoke sizes)" : "");
  run_all(tiny, repeat);
  write_json(out, tiny);
  std::printf("sink=%g\n", g_sink);
  return 0;
}
