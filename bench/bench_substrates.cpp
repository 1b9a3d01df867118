/// \file bench_substrates.cpp
/// \brief Transport-substrate regression harness: times the pooled
/// zero-copy mini-MPI collectives and the MapReduce-style shuffle
/// exchange against bench-local *legacy twins* — faithful
/// re-implementations of the pre-pool transport algorithms (per-message
/// allocation, copying sends, double-copy typed receives,
/// vector-of-vectors assembly) run with slab reuse disabled.  Results
/// are emitted as machine-readable JSON (schema "peachy-bench/1", same
/// shape as BENCH_kernels.json) so each PR has a perf trajectory to
/// compare against; `scalar_ns` is the legacy twin, `kernel_ns` the
/// shipped path.
///
/// Usage:
///   bench_substrates [--tiny] [--out FILE] [--transport=inproc|shm|socket]
///
/// --tiny shrinks every workload to smoke-test size (for scripts/check.sh
/// bench-substrates-smoke: validates the wiring and the JSON schema, not
/// the numbers).  Default output file: BENCH_substrates.json in the CWD.
///
/// Method: best-of-R wall time per benchmark; each timed run executes
/// many collective rounds inside one mpi::run so buffer traffic, not
/// thread spawn, dominates.  Identical payload sizes and round counts
/// for both twins, results accumulated into a printed sink.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mpi/buffer_pool.hpp"
#include "mpi/mpi.hpp"
#include "support/timer.hpp"

namespace {

namespace pm = peachy::mpi;
namespace ps = peachy::support;
namespace mr = peachy::mapreduce;

double g_sink = 0.0;  // defeats dead-code elimination; printed at the end

/// Which backend every mpi::run in the sweep rides (--transport=...).
/// kDefault keeps the historical behavior: PEACHY_TRANSPORT or inproc.
pm::TransportKind g_transport = pm::TransportKind::kDefault;

/// mpi::run with the sweep-wide transport applied — every bench body
/// goes through here so --transport=shm|socket times the same workloads
/// over a real wire.
template <typename Fn>
void run_world(int ranks, Fn&& fn) {
  pm::RunOptions opts;
  opts.transport = g_transport;
  peachy::mpi::run(ranks, std::forward<Fn>(fn), opts);
}

struct Row {
  std::string name;
  std::string shape;
  std::uint64_t items;  // elements exchanged per run (for context)
  double scalar_ns;     // legacy twin (pre-pool transport algorithms)
  double kernel_ns;     // shipped pooled / zero-copy path
  double speedup;
};

std::vector<Row> g_rows;

/// Restore-on-exit guard that disables slab reuse, putting the transport
/// back on the pre-pool allocate-per-message regime for the legacy twin.
struct PoolingOff {
  bool was;
  PoolingOff() : was(pm::BufferPool::instance().pooling()) {
    pm::BufferPool::instance().set_pooling(false);
  }
  ~PoolingOff() { pm::BufferPool::instance().set_pooling(was); }
  PoolingOff(const PoolingOff&) = delete;
  PoolingOff& operator=(const PoolingOff&) = delete;
};

/// Time legacy twin vs shipped path and record a row.  Reported
/// nanoseconds are per full run (all rounds).
template <typename LegacyFn, typename NewFn>
void bench(const std::string& name, const std::string& shape, std::uint64_t items, int reps,
           LegacyFn&& legacy, NewFn&& fresh) {
  const double s = ps::time_best_of(reps, [&] {
                     const PoolingOff off;
                     legacy();
                   }) *
                   1e9;
  const double v = ps::time_best_of(reps, [&] { fresh(); }) * 1e9;
  g_rows.push_back({name, shape, items, s, v, s / v});
  std::printf("%-18s %-34s legacy %12.0f ns   pooled %12.0f ns   speedup %5.2fx\n",
              name.c_str(), shape.c_str(), s, v, s / v);
}

// ---------------------------------------------------------------------------
// Legacy twins.  These reproduce the pre-pool transport algorithms out of
// public point-to-point primitives: sends copy out of caller storage, a
// typed receive lands in a fresh byte vector and is then memcpy'd into a
// fresh typed vector (the old double copy), and every collective
// materializes intermediate vectors instead of forwarding pooled blocks.

constexpr int kTag = 7;

template <typename T>
std::vector<T> legacy_recv(pm::Comm& comm, int source) {
  const std::vector<std::byte> bytes = comm.recv_bytes(source, kTag);
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

template <typename T>
void legacy_send(pm::Comm& comm, int dest, const std::vector<T>& data) {
  comm.send<T>(dest, kTag, std::span<const T>{data});
}

/// Binomial broadcast from rank 0, allocating a fresh vector per hop.
template <typename T>
void legacy_broadcast0(pm::Comm& comm, std::vector<T>& data) {
  const int p = comm.size();
  const int me = comm.rank();
  int high = 0;
  if (me != 0) {
    high = 1;
    while (high * 2 <= me) high *= 2;
    data = legacy_recv<T>(comm, me - high);
  }
  for (int d = (high == 0 ? 1 : high * 2); me + d < p; d *= 2) {
    legacy_send<T>(comm, me + d, data);
  }
}

/// Binomial reduce-to-0 + broadcast, every step through fresh vectors.
template <typename T, typename Op>
std::vector<T> legacy_allreduce(pm::Comm& comm, const std::vector<T>& local, Op op) {
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<T> acc = local;
  for (int dist = 1; dist < p; dist *= 2) {
    if (me % (2 * dist) == 0) {
      if (me + dist < p) {
        const std::vector<T> part = legacy_recv<T>(comm, me + dist);
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], part[i]);
      }
    } else {
      legacy_send<T>(comm, me - dist, acc);
      break;
    }
  }
  legacy_broadcast0<T>(comm, acc);
  return acc;
}

/// Ring allgather that stores every block as its own vector, re-sending
/// (re-copying) the forwarded block each step, then concatenates.
template <typename T>
std::vector<T> legacy_allgather(pm::Comm& comm, const std::vector<T>& local) {
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
  blocks[static_cast<std::size_t>(me)] = local;
  const int right = (me + 1) % p;
  const int left = (me + p - 1) % p;
  for (int s = 0; s + 1 < p; ++s) {
    const auto send_b = static_cast<std::size_t>(((me - s) % p + p) % p);
    const auto recv_b = static_cast<std::size_t>(((me - s - 1) % p + p) % p);
    legacy_send<T>(comm, right, blocks[send_b]);
    blocks[recv_b] = legacy_recv<T>(comm, left);
  }
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.size();
  std::vector<T> all;
  all.reserve(total);
  for (const auto& b : blocks) all.insert(all.end(), b.begin(), b.end());
  return all;
}

/// Personalized exchange that copies the self bucket and sends copies of
/// every outgoing bucket.
template <typename T>
std::vector<std::vector<T>> legacy_alltoall(pm::Comm& comm,
                                            const std::vector<std::vector<T>>& sendbufs) {
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<std::vector<T>> recvbufs(static_cast<std::size_t>(p));
  recvbufs[static_cast<std::size_t>(me)] = sendbufs[static_cast<std::size_t>(me)];
  for (int off = 1; off < p; ++off) {
    const int dest = (me + off) % p;
    legacy_send<T>(comm, dest, sendbufs[static_cast<std::size_t>(dest)]);
  }
  for (int off = 1; off < p; ++off) {
    const int src = (me + p - off) % p;
    recvbufs[static_cast<std::size_t>(src)] = legacy_recv<T>(comm, src);
  }
  return recvbufs;
}

// ---------------------------------------------------------------------------
// Workloads.

void bench_allreduce(int ranks, std::size_t n, int rounds, int reps) {
  const std::string shape =
      "p=" + std::to_string(ranks) + " n=" + std::to_string(n) + " f64 rounds=" + std::to_string(rounds);
  const auto items = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(rounds);
  bench(
      "allreduce_p" + std::to_string(ranks), shape, items, reps,
      [&] {
        run_world(ranks, [n, rounds](pm::Comm& comm) {
          std::vector<double> data(n, 1.0 + 1e-9 * comm.rank());
          for (int r = 0; r < rounds; ++r) {
            data = legacy_allreduce<double>(comm, data, std::plus<>{});
            for (double& x : data) x = x * 1e-3 + 1.0;  // keep magnitudes O(1)
          }
          if (comm.rank() == 0) g_sink += data[0];
        });
      },
      [&] {
        run_world(ranks, [n, rounds](pm::Comm& comm) {
          std::vector<double> data(n, 1.0 + 1e-9 * comm.rank());
          for (int r = 0; r < rounds; ++r) {
            comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
            for (double& x : data) x = x * 1e-3 + 1.0;
          }
          if (comm.rank() == 0) g_sink += data[0];
        });
      });
}

void bench_allgather(int ranks, std::size_t block, int rounds, int reps) {
  const std::string shape = "p=" + std::to_string(ranks) + " block=" + std::to_string(block) +
                            " i64 rounds=" + std::to_string(rounds);
  const auto items =
      static_cast<std::uint64_t>(block) * static_cast<std::uint64_t>(ranks) * rounds;
  bench(
      "allgather_p" + std::to_string(ranks), shape, items, reps,
      [&] {
        run_world(ranks, [block, rounds](pm::Comm& comm) {
          const std::vector<std::int64_t> local(block, comm.rank());
          for (int r = 0; r < rounds; ++r) {
            const auto all = legacy_allgather<std::int64_t>(comm, local);
            g_sink += static_cast<double>(all.back());
          }
        });
      },
      [&] {
        run_world(ranks, [block, rounds](pm::Comm& comm) {
          const std::vector<std::int64_t> local(block, comm.rank());
          std::vector<std::int64_t> all(block * static_cast<std::size_t>(comm.size()));
          for (int r = 0; r < rounds; ++r) {
            comm.allgather_into<std::int64_t>(local, std::span<std::int64_t>{all});
            g_sink += static_cast<double>(all.back());
          }
        });
      });
}

void bench_alltoall(int ranks, std::size_t bucket, int rounds, int reps) {
  const std::string shape = "p=" + std::to_string(ranks) + " bucket=" + std::to_string(bucket) +
                            " i64 rounds=" + std::to_string(rounds);
  const auto items =
      static_cast<std::uint64_t>(bucket) * static_cast<std::uint64_t>(ranks) * rounds;
  // Both twins rebuild the send buckets every round — the shuffle usage
  // pattern, and required anyway on the new path because the rvalue
  // overload consumes them.
  const auto fill = [bucket](pm::Comm& comm) {
    std::vector<std::vector<std::int64_t>> sendbufs(static_cast<std::size_t>(comm.size()));
    for (auto& b : sendbufs) b.assign(bucket, comm.rank());
    return sendbufs;
  };
  bench(
      "alltoall_p" + std::to_string(ranks), shape, items, reps,
      [&] {
        run_world(ranks, [rounds, fill](pm::Comm& comm) {
          for (int r = 0; r < rounds; ++r) {
            auto sendbufs = fill(comm);
            const auto recvbufs = legacy_alltoall<std::int64_t>(comm, sendbufs);
            g_sink += static_cast<double>(recvbufs.back().back());
          }
        });
      },
      [&] {
        run_world(ranks, [rounds, fill](pm::Comm& comm) {
          for (int r = 0; r < rounds; ++r) {
            auto sendbufs = fill(comm);
            const auto recvbufs = comm.alltoall(std::move(sendbufs));
            g_sink += static_cast<double>(recvbufs.back().back());
          }
        });
      });
}

/// The MapReduce shuffle exchange in isolation: partition key/value
/// records by destination, serialize per destination, alltoall the byte
/// buffers, deserialize.  The legacy twin copies the serialized buffers
/// into the transport and double-copies them out; the shipped path moves
/// them end to end (serialized exactly once).
void bench_shuffle(int ranks, std::size_t pairs, std::size_t value_bytes, int rounds, int reps) {
  const std::string shape = "p=" + std::to_string(ranks) + " pairs=" + std::to_string(pairs) +
                            " val=" + std::to_string(value_bytes) +
                            "B rounds=" + std::to_string(rounds);
  const auto items =
      static_cast<std::uint64_t>(pairs) * static_cast<std::uint64_t>(ranks) * rounds;

  const auto make_pairs = [pairs, value_bytes](int rank) {
    std::vector<mr::KeyValue> kvs(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      kvs[i].key = "key" + std::to_string((static_cast<std::size_t>(rank) * 131 + i * 7) % 997);
      kvs[i].value.assign(value_bytes, static_cast<char>('a' + i % 26));
    }
    return kvs;
  };
  // Partition + serialize, one byte buffer per destination rank.
  const auto serialize_buckets = [](const std::vector<mr::KeyValue>& kvs, int p) {
    std::vector<std::vector<mr::KeyValue>> parts(static_cast<std::size_t>(p));
    for (const auto& kv : kvs) {
      parts[std::hash<std::string>{}(kv.key) % static_cast<std::size_t>(p)].push_back(kv);
    }
    std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(p));
    for (std::size_t r = 0; r < parts.size(); ++r) bufs[r] = mr::serialize_pairs(parts[r]);
    return bufs;
  };
  const auto consume = [](const std::vector<std::vector<std::byte>>& recvbufs) {
    std::size_t got = 0;
    for (const auto& buf : recvbufs) got += mr::deserialize_pairs(buf).size();
    return got;
  };

  bench(
      "mr_shuffle_p" + std::to_string(ranks), shape, items, reps,
      [&] {
        run_world(ranks, [&](pm::Comm& comm) {
          const auto kvs = make_pairs(comm.rank());
          for (int r = 0; r < rounds; ++r) {
            auto sendbufs = serialize_buckets(kvs, comm.size());
            const auto recvbufs = legacy_alltoall<std::byte>(comm, sendbufs);
            g_sink += static_cast<double>(consume(recvbufs));
          }
        });
      },
      [&] {
        run_world(ranks, [&](pm::Comm& comm) {
          const auto kvs = make_pairs(comm.rank());
          for (int r = 0; r < rounds; ++r) {
            auto sendbufs = serialize_buckets(kvs, comm.size());
            const auto recvbufs = comm.alltoall(std::move(sendbufs));
            g_sink += static_cast<double>(consume(recvbufs));
          }
        });
      });
}

void run_all(bool tiny) {
  const int reps = tiny ? 1 : 7;
  const int rounds = tiny ? 1 : 20;
  for (const int p : {2, 4, 8}) {
    bench_allreduce(p, tiny ? 64 : 16384, rounds, reps);
  }
  for (const int p : {2, 4, 8}) {
    bench_allgather(p, tiny ? 64 : 16384, rounds, reps);
  }
  for (const int p : {2, 4, 8}) {
    bench_alltoall(p, tiny ? 64 : 8192, tiny ? 1 : 10, reps);
  }
  bench_shuffle(4, tiny ? 32 : 2000, tiny ? 8 : 256, tiny ? 1 : 5, reps);
}

void write_json(const std::string& path, bool tiny) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_substrates: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"peachy-bench/1\",\n");
  std::fprintf(f, "  \"harness\": \"bench_substrates\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", peachy::kernels::isa_name(peachy::kernels::active_isa()));
  std::fprintf(f, "  \"tiny\": %s,\n", tiny ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"items\": %llu, "
                 "\"scalar_ns\": %.1f, \"kernel_ns\": %.1f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), static_cast<unsigned long long>(r.items),
                 r.scalar_ns, r.kernel_ns, r.speedup,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu benchmarks)\n", path.c_str(), g_rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string out = "BENCH_substrates.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      try {
        g_transport = pm::parse_transport(argv[i] + 12);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_substrates: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_substrates [--tiny] [--out FILE]"
                   " [--transport=inproc|shm|socket]\n");
      return 2;
    }
  }
  std::printf("bench_substrates: legacy transport twins vs pooled zero-copy path%s"
              " (transport=%s)\n",
              tiny ? " (tiny smoke sizes)" : "", pm::transport_name(g_transport));
  run_all(tiny);
  write_json(out, tiny);
  std::printf("sink=%g\n", g_sink);
  return 0;
}
