/// \file bench_substrates.cpp
/// \brief Transport-substrate regression harness: times the shipped
/// pooled zero-copy mini-MPI collectives (allreduce, allgather, alltoall)
/// and the MapReduce-style shuffle exchange, and emits the results as
/// machine-readable JSON (schema "peachy-bench/1", same shape as
/// BENCH_kernels.json) so each PR has a perf trajectory to compare
/// against.  Each row times only the shipped path: `kernel_ns` is that
/// time, and, as in bench_transport's reference rows, `scalar_ns` repeats
/// it and `speedup` is 1.  scripts/bench_compare.py gates on `kernel_ns`.
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
/// thread spawn, dominates.  Results are accumulated into a printed sink.

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
  double ns;            // best-of-R wall time of one full run (all rounds)
};

std::vector<Row> g_rows;

/// Time the shipped path and record a row.
template <typename Fn>
void bench(const std::string& name, const std::string& shape, std::uint64_t items, int reps,
           Fn&& fn) {
  const double ns = ps::time_best_of(reps, fn) * 1e9;
  g_rows.push_back({name, shape, items, ns});
  std::printf("%-18s %-34s %12.0f ns\n", name.c_str(), shape.c_str(), ns);
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
  // The send buckets are rebuilt every round — the shuffle usage pattern,
  // and required anyway because the rvalue overload consumes them.
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
            const auto recvbufs = comm.alltoall(std::move(sendbufs));
            g_sink += static_cast<double>(recvbufs.back().back());
          }
        });
      });
}

/// The MapReduce shuffle exchange in isolation: partition key/value
/// records by destination, serialize per destination, alltoall the byte
/// buffers, deserialize.  The buffers move end to end (serialized
/// exactly once).
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
                 "\"scalar_ns\": %.1f, \"kernel_ns\": %.1f, \"speedup\": 1.000}%s\n",
                 r.name.c_str(), r.shape.c_str(), static_cast<unsigned long long>(r.items),
                 r.ns, r.ns, i + 1 < g_rows.size() ? "," : "");
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
  std::printf("bench_substrates: pooled zero-copy collectives%s (transport=%s)\n",
              tiny ? " (tiny smoke sizes)" : "", pm::transport_name(g_transport));
  run_all(tiny);
  write_json(out, tiny);
  std::printf("sink=%g\n", g_sink);
  return 0;
}
