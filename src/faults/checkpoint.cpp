/// \file checkpoint.cpp
/// \brief DurableCheckpointStore — the file-backed checkpoint backend
/// (checkpoint.hpp, DESIGN.md §17).
///
/// File format (little-endian, fixed):
///
///   u32 magic "PCK1"  u32 version  u64 next_step  u64 blob_bytes
///   [blob]  u32 crc32c(everything before the crc)
///
/// Writes go to a unique temp file in the same directory, fsync, then
/// rename over the destination — the only publication step is atomic, so
/// a reader (same process, another survivor, or a respawned rank) sees
/// either the previous complete snapshot or the new complete snapshot,
/// never a torn one.  A crash between write and rename leaves a stray
/// .tmp file that is never read.

#include "faults/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "faults/faults.hpp"
#include "kernels/crc32c.hpp"
#include "obs/obs.hpp"

namespace peachy::faults {

namespace {

constexpr std::uint32_t kCkptMagic = 0x504B4331;  // "PCK1"
constexpr std::uint32_t kCkptVersion = 1;

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void write_all(int fd, const std::byte* data, std::size_t n, const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      PEACHY_CHECK(false, "durable checkpoint: write to '" + path +
                              "' failed: " + std::strerror(err));
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Read a whole file; nullopt when it does not exist.  I/O errors other
/// than ENOENT are corruption-for-our-purposes (caller maps them).
std::optional<std::vector<std::byte>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw CheckpointCorruptError{"durable checkpoint: cannot open '" + path +
                                 "': " + std::strerror(errno)};
  }
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw CheckpointCorruptError{"durable checkpoint: read of '" + path +
                                   "' failed: " + std::strerror(err)};
    }
    if (r == 0) break;
    bytes.insert(bytes.end(), buf, buf + r);
  }
  ::close(fd);
  return bytes;
}

}  // namespace

DurableCheckpointStore::DurableCheckpointStore(std::string dir) : dir_{std::move(dir)} {
  PEACHY_CHECK(!dir_.empty(), "durable checkpoint: empty directory");
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    const int err = errno;
    PEACHY_CHECK(false,
                 "durable checkpoint: cannot create '" + dir_ + "': " + std::strerror(err));
  }
}

std::string DurableCheckpointStore::path_for(const std::string& key) const {
  // Keys name computations ("traffic"); keep them filesystem-safe without
  // surprising the caller: alnum . _ - pass through, anything else maps
  // to '_'.
  std::string name;
  name.reserve(key.size());
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    name.push_back(ok ? c : '_');
  }
  if (name.empty()) name.push_back('_');
  return dir_ + "/" + name + ".ckpt";
}

void DurableCheckpointStore::save(const std::string& key, Snapshot snap) {
  const std::string path = path_for(key);
  std::vector<std::byte> out;
  out.reserve(28 + snap.blob.size() + 4);
  put_u32(out, kCkptMagic);
  put_u32(out, kCkptVersion);
  put_u64(out, snap.next_step);
  put_u64(out, static_cast<std::uint64_t>(snap.blob.size()));
  out.insert(out.end(), snap.blob.begin(), snap.blob.end());
  put_u32(out, kernels::crc32c(0, out.data(), out.size()));

  // Unique temp name per process: concurrent savers (distinct ranks
  // pointed at one dir) never clobber each other's in-progress file, and
  // the rename decides who published last.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    const int err = errno;
    PEACHY_CHECK(false, "durable checkpoint: cannot create '" + tmp +
                            "': " + std::strerror(err));
  }
  write_all(fd, out.data(), out.size(), tmp);
  ::fsync(fd);  // the blob must hit stable storage before it is published
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    PEACHY_CHECK(false, "durable checkpoint: rename '" + tmp + "' -> '" + path +
                            "' failed: " + std::strerror(err));
  }
  if (obs::enabled()) obs::counter("faults.ckpt.saved").add(1);
}

std::optional<Snapshot> DurableCheckpointStore::load_strict(const std::string& key) const {
  const std::string path = path_for(key);
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;

  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
  constexpr std::size_t kCrcBytes = 4;
  if (bytes->size() < kHeaderBytes + kCrcBytes) {
    throw CheckpointCorruptError{"durable checkpoint '" + path + "' truncated (" +
                                 std::to_string(bytes->size()) + " bytes)"};
  }

  const auto get_u32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes->data() + off, sizeof v);
    return v;
  };
  const auto get_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes->data() + off, sizeof v);
    return v;
  };

  // CRC first: a bit flip anywhere (magic and version included) is
  // reported as corruption, not misdiagnosed from the damaged field.
  const std::size_t body = bytes->size() - kCrcBytes;
  const std::uint32_t want = get_u32(body);
  const std::uint32_t got = kernels::crc32c(0, bytes->data(), body);
  if (want != got) {
    throw CheckpointCorruptError{"durable checkpoint '" + path + "' failed CRC32C"};
  }
  if (get_u32(0) != kCkptMagic) {
    throw CheckpointCorruptError{"durable checkpoint '" + path + "' has bad magic"};
  }
  if (const std::uint32_t ver = get_u32(4); ver != kCkptVersion) {
    throw CheckpointCorruptError{"durable checkpoint '" + path + "' version mismatch: got " +
                                 std::to_string(ver) + ", this build reads " +
                                 std::to_string(kCkptVersion)};
  }
  const std::uint64_t blob_bytes = get_u64(16);
  if (blob_bytes != body - kHeaderBytes) {
    throw CheckpointCorruptError{"durable checkpoint '" + path +
                                 "' length field disagrees with file size"};
  }

  Snapshot snap;
  snap.next_step = get_u64(8);
  snap.blob.assign(bytes->begin() + static_cast<std::ptrdiff_t>(kHeaderBytes),
                   bytes->begin() + static_cast<std::ptrdiff_t>(body));
  return snap;
}

std::optional<Snapshot> DurableCheckpointStore::load(const std::string& key) const {
  try {
    return load_strict(key);
  } catch (const CheckpointCorruptError& e) {
    // Paranoid-load discipline: a damaged snapshot must never crash
    // recovery or restore garbage — warn, count, fresh start.
    std::cerr << "peachy: " << e.what() << " — ignoring it (fresh start)\n";
    if (obs::enabled()) obs::counter("faults.ckpt.corrupt").add(1);
    return std::nullopt;
  }
}

bool DurableCheckpointStore::has(const std::string& key) const {
  struct stat st {};
  return ::stat(path_for(key).c_str(), &st) == 0;
}

}  // namespace peachy::faults
