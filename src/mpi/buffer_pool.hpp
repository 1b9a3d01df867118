#pragma once
/// \file buffer_pool.hpp
/// \brief Pooled, refcounted payload buffers for the mini-MPI transport.
///
/// Every message the mini-MPI moves needs backing storage that outlives
/// the sender's stack frame.  The original transport heap-allocated a
/// fresh `std::vector<std::byte>` per `post` — an allocation *and* a copy
/// on the hottest path in the system.  This module replaces that with two
/// zero-allocation-in-steady-state mechanisms:
///
///   * **Pooled slabs.**  `BufferPool::acquire(n)` hands out a
///     `PayloadBuffer` backed by a size-classed slab (power-of-two
///     classes, per-class freelists).  When the last reference drops, the
///     slab returns to its freelist, so after warm-up `post` performs one
///     memcpy and zero allocations.  The refcount lives in a header
///     *inside* the slab allocation, so a message costs no side
///     allocations either.
///
///   * **Adopted containers.**  `BufferPool::adopt(vector&&)` wraps a
///     caller-owned vector without copying its bytes — the zero-copy
///     `post_move` path for large sends (collective internals, typed
///     sends of owned vectors).  A byte-vector adopted uniquely can be
///     stolen back out on the receive side (`release_bytes`), making a
///     moved send end-to-end copy-free.
///
/// `PayloadBuffer` is a move-only handle; `share()` bumps the refcount so
/// collectives can forward one payload to several destinations (binomial
/// broadcast, ring allgather) without re-serializing.  Payload storage is
/// aligned to `alignof(std::max_align_t)`, so receivers may read it
/// through a `const T*` for any trivially copyable `T` (the in-place
/// reduction path does exactly that).
///
/// The pool is a process-lifetime singleton (like the obs registries):
/// buffers survive across `Machine` lifetimes, which is what makes
/// repeated short runs — the shape of every experiment harness —
/// allocation-free after the first.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace peachy::mpi {

class BufferPool;

namespace pool_detail {

/// Header embedded at the front of every pooled slab allocation.  The
/// payload starts `kHeaderSize` bytes in, keeping max_align_t alignment.
struct SlabHeader {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t size_class = 0;       ///< freelist index, or kUnpooledClass
  std::size_t capacity = 0;           ///< payload capacity in bytes
  SlabHeader* next = nullptr;         ///< freelist link (valid only when parked)
};

inline constexpr std::size_t kHeaderSize =
    (sizeof(SlabHeader) + alignof(std::max_align_t) - 1) /
    alignof(std::max_align_t) * alignof(std::max_align_t);

[[nodiscard]] inline std::byte* slab_payload(SlabHeader* h) noexcept {
  return reinterpret_cast<std::byte*>(h) + kHeaderSize;
}

/// Refcounted wrapper around an adopted (moved-in) container.  Type-erased
/// so typed vectors can ride the zero-copy path; `as_bytes` is non-null
/// only for `std::vector<std::byte>`, enabling the receive-side steal.
struct OwnerNode {
  std::atomic<std::uint32_t> refs{1};
  void* obj = nullptr;
  void (*destroy)(void*) = nullptr;
  std::vector<std::byte>* as_bytes = nullptr;
};

}  // namespace pool_detail

/// Aggregate pool counters (monotonic except `live` / `free_bytes`).
struct PoolStats {
  std::uint64_t acquires = 0;    ///< total acquire() calls
  std::uint64_t hits = 0;        ///< served from a freelist
  std::uint64_t misses = 0;      ///< new slab allocated
  std::uint64_t adopted = 0;     ///< total adopt() calls (moved payloads)
  std::uint64_t live = 0;        ///< pooled slabs currently checked out
  std::uint64_t free_bytes = 0;  ///< payload bytes parked on freelists
};

/// Move-only refcounted handle to message payload storage (pooled slab or
/// adopted container).  Never throws; an empty handle has size() == 0.
class PayloadBuffer {
 public:
  PayloadBuffer() noexcept = default;
  ~PayloadBuffer() { reset(); }

  PayloadBuffer(PayloadBuffer&& o) noexcept
      : slab_{o.slab_}, owner_{o.owner_}, data_{o.data_}, size_{o.size_} {
    o.slab_ = nullptr;
    o.owner_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  PayloadBuffer& operator=(PayloadBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      slab_ = o.slab_;
      owner_ = o.owner_;
      data_ = o.data_;
      size_ = o.size_;
      o.slab_ = nullptr;
      o.owner_ = nullptr;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;

  /// Another handle to the same bytes (refcount bump, no copy).  The
  /// payload must be treated as immutable once shared.
  [[nodiscard]] PayloadBuffer share() const noexcept;

  /// Drop this handle's reference; on the last drop the slab returns to
  /// its freelist (or the adopted container is destroyed).
  void reset() noexcept;

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  /// Writable view — only valid before the buffer is posted/shared.
  [[nodiscard]] std::byte* mutable_data() noexcept { return const_cast<std::byte*>(data_); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<const std::byte> span() const noexcept { return {data_, size_}; }

  /// The payload as a byte vector.  Zero-copy when this is the only
  /// reference to a byte-vector adopted via `adopt`; otherwise one copy.
  [[nodiscard]] std::vector<std::byte> release_bytes() noexcept;

 private:
  friend class BufferPool;
  pool_detail::SlabHeader* slab_ = nullptr;   ///< pooled storage, or
  pool_detail::OwnerNode* owner_ = nullptr;   ///< adopted storage
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The process-wide size-classed slab pool.
class BufferPool {
 public:
  /// Singleton accessor (leaked; never destroyed, so rank threads may
  /// release buffers at any point of process teardown).
  [[nodiscard]] static BufferPool& instance();

  /// A writable buffer of exactly `bytes` payload bytes (uninitialized).
  [[nodiscard]] PayloadBuffer acquire(std::size_t bytes);

  /// Wrap a byte vector without copying (the post_move fast path).
  [[nodiscard]] PayloadBuffer adopt(std::vector<std::byte>&& v);

  /// Wrap a typed vector without copying; `T` must be trivially copyable.
  template <typename T>
  [[nodiscard]] PayloadBuffer adopt_typed(std::vector<T>&& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto* heap = new std::vector<T>(std::move(v));
    return adopt_erased(
        heap, [](void* p) { delete static_cast<std::vector<T>*>(p); },
        reinterpret_cast<const std::byte*>(heap->data()), heap->size() * sizeof(T), nullptr);
  }

  [[nodiscard]] PoolStats stats() const noexcept;

  /// Free every parked slab (test isolation / memory pressure).
  void trim() noexcept;

 private:
  BufferPool();
  friend class PayloadBuffer;

  PayloadBuffer adopt_erased(void* obj, void (*destroy)(void*), const std::byte* data,
                             std::size_t size, std::vector<std::byte>* as_bytes);
  void release_slab(pool_detail::SlabHeader* h) noexcept;
  static void release_owner(pool_detail::OwnerNode* n) noexcept;

  struct Impl;
  Impl* impl_;  // leaked with the singleton
};

}  // namespace peachy::mpi
