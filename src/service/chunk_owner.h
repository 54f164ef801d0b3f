// Shared ownership of the bytes behind a queued stream chunk.
//
// A chunk admitted by AggregatorService outlives the call that handed it
// over: it waits on its server's ingestion queue until a worker absorbs
// it. Instead of copying each chunk into a buffer of its own, the service
// keeps a reference on whatever already owns the bytes — a socket
// front-end's receive slab, or the vector an in-process caller moved in —
// and drops it on the worker thread once the chunk is absorbed.
//
// ChunkOwner is an intrusive reference count; ChunkRef is the RAII handle.
// Counting is atomic, so references may be taken on one thread and
// dropped on another. The last drop calls Release() on the dropping
// thread: a pooled buffer returns itself to its pool, a one-off buffer
// deletes itself.

#ifndef LDPRANGE_SERVICE_CHUNK_OWNER_H_
#define LDPRANGE_SERVICE_CHUNK_OWNER_H_

#include <atomic>
#include <cstdint>
#include <utility>

namespace ldp::service {

class ChunkOwner {
 public:
  ChunkOwner(const ChunkOwner&) = delete;
  ChunkOwner& operator=(const ChunkOwner&) = delete;

  void Ref() const noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  void Unref() const noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const_cast<ChunkOwner*>(this)->Release();
    }
  }

  /// True when the caller's reference is the only one. Acquire ordering:
  /// every other holder's reads of the bytes happen before this returns
  /// true, so the caller may then rewrite them.
  bool unique() const noexcept {
    return refs_.load(std::memory_order_acquire) == 1;
  }

 protected:
  ChunkOwner() = default;
  virtual ~ChunkOwner() = default;

  /// Called once the last reference is gone, on the thread that dropped
  /// it. The count is back at zero, so a pooled owner may be handed out
  /// again.
  virtual void Release() noexcept = 0;

 private:
  mutable std::atomic<uint32_t> refs_{0};
};

/// Counted handle on a ChunkOwner; empty when default-constructed.
class ChunkRef {
 public:
  ChunkRef() = default;
  explicit ChunkRef(ChunkOwner* owner) noexcept : owner_(owner) {
    if (owner_ != nullptr) owner_->Ref();
  }
  ChunkRef(const ChunkRef& other) noexcept : ChunkRef(other.owner_) {}
  ChunkRef(ChunkRef&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)) {}
  ChunkRef& operator=(ChunkRef other) noexcept {
    std::swap(owner_, other.owner_);
    return *this;
  }
  ~ChunkRef() { reset(); }

  void reset() noexcept {
    if (owner_ != nullptr) std::exchange(owner_, nullptr)->Unref();
  }

  ChunkOwner* get() const noexcept { return owner_; }
  explicit operator bool() const noexcept { return owner_ != nullptr; }

 private:
  ChunkOwner* owner_ = nullptr;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_CHUNK_OWNER_H_
