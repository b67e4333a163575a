#ifndef EHNA_NN_ARENA_H_
#define EHNA_NN_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ehna {

/// Bump allocator for tensor buffers (DESIGN.md §9). One forward/backward
/// pass over an autodiff tape allocates hundreds of short-lived float
/// buffers (op outputs, backward temporaries, accumulated gradients) whose
/// lifetimes all end together when the batch's graph is dropped. A
/// TensorArena turns each of those heap round-trips into a pointer bump:
/// Tensor buffer allocations made while an arena is active on the calling
/// thread (see Scope) are carved out of large reusable blocks, their
/// destructors are no-ops, and Reset() reclaims everything at once at the
/// batch boundary.
///
/// Lifetime rules (violations are use-after-reset bugs):
///  - An arena may be *active* on at most one thread at a time, but it may
///    be handed off between threads across batches: the data-parallel
///    trainer activates a worker's arena on whichever pool thread runs the
///    shard. Every handoff must be ordered by a synchronization edge (the
///    pool's task queue and its Wait); Scope itself enforces the
///    single-thread-at-a-time rule with a cheap owner check.
///  - Reset() must only run when no Scope for this arena is live and every
///    arena-backed tensor from the previous cycle is either destroyed or
///    will never be read again. The trainer resets at the end of a batch,
///    after the optimizer has consumed the gradients.
///  - State that must outlive the batch (embedding gradient sinks, Adam
///    moments, BatchNorm running statistics) must not land in the arena;
///    escape sites either allocate under a Bypass guard or copy-assign
///    into an existing same-sized heap buffer (which Tensor reuses).
class TensorArena {
 public:
  /// `initial_bytes` sizes the first block; later blocks double.
  explicit TensorArena(size_t initial_bytes = size_t{1} << 20);
  ~TensorArena();

  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Bump-allocates a 64-byte-aligned buffer of `n` floats. Grows by
  /// appending a new block (>= max(2x previous, n floats)) when the
  /// current block is exhausted.
  float* Allocate(int64_t n);

  /// Rewinds every block to empty, retaining the memory for the next
  /// cycle. Checks that no Scope for this arena is live — resetting under
  /// an active tape is the use-after-reset class of bug. See the lifetime
  /// rules above.
  void Reset();

  /// Bytes handed out since the last Reset().
  size_t bytes_in_use() const { return bytes_in_use_; }
  /// Largest bytes_in_use() ever observed (capacity sizing signal).
  size_t high_water_bytes() const { return high_water_bytes_; }
  /// Total bytes of owned blocks.
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// The arena active on the calling thread, or nullptr.
  static TensorArena* Current();

  /// RAII activation: makes `arena` the calling thread's current arena for
  /// the scope's lifetime (restoring the previous one on exit — scopes
  /// nest). Does NOT reset the arena; pairing activation with the reset
  /// point is the caller's job, because gradients routinely outlive the
  /// scope that allocated them (backward runs inside the scope, the
  /// optimizer step after it).
  class Scope {
   public:
    explicit Scope(TensorArena* arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TensorArena* arena_;
    TensorArena* prev_;
  };

  /// RAII deactivation: forces heap allocation within the guard, restoring
  /// the previous arena on exit. Used at escape sites that create tensors
  /// which must survive past the batch (e.g. the embedding layer's sparse
  /// gradient accumulators, created inside backward closures).
  class Bypass {
   public:
    Bypass();
    ~Bypass();
    Bypass(const Bypass&) = delete;
    Bypass& operator=(const Bypass&) = delete;

   private:
    TensorArena* prev_;
  };

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  /// Appends a block able to hold at least `min_bytes`.
  Block& AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // index of the block being bumped
  size_t next_block_bytes_;
  size_t bytes_in_use_ = 0;
  size_t high_water_bytes_ = 0;
  size_t bytes_reserved_ = 0;

  /// Live Scope count and the (hashed) id of the owning thread while any
  /// scope is active. Relaxed atomics: these back best-effort concurrency
  /// checks (Scope activation from a second thread, Reset under a live
  /// scope), not synchronization — the thread pool provides that.
  std::atomic<int> live_scopes_{0};
  std::atomic<uint64_t> owner_thread_{0};
};

}  // namespace ehna

#endif  // EHNA_NN_ARENA_H_
