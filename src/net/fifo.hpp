#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace xmp::net {

/// Node storage for the packet FIFOs of one shard: fixed-size nodes carved
/// from fixed-size chunks, recycled through a free list.
///
/// A freed node is reused before a new one is carved, so the nodes a pool
/// ever carved are the peak of its live nodes, not the sum of every FIFO's
/// own peak: a packet dequeued from an egress queue frees the node its
/// in-flight entry takes next. Chunks are allocated on demand and never
/// written ahead of the carving point, so untouched pages stay unmapped.
///
/// Not thread-safe: every FIFO on a pool is pushed and popped by the one
/// shard that owns it (DESIGN.md §6 "Memory layout"). Cache-line aligned
/// like sim::Scheduler, since different workers write different shards'
/// pools on every packet.
class alignas(64) FifoPool {
 public:
  /// The largest node any FIFO stores: a link's in-flight entry (a packet
  /// and its delivery key) behind the FIFO's next pointer.
  static constexpr std::size_t kNodeBytes = sizeof(void*) + sizeof(Packet) + 16;
  static constexpr std::size_t kChunkNodes = 744;  ///< just under 64 KiB a chunk

  FifoPool() = default;
  FifoPool(const FifoPool&) = delete;
  FifoPool& operator=(const FifoPool&) = delete;

  [[nodiscard]] void* take() {
    if (free_ != nullptr) {
      Free* n = free_;
      free_ = n->next;
      return n;
    }
    if (carve_ == carve_end_) new_chunk();
    void* n = carve_;
    carve_ += kNodeBytes;
    return n;
  }

  void give(void* node) {
    auto* n = static_cast<Free*>(node);
    n->next = free_;
    free_ = n;
  }

  /// Nodes carved so far: the most that were ever live at once.
  [[nodiscard]] std::size_t high_water() const {
    return chunks_.size() * kChunkNodes -
           static_cast<std::size_t>(carve_end_ - carve_) / kNodeBytes;
  }

 private:
  struct Free {
    Free* next;
  };

  void new_chunk() {
    // Default-initialized bytes: the allocator's pages are left untouched.
    chunks_.emplace_back(new std::byte[kChunkNodes * kNodeBytes]);
    carve_ = chunks_.back().get();
    carve_end_ = carve_ + kChunkNodes * kNodeBytes;
  }

  Free* free_ = nullptr;
  std::byte* carve_ = nullptr;
  std::byte* carve_end_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

/// `pool`, or else a private pool created into `own`: the fallback of queues
/// and links built outside a Network (unit tests, micro-benches).
inline FifoPool& pool_or_own(FifoPool* pool, std::unique_ptr<FifoPool>& own) {
  if (pool != nullptr) return *pool;
  if (own == nullptr) own = std::make_unique<FifoPool>();
  return *own;
}

/// Singly linked FIFO whose nodes come from a FifoPool. Its pool must
/// outlive it, and only the thread that owns the pool may push or pop.
/// Holds no storage of its own: an empty FIFO costs its four words.
template <class T>
class Fifo {
  struct Node {
    Node* next;
    T value;
  };
  static_assert(sizeof(Node) <= FifoPool::kNodeBytes, "node does not fit the pool");
  static_assert(FifoPool::kNodeBytes % alignof(Node) == 0 &&
                alignof(Node) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  explicit Fifo(FifoPool& pool) : pool_{&pool} {}
  ~Fifo() { clear(); }

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  /// Move an empty FIFO onto another pool (a boundary link's arrivals live
  /// on the destination shard's).
  void set_pool(FifoPool& pool) {
    assert(empty());
    pool_ = &pool;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T& front() { return head_->value; }
  [[nodiscard]] const T& front() const { return head_->value; }
  [[nodiscard]] const T& back() const {
    assert(size_ > 0);
    return tail_->value;
  }

  void push_back(T&& v) {
    Node* n = ::new (pool_->take()) Node{nullptr, std::move(v)};
    // tail_ is stale while the FIFO is empty; size_ says so.
    (size_ == 0 ? head_ : tail_->next) = n;
    tail_ = n;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    Node* n = head_;
    head_ = n->next;
    --size_;
    pool_->give(n);
  }

  /// Empty the FIFO, returning its nodes to the pool.
  void clear() {
    while (head_ != nullptr) {
      Node* n = head_;
      head_ = n->next;
      pool_->give(n);
    }
    size_ = 0;
  }

  /// Front-to-back iteration (read-only).
  class const_iterator {
   public:
    explicit const_iterator(const Node* n) : n_{n} {}
    const T& operator*() const { return n_->value; }
    const_iterator& operator++() {
      n_ = n_->next;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return n_ != o.n_; }

   private:
    const Node* n_;
  };
  [[nodiscard]] const_iterator begin() const { return const_iterator{head_}; }
  [[nodiscard]] const_iterator end() const { return const_iterator{nullptr}; }

 private:
  FifoPool* pool_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace xmp::net
