// In-process message-passing substrate (DESIGN.md §2 substitution for MPI).
//
// A "cluster" is a set of ranks executed as threads in one process; each
// rank holds a Communicator with MPI-like point-to-point (send/recv with
// source + tag matching), a barrier, and typed convenience wrappers. The
// paper's rank level runs on top of this: the sharded formation service
// dispatches image bands to long-lived ranks and gathers their tiles
// (ShardCluster, shard.h; service/shard_router.h), and the halo exchange
// (halo.h) trades boundary strips. Wire time is modeled separately
// (torus_model.h) exactly as the paper's own Table 5 projection does.
//
// Failure model: a rank that throws aborts the whole cluster. The abort
// flag wakes every peer blocked in recv() or barrier() with a
// ClusterAborted exception instead of leaving them wedged on a mailbox
// that will never be filled — the MPI_Abort analogue. run_cluster (and
// the ShardCluster service substrate, shard.h) rethrows the root-cause
// exception, not the secondary ClusterAborted unwinds it triggered.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace sarbp::cluster {

class Cluster;
class ShardCluster;

/// Thrown out of recv()/barrier() when the cluster was aborted (a peer
/// rank died, or an owner called Cluster::abort). Catching it inside a
/// rank program is almost always wrong: the cluster is already poisoned,
/// and the root cause is what the caller of run_cluster sees.
class ClusterAborted : public std::runtime_error {
 public:
  explicit ClusterAborted(const std::string& why) : std::runtime_error(why) {}
};

/// Shared state of one cluster: a mailbox per endpoint, an abortable
/// barrier over all endpoints, and the abort latch. Exposed (rather than
/// hidden in comm.cpp) so long-lived owners like ShardCluster can build on
/// the same mailboxes; rank programs only ever see Communicator.
class Cluster {
 public:
  explicit Cluster(int endpoints);

  void deliver(int dest, int source, int tag, std::vector<std::byte> payload);

  /// Blocks until a message keyed (source, tag) reaches `dest`'s mailbox.
  /// Messages already delivered are handed out even after an abort (the
  /// drain case); an empty mailbox plus the abort flag throws
  /// ClusterAborted — the fix for the rank-failure hang.
  std::vector<std::byte> take(int dest, int source, int tag);

  /// Barrier over all endpoints. Throws ClusterAborted for every waiter
  /// (and every later arrival) once the cluster is aborted.
  void wait_barrier();

  /// Poisons the cluster: wakes every blocked take()/wait_barrier() with
  /// ClusterAborted. The first caller's `why` becomes the recorded reason;
  /// later calls are no-ops. Safe from any thread.
  void abort(const std::string& why);

  [[nodiscard]] bool aborted() const {
    // order: acquire — pairs with abort()'s release store; an observer of
    // the flag also observes the reason written before it.
    return aborted_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::string abort_reason() const;

 private:
  struct Mailbox {
    // Acquired before reason_mutex_ (take() throws aborted_error() under
    // the box lock). Nested-struct scope cannot name the outer member in
    // SARBP_ACQUIRED_BEFORE; the edge lives in tools/lock_hierarchy.py
    // and the runtime detector instead.
    Mutex mutex{SARBP_LOCK_LEVEL("cluster.mailbox")};
    CondVar cv;
    std::map<std::pair<int, int>, std::deque<std::vector<std::byte>>> messages
        SARBP_GUARDED_BY(mutex);
  };

  [[nodiscard]] ClusterAborted aborted_error() const;

  std::vector<Mailbox> boxes_;

  // Abortable generation-counting barrier (std::barrier cannot be woken
  // early, which is exactly the hang this replaces).
  Mutex barrier_mutex_ SARBP_ACQUIRED_BEFORE(reason_mutex_){
      SARBP_LOCK_LEVEL("cluster.barrier")};
  CondVar barrier_cv_;
  int barrier_arrived_ SARBP_GUARDED_BY(barrier_mutex_) = 0;
  std::uint64_t barrier_gen_ SARBP_GUARDED_BY(barrier_mutex_) = 0;
  const int barrier_width_;

  std::atomic<bool> aborted_{false};
  // Innermost cluster level: wait_barrier()/take() throw aborted_error()
  // (which reads the reason) while still holding their own locks.
  mutable Mutex reason_mutex_ SARBP_ACQUIRED_AFTER(barrier_mutex_){
      SARBP_LOCK_LEVEL("cluster.reason")};
  std::string abort_reason_ SARBP_GUARDED_BY(reason_mutex_);
};

/// Per-rank endpoint. Valid only while its Cluster is alive (inside
/// run_cluster's program callback, or for a ShardCluster's lifetime).
class Communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }

  /// Point-to-point, non-blocking enqueue (buffered send).
  void send(int dest, int tag, std::vector<std::byte> payload);

  /// Blocks until a message from `source` with `tag` arrives. Throws
  /// ClusterAborted once the cluster is aborted and the mailbox is empty.
  std::vector<std::byte> recv(int source, int tag);

  /// Synchronizes every rank of the cluster.
  void barrier();

  /// Typed wrappers for trivially copyable element types.
  template <class T>
  void send_vec(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(values.size_bytes());
    if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
    send(dest, tag, std::move(bytes));
  }

  template <class T>
  std::vector<T> recv_vec(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> bytes = recv(source, tag);
    ensure(bytes.size() % sizeof(T) == 0, "recv_vec: payload size mismatch");
    std::vector<T> values(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }

  template <class T>
  void send_value(int dest, int tag, const T& value) {
    send_vec<T>(dest, tag, std::span<const T>(&value, 1));
  }

  template <class T>
  T recv_value(int source, int tag) {
    const auto v = recv_vec<T>(source, tag);
    ensure(v.size() == 1, "recv_value: expected exactly one element");
    return v[0];
  }

 private:
  friend class Cluster;
  friend class ShardCluster;
  friend void run_cluster(int, const std::function<void(Communicator&)>&);
  Communicator(Cluster& cluster, int rank, int size)
      : cluster_(&cluster), rank_(rank), size_(size) {}

  Cluster* cluster_;
  int rank_;
  int size_;
};

/// Runs `program` on `ranks` ranks (one thread each) and joins them. A
/// throwing rank aborts the cluster — peers blocked in recv()/barrier()
/// unwind with ClusterAborted instead of hanging — and the root-cause
/// exception (the first non-ClusterAborted one) is rethrown after join.
void run_cluster(int ranks, const std::function<void(Communicator&)>& program);

}  // namespace sarbp::cluster
