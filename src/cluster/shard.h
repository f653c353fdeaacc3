// Long-lived in-process rank pool: the cluster substrate of the sharded
// formation service (DESIGN.md §11).
//
// run_cluster() is one-shot — spawn, run a program, join. A serving front
// end instead needs ranks that outlive any single job: ShardCluster keeps
// `ranks` worker threads alive around a caller-supplied worker-loop
// program and adds one extra mailbox endpoint (id == ranks()) for the
// front end, so a router thread can send job descriptors into rank
// mailboxes and a gather thread can receive result tiles back through the
// source+tag-matched mailbox layer of comm.h.
//
// Failure model: an uncaught exception in any rank records the root cause
// and aborts the underlying Cluster — every peer (and the front end's
// blocked recv) unwinds with ClusterAborted instead of hanging, so a
// throwing shard fails jobs rather than wedging the service. The owner
// observes `aborted()`/`first_error()` and drains.
#pragma once

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/comm.h"
#include "common/thread_annotations.h"

namespace sarbp::cluster {

class ShardCluster {
 public:
  /// Worker-loop body, one call per rank thread. `comm.rank()` is the
  /// shard id in [0, ranks()); `comm.size()` is ranks() + 1 and endpoint
  /// ranks() is the front end. The program must return when it receives
  /// its shutdown message; throwing aborts the whole cluster.
  using Program = std::function<void(Communicator&)>;

  ShardCluster(int ranks, Program program);
  ~ShardCluster();

  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  [[nodiscard]] int ranks() const { return ranks_; }
  /// Mailbox endpoint id of the front end (== ranks()).
  [[nodiscard]] int frontend_id() const { return ranks_; }

  /// The front end's communicator. Mailbox operations are internally
  /// locked, so one thread may send (router) while another receives
  /// (gather); the endpoint itself holds no mutable state.
  [[nodiscard]] Communicator& frontend() { return frontend_; }

  /// Manually poisons the cluster (drain fallback; tests).
  void abort(const std::string& why) { cluster_.abort(why); }
  [[nodiscard]] bool aborted() const { return cluster_.aborted(); }
  [[nodiscard]] std::string abort_reason() const {
    return cluster_.abort_reason();
  }

  /// First uncaught rank error message, empty when none (secondary
  /// ClusterAborted unwinds are not recorded).
  [[nodiscard]] std::string first_error() const;

  /// Joins the rank threads. The caller must already have unblocked every
  /// rank (shutdown messages, or an abort). Idempotent; implied by the
  /// destructor (which aborts first if ranks could still be blocked).
  void join();

 private:
  void record_error(const std::string& message);

  const int ranks_;
  Cluster cluster_;        // ranks_ + 1 endpoints; last one is the front end
  Communicator frontend_;
  std::vector<std::thread> threads_;

  mutable Mutex error_mutex_{SARBP_LOCK_LEVEL("cluster.shard_error")};
  std::string first_error_ SARBP_GUARDED_BY(error_mutex_);
  bool joined_ SARBP_GUARDED_BY(error_mutex_) = false;
};

}  // namespace sarbp::cluster
