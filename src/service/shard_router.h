// Shard router: the front end of the sharded image-formation service
// (DESIGN.md §11). Partitions each claimed job across the ranks of an
// in-process ShardCluster, dispatches job descriptors through the cluster
// mailbox layer, and gathers the partial tiles back into one image on a
// dedicated gather thread.
//
// Routing, one rule from the job's shape alone: a job over
// small_job_pixels whose region has b >= 2 ASR block bands (rows, else
// columns) is cut on block multiples from the region origin into
// k = min(shards, b) bands; any other job is one band. Band i goes to
// shard (home + i) mod shards, home hashing the tenant (round-robin by
// sequence for the empty tenant). plan_blocks anchors at the region
// origin and every cut lands on a block_h (block_w) multiple, so each
// band's plan blocks are the full-region plan's blocks; each rank replays
// its band as the local service would, and the gather copies the disjoint
// bands: every delivered image is the local service's bytes.
//
// Job lifecycle (job.h): dispatch() dequeues the job and resolves it
// kFailed if the split throws; each rank settles its part with a
// RunVerdict and replies the part's JobState; the gather merges the parts
// by severity and resolves the job.
//
// Gather protocol: for each part the router sends DispatchMsg{seq, part}
// to the owning shard (tag kTagShardJob; seq 0 is the shutdown sentinel)
// and enqueues the job on the gather queue. Shards process dispatches in
// FIFO order and reply on (shard -> front end, kTagShardReply) with a
// ReplyHeader + payload (tile bytes on kDone, error string otherwise);
// per-(source, tag) mailbox FIFO plus the gather thread draining jobs in
// dispatch order means the head reply from a shard always belongs to the
// oldest ungathered part on that shard, so the gather reads every part's
// reply even once the job has failed. Every dispatched part gets exactly
// one reply — a worker catches per-part exceptions and replies kFailed;
// an uncaught error kills the rank, aborts the cluster, and every blocked
// gather recv unwinds with ClusterAborted, failing the affected jobs
// instead of wedging their wait().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard.h"
#include "common/queue.h"
#include "common/region.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "service/job.h"
#include "service/plan_cache.h"

namespace sarbp::service {

struct ShardRouterConfig {
  /// Cluster width (>= 1). The service only builds a router for >= 2.
  int shards = 2;
  /// Tile-executor width inside each shard rank.
  int shard_workers = 1;
  bool steal = true;
  /// Jobs at most this many region pixels route whole to one shard.
  Index small_job_pixels = 64 * 64;
  /// Backlog bound of the gather queue (dispatched, not yet gathered).
  std::size_t gather_capacity = 64;
  /// Test hook shared with the single-node path: polled at every
  /// inter-block checkpoint on every shard.
  std::function<void()> inter_block_hook;
  /// Fault-injection hook: runs on the shard rank before it executes a
  /// dispatch. Throwing here is an *uncaught* rank error — the rank dies
  /// and the cluster aborts (the failure-model test seam).
  std::function<void(int shard, std::uint64_t seq)> shard_fault_hook;
  obs::Registry* metrics = nullptr;
  /// Shared formation-plan cache (the service's); must outlive the router.
  PlanCache* plan_cache = nullptr;
};

class ShardRouter {
 public:
  using JobPtr = std::shared_ptr<JobHandle>;

  explicit ShardRouter(ShardRouterConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] int shards() const { return config_.shards; }

  /// Claim-side of one job: dequeue, split, dispatch to the shards, and
  /// hand-off to the gather thread. Jobs that resolve without compute
  /// (cancelled while queued, deadline already passed, a split that
  /// throws) are resolved here. Single-threaded caller (the route loop).
  void dispatch(const JobPtr& job);

  /// Sends the shutdown sentinel to every shard, drains the gather
  /// backlog, and joins the gather thread and the rank pool. Idempotent;
  /// implied by the destructor. Callers must have stopped dispatching.
  void shutdown();

  [[nodiscard]] bool aborted() const { return cluster_.aborted(); }
  [[nodiscard]] std::string abort_reason() const {
    return cluster_.abort_reason();
  }

 private:
  /// Wire messages. Trivially copyable; moved through the cluster
  /// mailboxes with the typed send/recv wrappers.
  struct DispatchMsg {
    std::uint64_t seq = 0;  ///< 0 = shutdown sentinel
    std::int32_t part = 0;
    std::int32_t pad = 0;
  };
  struct ReplyHeader {
    std::uint64_t seq = 0;
    std::int32_t part = 0;
    JobState status = JobState::kFailed;  ///< the part's outcome
    std::int32_t cache_hit = 0;
    std::int32_t unkept = 0;  ///< the part's lookup was an unkept miss
    double compute_seconds = 0.0;
  };

  struct ShardPart {
    int shard = 0;
    Region region;  ///< one band of the job's region, or all of it
  };

  /// Everything the shard workers and the gather thread need for one
  /// dispatched job. Immutable after dispatch() publishes it.
  struct ShardJobCtx {
    std::uint64_t seq = 0;
    JobPtr job;
    Region region;
    std::vector<ShardPart> parts;
    JobStamps stamps;  ///< the queue wait
  };
  using CtxPtr = std::shared_ptr<ShardJobCtx>;

  void worker_loop(cluster::Communicator& comm);
  [[nodiscard]] std::vector<std::byte> run_part(exec::TileExecutor& exec,
                                                const ShardJobCtx& ctx,
                                                const DispatchMsg& msg);
  void gather_loop();
  void finish_job(const ShardJobCtx& ctx);

  /// Cuts the job into its bands (the routing rule above).
  void split_job(ShardJobCtx& ctx);
  [[nodiscard]] int pick_home_shard(const JobPtr& job,
                                    std::uint64_t seq) const;

  [[nodiscard]] CtxPtr find_ctx(std::uint64_t seq) const;

  ShardRouterConfig config_;
  obs::Registry* metrics_;

  mutable Mutex table_mutex_{SARBP_LOCK_LEVEL("service.shard_table")};
  std::map<std::uint64_t, CtxPtr> inflight_ SARBP_GUARDED_BY(table_mutex_);

  /// Dispatched jobs in dispatch order — what the gather thread drains.
  BoundedQueue<CtxPtr> gather_;
  std::uint64_t next_seq_ = 1;  ///< route-thread-only; 0 is the sentinel
  std::atomic<bool> shut_down_{false};

  obs::Counter* jobs_single_ = nullptr;
  obs::Counter* jobs_grid_split_ = nullptr;
  obs::Counter* parts_dispatched_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* compute_s_ = nullptr;
  obs::Histogram* gather_s_ = nullptr;

  /// Rank pool + gather thread last: their loops touch everything above.
  cluster::ShardCluster cluster_;
  std::thread gather_thread_;
};

}  // namespace sarbp::service
