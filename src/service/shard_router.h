// Shard router: the front end of the sharded image-formation service
// (DESIGN.md §11). Partitions each claimed job across `shards` long-lived
// rank threads, hands each rank its parts through a bounded inbox, and
// gathers the partial tiles back into one image on a dedicated gather
// thread.
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
// Rank channels (common/queue.h, the paper's §4.1 bounded queues): each
// rank has an inbox of {job, part} and a queue of typed replies, the
// band image moved in. A rank serves its inbox in order, and the gather
// thread resolves jobs in dispatch order, so the head of a rank's reply
// queue always belongs to the oldest ungathered part on that rank; the
// gather reads every part's reply even once the job has failed. A part
// that throws inside formation replies kFailed. An uncaught rank error
// records the first cause and closes every inbox: the ranks sweep what
// their inboxes still hold, then each closes its reply queue, and the
// gather reads a closed, empty reply queue as "shard cluster aborted:
// <cause>", failing the affected jobs instead of wedging their wait().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/grid2d.h"
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
  /// Rank count (>= 1). The service only builds a router for >= 2.
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
  /// Fault-injection hook: runs on the shard rank before it sweeps a part.
  /// Throwing here is an *uncaught* rank error — the rank dies and every
  /// inbox closes (the failure-model test seam).
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

  /// Claim-side of one job: dequeue, split, hand each part to its rank,
  /// and hand the job to the gather thread. Jobs that resolve without
  /// compute (cancelled while queued, deadline already passed, a split
  /// that throws) are resolved here. Single-threaded caller (the route
  /// loop).
  void dispatch(const JobPtr& job);

  /// Closes every inbox, drains the gather backlog, and joins the gather
  /// thread and the ranks. Idempotent; implied by the destructor. Callers
  /// must have stopped dispatching.
  void shutdown();

 private:
  struct ShardPart {
    int shard = 0;
    Region region;  ///< one band of the job's region, or all of it
  };

  /// Everything the ranks and the gather thread need for one dispatched
  /// job. Immutable after dispatch() hands it out.
  struct ShardJobCtx {
    std::uint64_t seq = 0;
    JobPtr job;
    Region region;
    std::vector<ShardPart> parts;
    JobStamps stamps;  ///< the queue wait
  };
  using CtxPtr = std::shared_ptr<ShardJobCtx>;

  /// One part of a dispatched job, in its rank's inbox.
  struct PartTask {
    CtxPtr ctx;
    std::size_t part = 0;
  };

  /// A rank's outcome for one part, in its reply queue.
  struct PartReply {
    std::size_t part = 0;
    JobState status = JobState::kFailed;  ///< settled by the part's RunVerdict
    double compute_seconds = 0.0;
    bool cache_hit = false;
    bool unkept = false;  ///< the part's lookup was an unkept miss
    Grid2D<CFloat> image{0, 0};  ///< the band, when status is kDone
    std::string error;           ///< why not, otherwise
  };

  /// One rank: its thread and its two channels to the router.
  struct Rank {
    explicit Rank(std::size_t capacity) : inbox(capacity), replies(capacity) {}
    BoundedQueue<PartTask> inbox;     ///< closed by shutdown() or abort()
    BoundedQueue<PartReply> replies;  ///< closed when the rank's loop ends
    std::thread thread;
  };

  void rank_loop(int shard);
  [[nodiscard]] PartReply run_part(exec::TileExecutor& exec,
                                   const ShardJobCtx& ctx, std::size_t part);
  /// Records the first rank failure's cause and closes every inbox.
  void abort(const std::string& cause);
  void gather_loop();
  void finish_job(const ShardJobCtx& ctx);

  /// Cuts the job into its bands (the routing rule above).
  void split_job(ShardJobCtx& ctx);
  [[nodiscard]] int pick_home_shard(const JobPtr& job,
                                    std::uint64_t seq) const;

  ShardRouterConfig config_;
  obs::Registry* metrics_;

  /// Dispatched jobs in dispatch order — what the gather thread drains.
  BoundedQueue<CtxPtr> gather_;
  std::uint64_t next_seq_ = 1;  ///< route-thread-only
  std::atomic<bool> shut_down_{false};

  Mutex abort_mutex_{SARBP_LOCK_LEVEL("service.shard_abort")};
  std::string abort_cause_ SARBP_GUARDED_BY(abort_mutex_);

  obs::Counter* jobs_single_ = nullptr;
  obs::Counter* jobs_grid_split_ = nullptr;
  obs::Counter* parts_dispatched_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* compute_s_ = nullptr;
  obs::Histogram* gather_s_ = nullptr;

  /// A deque, since a BoundedQueue cannot move. The constructor starts
  /// the threads once every member is built.
  std::deque<Rank> ranks_;
  std::thread gather_thread_;
};

}  // namespace sarbp::service
