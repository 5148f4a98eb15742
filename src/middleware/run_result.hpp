// Timing decomposition of a distributed run.
//
// Mirrors the paper's reporting: per-cluster stacked processing / data
// retrieval / sync time (Figure 3), per-cluster local vs stolen job counts
// (Table I), and global-reduction / idle-time / total-slowdown components
// (Table II). With an N-site platform there is one ClusterResult per site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/reduction_object.hpp"
#include "cluster/platform.hpp"

namespace cloudburst::middleware {

/// Node-lifecycle accounting: crashes, graceful drains, spot reclamations,
/// checkpoint flushes, and migration leases. All zero under the default
/// model (no lifecycle events configured).
struct LifecycleStats {
  std::uint32_t drains_requested = 0;   ///< drain/reclaim notices delivered
  std::uint32_t nodes_vacated = 0;      ///< drains that completed gracefully
  std::uint32_t nodes_reclaimed = 0;    ///< hard-killed at the reclaim deadline
  std::uint32_t nodes_crashed = 0;      ///< crashes fired (node faults, site outages)
  std::uint32_t replacements_leased = 0;  ///< standby nodes booted to migrate work
  std::uint32_t chunks_returned = 0;    ///< assigned chunks handed back unstarted
  std::uint32_t chunks_reexecuted = 0;  ///< completed-but-lost chunks re-run
  std::uint64_t bytes_reexecuted = 0;   ///< wasted work: bytes of those chunks
  std::uint32_t checkpoint_flushes = 0; ///< delta robjs that protected new work
  std::uint64_t checkpoint_bytes = 0;   ///< wire bytes those flushes moved
};

/// Chunk-replication accounting: copies placed, lost to store faults, and
/// re-created by the repair actor. All zero (and extra_replica_bytes empty)
/// unless a ReplicaSet is attached via RunOptions::replication.
struct ReplicaStats {
  std::uint32_t replicas_created = 0;   ///< initial placement extra copies
  std::uint32_t replicas_lost = 0;      ///< copies marked dead after failed GETs
  std::uint32_t replicas_repaired = 0;  ///< repair transfers that landed
  std::uint64_t repair_bytes = 0;       ///< wire bytes repair transfers moved
  /// Live non-primary replica bytes per store at run end; the cost model
  /// bills the cloud stores' entries as extra resident storage.
  std::vector<std::uint64_t> extra_replica_bytes;
};

struct NodeTimes {
  std::string name;
  cluster::ClusterId cluster = 0;
  double processing = 0.0;  ///< seconds busy computing
  double retrieval = 0.0;   ///< seconds with an outstanding chunk fetch
  double wait = 0.0;        ///< seconds idle waiting for a job assignment
  double finish_time = 0.0; ///< when the node completed its last job
  std::uint32_t jobs = 0;
};

struct ClusterResult {
  std::string name;  ///< site name ("local", "cloud", ...)

  /// Mean per-node seconds (the stacked bar of Figure 3).
  double processing = 0.0;
  double retrieval = 0.0;
  double sync = 0.0;  ///< barrier wait + reduction transfers + merge

  std::uint32_t jobs_local = 0;   ///< jobs whose data was on this site's store
  std::uint32_t jobs_stolen = 0;  ///< jobs fetched from a remote store
  std::uint64_t bytes_local = 0;
  std::uint64_t bytes_stolen = 0;

  // Site-cache accounting (all zero when no cache fleet is attached).
  std::uint32_t cache_hits = 0;       ///< fetches served by the site cache
  std::uint32_t cache_misses = 0;     ///< fetches that went to the store
  std::uint32_t prefetch_issued = 0;  ///< speculative GETs the prefetcher sent
  std::uint32_t prefetch_wasted = 0;  ///< issued but never consumed by a slave

  // Store-QoS accounting (all zero with no StoreQos attached).
  std::uint32_t qos_throttled = 0;   ///< fetches the arbiter held back
  double qos_wait_seconds = 0.0;     ///< total seconds fetches queued at stores

  // Fault / retry accounting (all zero under the default fault-free model).
  std::uint32_t store_faults = 0;   ///< failed or timed-out fetch attempts
  std::uint32_t fetch_retries = 0;  ///< backoffs taken before re-attempts
  std::uint32_t hedges_issued = 0;  ///< hedged second GETs launched
  std::uint32_t hedges_won = 0;     ///< hedges that beat the primary

  double proc_end_time = 0.0;  ///< when the cluster's last slave finished processing
  double idle_time = 0.0;      ///< waiting for the other clusters at the end
  std::uint32_t nodes = 0;
};

/// One billed cloud instance rental. Under a workload, times are relative to
/// the job's own start.
struct CloudRental {
  net::EndpointId node = 0;  ///< the physical node, so a workload bills it once
  double start = 0.0;        ///< activation time (0.0 = rented from the start)
  /// Billing end; negative = rented to the end of the run. Reclaimed or
  /// drained cloud nodes stop billing when they vacate / hit the reclaim
  /// deadline.
  double end = -1.0;
};

/// What one cluster moved from one store during the run.
struct StoreTraffic {
  /// Bytes charged to the store at assignment time (chunk bytes, before
  /// compression). The cost model derives provider egress from this (data a
  /// non-cloud cluster pulled out of a cloud store).
  std::uint64_t fetched = 0;
  /// Bytes of `fetched` that the site cache actually served: no WAN
  /// transfer happened, so the cost model credits them back.
  std::uint64_t cached = 0;
  /// Wire bytes that moved but were not the delivered copy (failed partial
  /// GETs, hedge losers, post-timeout arrivals). They crossed the provider's
  /// egress boundary, so the cost model bills them *on top of* `fetched` —
  /// retried bytes are not free.
  std::uint64_t retried = 0;
  /// Store fetch requests issued, counted at the retry layer (first tries,
  /// retries and hedge legs). Equals the store's own stats().requests for a
  /// solo run; under a multi-job workload it is this job's share.
  std::uint64_t requests = 0;
};

struct RunResult {
  double total_time = 0.0;             ///< wall-clock of the whole job (sim seconds)
  double global_reduction_time = 0.0;  ///< after the last cluster finished processing
  std::vector<ClusterResult> clusters; ///< one per platform site
  std::vector<NodeTimes> nodes;        ///< one per slave, global index order

  /// Store traffic of each cluster: store_traffic[cluster][store].
  std::vector<std::vector<StoreTraffic>> store_traffic;

  /// Requests each store served during the run (fetch calls; an object store
  /// issues retrieval_streams range GETs per request).
  std::vector<std::uint64_t> store_requests;
  /// Range GETs against object-kind stores (requests x streams) — the number
  /// the cost model prices and the benches report as "S3 requests".
  std::uint64_t s3_get_requests = 0;

  /// Every *billed* cloud instance rental. For non-elastic runs this is one
  /// rental from 0.0 per cloud instance; elastic runs and replacement leases
  /// append booted instances at their activation times.
  std::vector<CloudRental> cloud_rentals;
  std::uint32_t elastic_activations = 0;  ///< instances booted mid-run

  /// Node-lifecycle accounting (all zero with no lifecycle events).
  LifecycleStats lifecycle;

  /// Chunk-replication accounting (all zero with no ReplicaSet attached).
  ReplicaStats replica;

  /// Present when RunOptions carried a real task: the finalized global robj.
  api::RobjPtr robj;

  const ClusterResult& side(cluster::ClusterId s) const { return clusters.at(s); }

  /// Sum of one per-cluster counter over every site.
  template <typename T>
  T cluster_total(T ClusterResult::*field) const {
    T n{};
    for (const auto& c : clusters) n += c.*field;
    return n;
  }

  std::uint32_t total_jobs() const {
    return cluster_total(&ClusterResult::jobs_local) +
           cluster_total(&ClusterResult::jobs_stolen);
  }

  std::uint32_t cache_hits() const { return cluster_total(&ClusterResult::cache_hits); }
  std::uint32_t cache_misses() const { return cluster_total(&ClusterResult::cache_misses); }
  std::uint32_t prefetch_issued() const { return cluster_total(&ClusterResult::prefetch_issued); }
  std::uint32_t prefetch_wasted() const { return cluster_total(&ClusterResult::prefetch_wasted); }
  /// Fraction of fetches the site caches served; 0 when no cache ran.
  double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits()) + cache_misses();
    return total > 0.0 ? static_cast<double>(cache_hits()) / total : 0.0;
  }

  std::uint32_t qos_throttled() const { return cluster_total(&ClusterResult::qos_throttled); }
  double qos_wait_seconds() const { return cluster_total(&ClusterResult::qos_wait_seconds); }

  std::uint32_t store_faults() const { return cluster_total(&ClusterResult::store_faults); }
  std::uint32_t fetch_retries() const { return cluster_total(&ClusterResult::fetch_retries); }
  std::uint32_t hedges_issued() const { return cluster_total(&ClusterResult::hedges_issued); }
  std::uint32_t hedges_won() const { return cluster_total(&ClusterResult::hedges_won); }
  /// Total wasted wire bytes across all cluster/store pairs.
  std::uint64_t bytes_retried_total() const {
    std::uint64_t n = 0;
    for (const auto& per_store : store_traffic) {
      for (const StoreTraffic& t : per_store) n += t.retried;
    }
    return n;
  }
};

}  // namespace cloudburst::middleware
