// Scripted chaos: a seeded fault plan the middleware replays against a run.
//
// A ChaosPlan is pure data — a time-ordered (by convention, not requirement)
// list of fault windows spanning every axis the simulator models: WAN link
// degradation and inter-site partitions, store outages, node crashes, drains
// and spot reclaims, and whole-site blackouts with later recovery. The plan
// is attached via RunOptions::chaos; a null plan (the default) leaves every
// run byte-identical to the un-chaosed simulator.
//
// The split between this header and chaos.hpp is deliberate: the middleware
// only needs the plan *data* (so run_context.hpp can hold a pointer without
// a link-time dependency), while plan generation and the recovery auditor
// live in the cb_chaos library.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/platform.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::chaos {

struct ChaosEvent {
  enum class Kind : std::uint8_t {
    /// Degrade (or cut, factor = 0) the WAN link between site_a and site_b
    /// for duration_seconds; in-flight flows stall at the reduced rate and
    /// resume when the window closes.
    LinkFault,
    /// Cut every WAN link touching site_a — the site can still compute on
    /// local data but nothing crosses the wide area until recovery.
    SitePartition,
    /// Take site_a's store offline: new GETs fail fast, in-flight GETs
    /// abort, reads re-route to surviving replicas via the retry path.
    StoreOutage,
    /// Full blackout of site_a: links cut, store offline, every rented node
    /// crashed, the site's master evacuated and its uncommitted work
    /// re-granted to surviving clusters. Recovery re-registers the site's
    /// services with the platform directory (fresh generation) for *future*
    /// work; nodes killed mid-job stay dead for that job.
    SiteOutage,
    /// Hard-kill node node_index of site_a (the per-job failure path:
    /// uncommitted work re-enters the pool after detection).
    NodeCrash,
    /// Graceful maintenance drain of node node_index of site_a.
    NodeDrain,
    /// Spot-market reclaim of node node_index of site_a with
    /// notice_seconds of warning before the hard kill.
    SpotReclaim,
  };

  Kind kind = Kind::LinkFault;
  cluster::ClusterId site_a = 0;
  cluster::ClusterId site_b = 0;   ///< LinkFault only: the link's far end
  std::uint32_t node_index = 0;    ///< node-scoped kinds: index within site_a
  double at_seconds = 0.0;         ///< window start (simulated time)
  /// Window length for LinkFault / SitePartition / StoreOutage / SiteOutage;
  /// <= 0 means the fault never recovers within the run.
  double duration_seconds = 0.0;
  /// LinkFault only: residual capacity fraction in [0, 1] (0 = hard down).
  double factor = 0.0;
  double notice_seconds = 120.0;   ///< SpotReclaim warning lead time
};

struct ChaosPlan {
  std::vector<ChaosEvent> events;

  bool empty() const { return events.empty(); }
};

}  // namespace cloudburst::chaos
