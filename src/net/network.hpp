// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Model
// -----
// The platform is a set of *sites* (the local cluster, the cloud, storage
// services). Every *endpoint* (a node NIC, the S3 front end, the storage
// node's disk channel) is attached to one site through an ordered list of
// access links; sites are connected by routes (ordered link lists). The path
// of a transfer is:
//
//     access(src) + route(site(src) -> site(dst)) + reverse(access(dst))
//
// A *flow* carries `bytes` along its path. After the path's total latency it
// becomes active and drains at its max-min fair rate; every flow arrival or
// departure triggers a re-balance (progressive filling / water-filling),
// which also re-estimates completion times. Flows may carry an optional
// per-flow rate cap — this is how the S3 model expresses its per-connection
// throughput limit without dedicating a simulated link per connection.
//
// Scoped rebalancing
// ------------------
// A flow arrival or departure can only change the rates of flows it shares
// bandwidth with, directly or transitively. Each link keeps the list of
// active flows crossing it, so a mutation walks the *connected component*
// of the affected links (flows <-> links), settles exactly those flows,
// recomputes their max-min rates with a freeze-event water-filling pass
// (O(component) instead of O(all flows x all links) per filling round), and
// re-arms completion events only for flows whose rate actually changed.
// Disjoint traffic — e.g. independent sites, or the thousands of concurrent
// chunk fetches that never meet on a link — pays nothing for each other's
// churn.
//
// The per-component solver is a pure function of the component's (sorted)
// flows, caps and link bandwidths, so recomputing an unaffected component
// reproduces its current rates bit-for-bit. RebalanceMode::kGlobalReference
// exploits that: it recomputes *every* active flow on each mutation, which
// must be byte-identical to the scoped result — the randomized differential
// test in tests/test_network_perf.cpp drives both modes through the same
// operation sequence and asserts exactly that.
//
// Flow storage
// ------------
// Flows live in a slab (a vector of records plus a free list). A FlowId packs
// the slot and the slot's generation, (generation << 32) | slot, so lookups
// index directly and a stale id — its flow finished or was cancelled, and the
// slot may since hold another flow — resolves to "unknown". Re-arming a
// completion moves the pending event in place (Simulator::reschedule_at).
//
// Everything is deterministic: component flows are processed in start order
// (each flow carries a monotonic start sequence number), and completion
// events inherit the DES kernel's (time, sequence) total ordering.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "net/link.hpp"

namespace cloudburst::net {

class Network {
 public:
  explicit Network(des::Simulator& sim) : sim_(sim) {}

  // --- topology construction ---------------------------------------------

  SiteId add_site(std::string name);
  LinkId add_link(std::string name, double bandwidth_bytes_per_sec,
                  des::SimDuration latency);
  EndpointId add_endpoint(std::string name, SiteId site);

  /// Links crossed from the endpoint to its site's router (may be empty for
  /// an endpoint sitting directly on the site fabric).
  void set_access_path(EndpointId ep, std::vector<LinkId> links);

  /// Directed route between two sites. Routes within a site are implicit
  /// (empty). Call twice for asymmetric paths; set_route_symmetric for the
  /// common case.
  void set_route(SiteId from, SiteId to, std::vector<LinkId> links);
  void set_route_symmetric(SiteId a, SiteId b, std::vector<LinkId> links);

  // --- transfers -----------------------------------------------------------

  /// Begin moving `bytes` from src to dst. `rate_cap` in bytes/sec limits
  /// this single flow (0 = unlimited). `on_complete` fires when the last
  /// byte arrives. Returns a FlowId usable with cancel_flow/flow_rate.
  FlowId start_flow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                    double rate_cap, des::EventFn on_complete);

  /// Abort an in-progress flow; its completion callback never fires.
  /// Harmless if the flow already finished, even if its slot now holds a
  /// newer flow. Returns the flow's un-moved bytes, settled as of the
  /// cancellation instant (0 if unknown/finished).
  double cancel_flow(FlowId id);

  /// Abort every flow whose source or destination is `ep` (completion
  /// callbacks never fire). Used when an endpoint dies mid-transfer — the
  /// flows must settle and leave the per-link active lists, not stall
  /// forever holding bandwidth. Flows are cancelled in start order. Returns
  /// the number of flows cancelled.
  std::size_t cancel_flows_with_endpoint(EndpointId ep);

  // --- fault injection -----------------------------------------------------

  /// Scale a link's capacity: 1 restores nominal bandwidth, 0 takes the link
  /// down (crossing flows drop to rate 0 and stall — their traffic is
  /// delayed, not lost), intermediate values model degradation. Rebalances
  /// the affected component immediately.
  void set_link_capacity_factor(LinkId id, double factor);

  // --- introspection (tests, stats) ---------------------------------------

  /// Current fair-share rate (bytes/sec); 0 while in the latency phase or if
  /// the flow is unknown/finished.
  double flow_rate(FlowId id) const;

  /// Bytes the flow still has to drain (settled as of the last rebalance);
  /// 0 if the flow is unknown/finished.
  double flow_remaining(FlowId id) const;

  std::size_t active_flows() const { return live_flows_; }

  std::vector<LinkId> path(EndpointId src, EndpointId dst) const;
  des::SimDuration path_latency(EndpointId src, EndpointId dst) const;

  const Link& link(LinkId id) const { return links_.at(id); }
  SiteId site_of(EndpointId ep) const { return endpoints_.at(ep).site; }
  std::size_t link_count() const { return links_.size(); }

  /// Test hook (see "Scoped rebalancing" above): kGlobalReference recomputes
  /// every active flow on each mutation instead of just the affected
  /// connected component. Results must be bit-identical to kScoped.
  enum class RebalanceMode { kScoped, kGlobalReference };
  void set_rebalance_mode_for_test(RebalanceMode mode) { rebalance_mode_ = mode; }

 private:
  struct Endpoint {
    std::string name;
    SiteId site;
    std::vector<LinkId> access;
  };

  struct Flow {
    std::uint32_t generation = 0;  ///< bumped when the slot is freed
    bool live = false;             ///< slot holds a started, unfinished flow
    std::uint64_t seq = 0;         ///< start order (deterministic ordering)
    EndpointId src = 0;
    EndpointId dst = 0;
    std::vector<LinkId> links;
    double remaining = 0.0;  ///< bytes still to drain once active
    double rate_cap = 0.0;   ///< 0 = uncapped
    double rate = 0.0;
    double next_rate = 0.0;  ///< scratch for the water-filling pass
    bool active = false;     ///< false during the latency phase
    des::SimTime last_update = 0;
    des::EventHandle completion;
    des::EventHandle activation;
    des::EventFn on_complete;
    /// For each links[i]: this flow's position in link_active_[links[i]]
    /// (back-pointer for O(1) swap-remove).
    std::vector<std::uint32_t> link_pos;
    std::uint64_t visit_epoch = 0;  ///< component-BFS visited stamp
  };

  /// One active-flow registration on a link: the flow's slab slot plus which
  /// of the flow's path hops this entry belongs to (paths may repeat a link).
  struct ActiveRef {
    std::uint32_t flow;
    std::uint32_t hop;
  };

  /// Per-link scratch for the freeze-event water-filling pass, reset lazily
  /// via `epoch` (no O(links) clearing per rebalance).
  struct LinkWater {
    double committed = 0.0;  ///< sum of frozen flow rates crossing the link
    double level = 0.0;      ///< saturation level snapshot for this round
    std::uint32_t count = 0; ///< unfrozen flows crossing the link
    std::uint64_t epoch = 0;
  };

  /// Register/unregister an active flow on its path's link lists.
  void attach_to_links(Flow& flow);
  void detach_from_links(Flow& flow);

  /// Gather the connected component (active flows <-> links) reachable from
  /// `seed_links` into comp_flows_, sorted by start order.
  void collect_component(const std::vector<LinkId>& seed_links);

  /// Charge elapsed drain time to the given flows; updates link stats.
  /// Must run before any of their rates change.
  void settle_flows(const std::vector<Flow*>& flows);

  /// Max-min fair rates for `comp` (sorted by start order; in
  /// kGlobalReference mode the argument is replaced by all active flows) and
  /// re-arm completion events for flows whose rate changed.
  void recompute_and_rearm(std::vector<Flow*>& comp);

  /// Arm the flow's completion `delay` from now, moving its pending event
  /// in place when it has one.
  void arm_completion(Flow& flow, des::SimDuration delay);

  /// The live flow `id` names, or nullptr if it is unknown or stale.
  Flow* find_flow(FlowId id);
  const Flow* find_flow(FlowId id) const;
  FlowId flow_id(std::uint32_t slot) const {
    return (static_cast<FlowId>(flows_[slot].generation) << 32) | slot;
  }
  std::uint32_t slot_of(const Flow& flow) const {
    return static_cast<std::uint32_t>(&flow - flows_.data());
  }
  /// Return a finished or cancelled flow's slot to the free list.
  void free_flow(Flow& flow);

  void activate_flow(FlowId id);
  void finish_flow(FlowId id);

  des::Simulator& sim_;
  std::vector<std::string> sites_;
  std::vector<Link> links_;
  std::vector<Endpoint> endpoints_;
  std::map<std::pair<SiteId, SiteId>, std::vector<LinkId>> routes_;
  std::vector<Flow> flows_;  ///< slab, addressed by FlowId's low 32 bits
  std::vector<std::uint32_t> free_flows_;
  std::size_t live_flows_ = 0;
  std::uint64_t next_flow_seq_ = 0;

  RebalanceMode rebalance_mode_ = RebalanceMode::kScoped;

  std::vector<std::vector<ActiveRef>> link_active_;  // parallel to links_
  std::vector<std::uint64_t> link_epoch_;            // parallel to links_
  std::vector<LinkWater> water_;                     // parallel to links_
  std::uint64_t epoch_ = 0;        ///< component-BFS stamp
  std::uint64_t water_epoch_ = 0;  ///< water-filling scratch stamp

  // Scratch buffers reused across mutations (never live across a callback).
  std::vector<Flow*> comp_flows_;
  std::vector<LinkId> water_links_;
  std::vector<LinkId> bfs_stack_;
  std::vector<Flow*> unfrozen_;
  std::vector<Flow*> still_;
};

}  // namespace cloudburst::net
