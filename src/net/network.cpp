#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"

namespace cloudburst::net {

namespace {
// Residual bytes below this count as "delivered" — absorbs double rounding
// from settling at recomputed rates.
constexpr double kByteEpsilon = 1e-6;
// Rate given to flows with an empty path and no cap (loopback transfers):
// effectively instantaneous.
constexpr double kInfiniteRate = 1e18;
// Start order: the deterministic order for solving and teardown.
constexpr auto kStartedBefore = [](const auto* a, const auto* b) { return a->seq < b->seq; };
}  // namespace

SiteId Network::add_site(std::string name) {
  sites_.push_back(std::move(name));
  return static_cast<SiteId>(sites_.size() - 1);
}

LinkId Network::add_link(std::string name, double bandwidth_bytes_per_sec,
                         des::SimDuration latency) {
  if (bandwidth_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("link bandwidth must be positive: " + name);
  }
  if (latency < 0) throw std::invalid_argument("link latency must be >= 0: " + name);
  links_.push_back(Link{std::move(name), bandwidth_bytes_per_sec, latency, 0});
  link_active_.emplace_back();
  link_epoch_.push_back(0);
  water_.emplace_back();
  return static_cast<LinkId>(links_.size() - 1);
}

EndpointId Network::add_endpoint(std::string name, SiteId site) {
  if (site >= sites_.size()) throw std::out_of_range("unknown site for endpoint " + name);
  endpoints_.push_back(Endpoint{std::move(name), site, {}});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::set_access_path(EndpointId ep, std::vector<LinkId> links) {
  endpoints_.at(ep).access = std::move(links);
}

void Network::set_route(SiteId from, SiteId to, std::vector<LinkId> links) {
  routes_[{from, to}] = std::move(links);
}

void Network::set_route_symmetric(SiteId a, SiteId b, std::vector<LinkId> links) {
  routes_[{a, b}] = links;
  std::reverse(links.begin(), links.end());
  routes_[{b, a}] = std::move(links);
}

std::vector<LinkId> Network::path(EndpointId src, EndpointId dst) const {
  if (src == dst) return {};  // loopback: no links, no latency
  const Endpoint& s = endpoints_.at(src);
  const Endpoint& d = endpoints_.at(dst);
  std::vector<LinkId> p = s.access;
  if (s.site != d.site) {
    const auto it = routes_.find({s.site, d.site});
    if (it == routes_.end()) {
      throw std::runtime_error("no route from site " + sites_.at(s.site) + " to " +
                               sites_.at(d.site));
    }
    p.insert(p.end(), it->second.begin(), it->second.end());
  }
  p.insert(p.end(), d.access.rbegin(), d.access.rend());
  return p;
}

des::SimDuration Network::path_latency(EndpointId src, EndpointId dst) const {
  des::SimDuration total = 0;
  for (LinkId l : path(src, dst)) total += links_.at(l).latency;
  return total;
}

Network::Flow* Network::find_flow(FlowId id) {
  return const_cast<Flow*>(std::as_const(*this).find_flow(id));
}

const Network::Flow* Network::find_flow(FlowId id) const {
  const std::uint64_t slot = id & 0xFFFFFFFFu;
  if (slot >= flows_.size()) return nullptr;
  const Flow& flow = flows_[slot];
  if (!flow.live || flow.generation != (id >> 32)) return nullptr;
  return &flow;
}

FlowId Network::start_flow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                           double rate_cap, des::EventFn on_complete) {
  std::uint32_t slot;
  if (!free_flows_.empty()) {
    slot = free_flows_.back();
    free_flows_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  Flow& flow = flows_[slot];
  flow.live = true;
  flow.seq = next_flow_seq_++;
  flow.src = src;
  flow.dst = dst;
  flow.links = path(src, dst);
  flow.remaining = static_cast<double>(bytes);
  flow.rate_cap = rate_cap;
  flow.rate = 0.0;
  flow.active = false;
  flow.visit_epoch = 0;
  flow.on_complete = std::move(on_complete);
  flow.last_update = sim_.now();
  ++live_flows_;

  const FlowId id = flow_id(slot);
  flow.activation =
      sim_.schedule(path_latency(src, dst), [this, id] { activate_flow(id); });
  return id;
}

void Network::free_flow(Flow& flow) {
  flow.live = false;
  ++flow.generation;
  flow.on_complete.reset();
  flow.completion = {};
  flow.activation = {};
  free_flows_.push_back(slot_of(flow));
  --live_flows_;
}

void Network::attach_to_links(Flow& flow) {
  const std::uint32_t slot = slot_of(flow);
  flow.link_pos.resize(flow.links.size());
  for (std::size_t i = 0; i < flow.links.size(); ++i) {
    auto& list = link_active_[flow.links[i]];
    flow.link_pos[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(ActiveRef{slot, static_cast<std::uint32_t>(i)});
  }
}

void Network::detach_from_links(Flow& flow) {
  const std::uint32_t slot = slot_of(flow);
  for (std::size_t i = 0; i < flow.links.size(); ++i) {
    auto& list = link_active_[flow.links[i]];
    const std::uint32_t pos = flow.link_pos[i];
    const ActiveRef moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved.flow != slot) {
      flows_[moved.flow].link_pos[moved.hop] = pos;
    } else if (moved.hop != i) {
      flow.link_pos[moved.hop] = pos;  // path crosses this link twice
    }
  }
}

void Network::collect_component(const std::vector<LinkId>& seed_links) {
  ++epoch_;
  comp_flows_.clear();
  bfs_stack_.clear();
  const auto push_link = [this](LinkId l) {
    if (link_epoch_[l] != epoch_) {
      link_epoch_[l] = epoch_;
      bfs_stack_.push_back(l);
    }
  };
  for (LinkId l : seed_links) push_link(l);
  while (!bfs_stack_.empty()) {
    const LinkId l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const ActiveRef& ref : link_active_[l]) {
      Flow& flow = flows_[ref.flow];
      if (flow.visit_epoch == epoch_) continue;
      flow.visit_epoch = epoch_;
      comp_flows_.push_back(&flow);
      for (LinkId l2 : flow.links) push_link(l2);
    }
  }
  std::sort(comp_flows_.begin(), comp_flows_.end(), kStartedBefore);
}

void Network::settle_flows(const std::vector<Flow*>& flows) {
  const des::SimTime now = sim_.now();
  for (Flow* flow : flows) {
    if (!flow->active) continue;
    const double dt = des::to_seconds(now - flow->last_update);
    if (dt > 0.0 && flow->rate > 0.0) {
      const double moved = std::min(flow->remaining, flow->rate * dt);
      flow->remaining -= moved;
      for (LinkId l : flow->links) {
        links_[l].bytes_carried += moved;
      }
    }
    flow->last_update = now;
  }
}

void Network::recompute_and_rearm(std::vector<Flow*>& comp) {
  if (rebalance_mode_ == RebalanceMode::kGlobalReference) {
    // Reference mode: recompute everything. The solver below is a pure
    // function of each connected component, so this must reproduce the
    // scoped result bit-for-bit (see header).
    comp.clear();
    for (Flow& flow : flows_) {
      if (flow.live && flow.active) comp.push_back(&flow);
    }
    std::sort(comp.begin(), comp.end(), kStartedBefore);
  }
  if (comp.empty()) return;

  // Freeze-event water-filling. All unfrozen flows share one rising level r;
  // link l saturates at level (bandwidth - committed) / count. Each round
  // jumps r straight to the smallest binding constraint (a link saturation
  // level or a flow cap) and freezes every flow pinned there, so each round
  // freezes at least one flow and rates come out of a single division per
  // link instead of O(rounds) incremental passes.
  ++water_epoch_;
  water_links_.clear();
  for (const Flow* flow : comp) {
    for (LinkId l : flow->links) {
      LinkWater& w = water_[l];
      if (w.epoch != water_epoch_) {
        w.committed = 0.0;
        w.count = 0;
        w.epoch = water_epoch_;
        water_links_.push_back(l);
      }
      ++w.count;  // a path crossing a link twice contends twice, as before
    }
  }

  unfrozen_ = comp;  // sorted by start order => deterministic freeze order
  while (!unfrozen_.empty()) {
    double r = std::numeric_limits<double>::infinity();
    for (LinkId l : water_links_) {
      LinkWater& w = water_[l];
      if (w.count == 0) continue;
      w.level = std::max(
          (links_[l].effective_bandwidth() - w.committed) / static_cast<double>(w.count),
          0.0);
      r = std::min(r, w.level);
    }
    for (const Flow* flow : unfrozen_) {
      if (flow->rate_cap > 0.0) r = std::min(r, flow->rate_cap);
    }
    if (!std::isfinite(r)) {
      // Only link-less, uncapped flows remain (loopback): infinitely fast.
      for (Flow* flow : unfrozen_) flow->next_rate = kInfiniteRate;
      break;
    }

    still_.clear();
    bool froze = false;
    for (Flow* flow : unfrozen_) {
      bool frozen = flow->rate_cap > 0.0 && flow->rate_cap <= r;
      if (!frozen) {
        for (LinkId l : flow->links) {
          const LinkWater& w = water_[l];
          // level is this round's snapshot; it equals r exactly when this
          // link is the binding constraint (both came out of the same min).
          if (w.level <= r) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        flow->next_rate = r;
        froze = true;
        for (LinkId l : flow->links) {
          LinkWater& w = water_[l];
          w.committed += r;
          --w.count;
        }
      } else {
        still_.push_back(flow);
      }
    }
    if (!froze) {
      // Unreachable by construction (r always binds some flow); freeze the
      // rest at the current level rather than loop forever.
      for (Flow* flow : unfrozen_) flow->next_rate = r;
      break;
    }
    unfrozen_.swap(still_);
  }

  // Re-arm completion events, but only where the rate actually changed: an
  // unchanged rate means the armed completion time is still correct, and
  // skipping the cancel/re-schedule churn is where the scoped rebalance
  // saves most of its event traffic.
  for (Flow* flow : comp) {
    const double new_rate = flow->next_rate;
    if (new_rate == flow->rate) continue;
    flow->rate = new_rate;
    if (flow->remaining <= kByteEpsilon) {
      arm_completion(*flow, 0);
    } else if (new_rate > 0.0) {
      const double secs = flow->remaining / new_rate;
      arm_completion(*flow, std::max<des::SimDuration>(des::from_seconds(secs), 1));
    } else {
      // Fully starved: no completion until a rebalance frees capacity.
      flow->completion.cancel();
    }
  }
}

void Network::arm_completion(Flow& flow, des::SimDuration delay) {
  // Moving the pending event takes the same sequence number that cancelling
  // it and scheduling a fresh one would, so event order is unchanged.
  if (sim_.reschedule_at(flow.completion, sim_.now() + delay)) return;
  const FlowId id = flow_id(slot_of(flow));
  flow.completion = sim_.schedule(delay, [this, id] { finish_flow(id); });
}

void Network::activate_flow(FlowId id) {
  Flow* const found = find_flow(id);
  if (found == nullptr) return;  // cancelled during latency phase
  Flow& flow = *found;
  flow.active = true;
  flow.last_update = sim_.now();
  attach_to_links(flow);
  collect_component(flow.links);  // finds `flow` itself via its links
  if (flow.links.empty()) comp_flows_.push_back(&flow);  // loopback: own component
  settle_flows(comp_flows_);
  if (flow.remaining <= kByteEpsilon) {
    finish_flow(id);
    return;
  }
  recompute_and_rearm(comp_flows_);
}

double Network::cancel_flow(FlowId id) {
  Flow* const found = find_flow(id);
  if (found == nullptr) return 0.0;
  Flow& flow = *found;
  flow.activation.cancel();
  flow.completion.cancel();
  if (!flow.active) {
    // Latency phase: the flow never held bandwidth, nothing to rebalance.
    const double unmoved = flow.remaining;
    free_flow(flow);
    return unmoved;
  }
  collect_component(flow.links);
  if (flow.links.empty()) comp_flows_.push_back(&flow);
  settle_flows(comp_flows_);
  const double unmoved = flow.remaining;
  detach_from_links(flow);
  comp_flows_.erase(std::find(comp_flows_.begin(), comp_flows_.end(), &flow));
  free_flow(flow);
  recompute_and_rearm(comp_flows_);
  return unmoved;
}

std::size_t Network::cancel_flows_with_endpoint(EndpointId ep) {
  // Collect first: cancel_flow frees slots, and each cancellation settles
  // and rebalances its own component, so the per-link active lists stay
  // consistent throughout. Start order => deterministic teardown.
  std::vector<std::pair<std::uint64_t, FlowId>> doomed;  // (seq, id)
  for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
    const Flow& flow = flows_[slot];
    if (flow.live && (flow.src == ep || flow.dst == ep)) {
      doomed.emplace_back(flow.seq, flow_id(slot));
    }
  }
  std::sort(doomed.begin(), doomed.end());
  for (const auto& [seq, id] : doomed) cancel_flow(id);
  return doomed.size();
}

void Network::set_link_capacity_factor(LinkId id, double factor) {
  if (factor < 0.0) {
    throw std::invalid_argument("link capacity factor must be >= 0");
  }
  Link& link = links_.at(id);
  if (link.capacity_factor == factor) return;
  // Settle the affected component at the old rates before the capacity
  // changes, then recompute. A factor of 0 starves crossing flows to rate 0:
  // recompute_and_rearm cancels their completion events and they stall until
  // a later rebalance (e.g. restoring the link) frees capacity.
  collect_component({id});
  settle_flows(comp_flows_);
  link.capacity_factor = factor;
  recompute_and_rearm(comp_flows_);
}

double Network::flow_rate(FlowId id) const {
  const Flow* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->rate;
}

double Network::flow_remaining(FlowId id) const {
  const Flow* flow = find_flow(id);
  return flow == nullptr ? 0.0 : flow->remaining;
}

void Network::finish_flow(FlowId id) {
  Flow* const found = find_flow(id);
  if (found == nullptr) return;
  Flow& flow = *found;
  collect_component(flow.links);
  if (flow.links.empty()) comp_flows_.push_back(&flow);
  settle_flows(comp_flows_);
  if (flow.remaining > kByteEpsilon) {
    // Rates changed since this event was armed; re-estimate.
    if (flow.rate > 0.0) {
      const double secs = flow.remaining / flow.rate;
      arm_completion(flow, std::max<des::SimDuration>(des::from_seconds(secs), 1));
    }
    return;
  }
  auto callback = std::move(flow.on_complete);
  flow.completion.cancel();
  detach_from_links(flow);
  comp_flows_.erase(std::find(comp_flows_.begin(), comp_flows_.end(), &flow));
  free_flow(flow);
  recompute_and_rearm(comp_flows_);
  if (callback) callback();
}

}  // namespace cloudburst::net
