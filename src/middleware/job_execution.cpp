#include "middleware/job_execution.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace cloudburst::middleware {

namespace {

using ChaosKind = chaos::ChaosEvent::Kind;

/// Stochastic spot draws beyond this horizon are never scheduled: the DES
/// runs until its queue drains, so a reclaim drawn months into simulated
/// time must not keep the run alive.
constexpr double kSpotHorizonSeconds = 1e7;

/// A time the run schedules by must convert to SimTime (des::valid_seconds).
/// `what` names the field; a fault event's field also names the event: its
/// `front` ("lifecycle" or "chaos") and its index in that list.
void require_seconds(double seconds, const char* what, const char* front = nullptr,
                     std::size_t index = 0) {
  if (des::valid_seconds(seconds)) return;
  const std::string event =
      front ? std::string(front) + " event " + std::to_string(index) + " " : "";
  throw std::invalid_argument("run_distributed: " + event + what + " " + des::kSecondsRule);
}

/// A lifecycle event as the chaos node fault it is equivalent to.
chaos::ChaosEvent as_node_fault(const RunOptions::LifecycleEvent& ev) {
  using Kind = RunOptions::LifecycleEvent::Kind;
  chaos::ChaosEvent fault;
  fault.kind = ev.kind == Kind::Crash   ? ChaosKind::NodeCrash
               : ev.kind == Kind::Drain ? ChaosKind::NodeDrain
                                        : ChaosKind::SpotReclaim;
  fault.site_a = ev.site;
  fault.node_index = ev.node_index;
  fault.at_seconds = ev.at_seconds;
  fault.notice_seconds = ev.notice_seconds;
  return fault;
}

/// Every WAN link touching `site`: what a partition or blackout cuts.
std::vector<net::LinkId> site_links(const cluster::Platform& platform,
                                    cluster::ClusterId site) {
  std::vector<net::LinkId> links;
  for (cluster::ClusterId s = 0; s < platform.cluster_count(); ++s) {
    if (s != site) links.push_back(platform.wan_link(site, s));
  }
  return links;
}

/// A store dark for good must not hold the only copy of a chunk: nothing could
/// serve it again, and the run would never end. Only a placement that copies
/// up front (HotChunk copies hot chunks later, if ever) onto two stores helps.
void reject_permanent_sole_copies(const cluster::Platform& platform,
                                  const storage::DataLayout& layout, const RunOptions& options,
                                  const chaos::ChaosEvent& ev) {
  const storage::StoreId store = platform.store_of_cluster(ev.site_a);
  const replica::ReplicaSet* rs = options.replication;
  const bool copied = rs && rs->config().placement != replica::PlacementPolicy::HotChunk &&
                      std::min<std::size_t>(rs->config().replication_factor,
                                            platform.store_count()) >= 2;
  if (ev.duration_seconds > 0.0 || store == storage::kInvalidStore || copied) return;
  const std::size_t sole = layout.chunks_on(store).size();
  if (sole == 0) return;
  throw std::invalid_argument(
      "run_distributed: a permanent outage of store " + std::to_string(store) + " (site " +
      platform.site_name(ev.site_a) + ") loses the only copy of " + std::to_string(sole) +
      " chunks; give the outage a duration or replicate every chunk up front "
      "(replication_factor >= 2, placement other than HotChunk)");
}

/// The one rule set for a fault event, whichever front end names it (event
/// `index` of `front`, for messages).
void validate_fault(const cluster::Platform& platform, const storage::DataLayout& layout,
                    const RunOptions& options, const chaos::ChaosEvent& ev,
                    const char* front, std::size_t index) {
  require_seconds(ev.at_seconds, "at_seconds", front, index);
  // A window of <= 0 s never recovers (std::max keeps a NaN, which fails).
  require_seconds(std::max(ev.duration_seconds, 0.0), "duration_seconds", front, index);
  if (ev.site_a >= platform.cluster_count()) {
    throw std::invalid_argument("run_distributed: fault names an unknown site");
  }
  switch (ev.kind) {
    case ChaosKind::LinkFault:
      if (ev.site_b >= platform.cluster_count() || ev.site_b == ev.site_a) {
        throw std::invalid_argument(
            "run_distributed: chaos link fault needs two distinct sites");
      }
      if (ev.factor < 0.0 || ev.factor > 1.0) {
        throw std::invalid_argument("run_distributed: chaos link factor must be in [0, 1]");
      }
      break;
    case ChaosKind::SitePartition:
      break;
    case ChaosKind::StoreOutage:
      if (platform.store_of_cluster(ev.site_a) == storage::kInvalidStore) {
        throw std::invalid_argument(
            "run_distributed: chaos store outage targets a site with no store");
      }
      reject_permanent_sole_copies(platform, layout, options, ev);
      break;
    case ChaosKind::SiteOutage:
      if (ev.site_a == cluster::kLocalSite) {
        throw std::invalid_argument(
            "run_distributed: a chaos site outage cannot black out the head's site");
      }
      reject_permanent_sole_copies(platform, layout, options, ev);
      break;
    case ChaosKind::NodeCrash:
    case ChaosKind::NodeDrain:
    case ChaosKind::SpotReclaim:
      if (ev.node_index >= platform.nodes(ev.site_a).size()) {
        throw std::invalid_argument("run_distributed: node fault names an unknown node");
      }
      if (ev.kind == ChaosKind::SpotReclaim) {
        require_seconds(ev.notice_seconds, "notice_seconds", front, index);
      }
      break;
  }
}

}  // namespace

void validate_run(const cluster::Platform& platform, const storage::DataLayout& layout,
                  const RunOptions& options) {
  if ((options.task == nullptr) != (options.dataset == nullptr)) {
    throw std::invalid_argument("run_distributed: task and dataset must be set together");
  }
  if (platform.total_nodes() == 0) {
    throw std::invalid_argument("run_distributed: platform has no compute nodes");
  }
  if (layout.chunks().empty()) {
    throw std::invalid_argument("run_distributed: layout has no chunks");
  }
  if (options.policy.remote_selection == RemoteSelection::CheapestReplica &&
      options.replication == nullptr) {
    throw std::invalid_argument(
        "run_distributed: CheapestReplica remote selection requires "
        "RunOptions::replication");
  }
  if (options.checkpoint_interval_seconds > 0.0 && options.reduction_tree) {
    throw std::invalid_argument(
        "run_distributed: periodic checkpointing requires reduction_tree = false");
  }
  // An interval of <= 0 s turns checkpointing off (a NaN still fails).
  require_seconds(std::max(options.checkpoint_interval_seconds, 0.0),
                  "checkpoint_interval_seconds");
  require_seconds(options.failure_detection_seconds, "failure_detection_seconds");
  // A malformed retry policy would reach des::from_seconds as a NaN or
  // infinite delay; every time in it follows the same rule as the others.
  const storage::RetryPolicy& retry = options.retry;
  require_seconds(retry.backoff_base_seconds, "retry.backoff_base_seconds");
  require_seconds(retry.backoff_max_seconds, "retry.backoff_max_seconds");
  require_seconds(retry.attempt_timeout_seconds, "retry.attempt_timeout_seconds");
  require_seconds(retry.hedge_delay_seconds, "retry.hedge_delay_seconds");
  if (!(std::isfinite(retry.backoff_multiplier) && retry.backoff_multiplier >= 1.0)) {
    throw std::invalid_argument(
        "run_distributed: retry.backoff_multiplier must be finite and at least 1");
  }
  if (!(retry.jitter_fraction >= 0.0 && retry.jitter_fraction <= 1.0)) {
    throw std::invalid_argument("run_distributed: retry.jitter_fraction must be in [0, 1]");
  }
  if (options.elastic.enabled) {
    if (options.reduction_tree) {
      throw std::invalid_argument(
          "run_distributed: elastic bursting requires reduction_tree = false");
    }
    if (options.static_assignment) {
      throw std::invalid_argument(
          "run_distributed: static assignment excludes elastic mode");
    }
    const auto cloud_nodes = platform.cloud_node_count();
    if (cloud_nodes > 0 && options.elastic.initial_cloud_nodes == 0) {
      throw std::invalid_argument(
          "run_distributed: elastic bursting needs at least one initial cloud node");
    }
    if (options.elastic.check_interval_seconds <= 0.0) {
      throw std::invalid_argument("run_distributed: elastic check interval must be > 0");
    }
    require_seconds(options.elastic.check_interval_seconds, "elastic.check_interval_seconds");
    require_seconds(options.elastic.boot_seconds, "elastic.boot_seconds");
  }

  // --- dynamic control plane (directory / elastic node pool) -----------------
  if (!options.directory) {
    for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
      for (const auto& node : platform.nodes(site)) {
        if (node.offline) {
          throw std::invalid_argument(
              "run_distributed: offline nodes (deferred capacity) require "
              "RunOptions::directory");
        }
      }
    }
  }
  if (options.pool_plan.enabled) {
    if (options.reduction_tree) {
      throw std::invalid_argument(
          "run_distributed: pool leases require reduction_tree = false "
          "(the master must track per-slave work for cross-job drain)");
    }
    if (!options.directory) {
      throw std::invalid_argument(
          "run_distributed: pool leases require RunOptions::directory");
    }
    if (options.elastic.enabled || options.migration.standby_nodes > 0 ||
        !options.lifecycle.empty() || options.spot.reclaim_rate_per_hour > 0.0) {
      throw std::invalid_argument(
          "run_distributed: the elastic node pool owns cloud-node lifetime — "
          "per-job elastic/migration/lifecycle/spot machinery is excluded");
    }
    if (options.static_assignment) {
      throw std::invalid_argument(
          "run_distributed: static assignment excludes pool leases");
    }
  }

  // --- store QoS -------------------------------------------------------------
  if (options.qos) {
    // Weight validation happened at StoreQos construction; what can only be
    // checked against *this* run's platform is whether granted reservations
    // still fit the stores' access links (mirrors the lifecycle combo checks:
    // fail loudly up front, not with a starved fair pool mid-run).
    options.qos->validate_against(platform);
  }

  // --- faults: lifecycle, spot draws, migration standbys, chaos ------------
  std::vector<chaos::ChaosEvent> faults;
  for (const auto& ev : options.lifecycle) faults.push_back(as_node_fault(ev));
  if (options.chaos) {
    faults.insert(faults.end(), options.chaos->events.begin(), options.chaos->events.end());
  }
  const bool has_faults = !faults.empty() || options.spot.reclaim_rate_per_hour > 0.0 ||
                          options.migration.standby_nodes > 0;
  if (has_faults && options.reduction_tree) {
    throw std::invalid_argument(
        "run_distributed: node faults and chaos plans require reduction_tree = false "
        "(the master must track per-slave work to survive faults)");
  }
  if (has_faults && options.static_assignment) {
    throw std::invalid_argument(
        "run_distributed: static assignment excludes node faults and chaos plans");
  }
  // Any node fault composes with elastic bursting (a lost node's replacement
  // is leased from the held-back nodes), from either front end. Spot draws
  // and migration standbys do not: they disagree with elastic on which nodes
  // are held back.
  if (options.elastic.enabled &&
      (options.spot.reclaim_rate_per_hour > 0.0 || options.migration.standby_nodes > 0)) {
    throw std::invalid_argument(
        "run_distributed: spot reclaims and migration are mutually exclusive with "
        "elastic bursting (one policy decides which nodes are held back)");
  }
  if (options.spot.reclaim_rate_per_hour < 0.0) {
    throw std::invalid_argument("run_distributed: spot reclaim rate must be >= 0");
  }
  if (options.migration.standby_nodes > 0) {
    if (platform.cloud_node_count() <= options.migration.standby_nodes) {
      throw std::invalid_argument(
          "run_distributed: migration standbys must leave at least one active "
          "cloud node");
    }
    require_seconds(options.migration.boot_seconds, "migration.boot_seconds");
  }
  if (options.spot.reclaim_rate_per_hour > 0.0) {
    require_seconds(options.spot.notice_seconds, "spot.notice_seconds");
  }
  const std::size_t n = options.lifecycle.size();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    validate_fault(platform, layout, options, faults[i], i < n ? "lifecycle" : "chaos",
                   i < n ? i : i - n);
  }
  // Every scheduled lifecycle removal (a drain also takes its node out of the
  // run) must leave each cluster one live, non-standby slave; distinct
  // victims only, so a node named twice counts once.
  for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
    const auto& nodes = platform.nodes(site);
    if (nodes.empty()) continue;
    std::set<std::uint32_t> victims;
    for (const auto& ev : options.lifecycle) {
      if (ev.site == site) victims.insert(ev.node_index);
    }
    if (victims.size() >= nodes.size()) {
      throw std::invalid_argument(
          "run_distributed: lifecycle events would leave a cluster with no live "
          "slaves");
    }
  }
}

JobExecution::JobExecution(cluster::Platform& platform, const storage::DataLayout& layout,
                           const RunOptions& options, net::Postman<Message>& postman,
                           const MailboxRegistrar& register_mailbox, std::uint32_t job_id,
                           std::string trace_tag, SlotArbiter* arbiter,
                           std::function<void()> on_finished)
    : platform_(platform),
      ctx_{platform,
           layout,
           options,
           postman,
           RunRecorder{},
           {},
           {},
           job_id,
           std::move(trace_tag),
           arbiter,
           std::move(on_finished),
           /*job_start_seconds=*/0.0,
           qos::kSystemTenant,
           /*on_node_lost=*/{},
           /*on_node_vacated=*/{}} {
  ctx_.recorder.init(platform.cluster_count(), platform.store_count());
  setup_chunk_offsets();
  resolve_membership();
  setup_qos();
  setup_replication();
  build_prefetchers();
  build_actors(register_mailbox);
  apply_static_assignment();
  hold_back();
  setup_elastic();
  setup_pool();
  schedule_faults();
  // Last: it schedules nothing, and a constructor that throws above leaves
  // no watcher pointing at a dead execution.
  setup_directory();
}

JobExecution::~JobExecution() {
  if (directory_watch_ != 0 && ctx_.options.directory) {
    ctx_.options.directory->unwatch(directory_watch_);
  }
}

void JobExecution::resolve_membership() {
  site_nodes_.resize(platform_.cluster_count());
  const directory::PlatformDirectory* dir = ctx_.options.directory;
  const bool pooled = ctx_.options.pool_plan.enabled;
  std::set<net::EndpointId> leased;
  for (const auto& lease : ctx_.options.pool_plan.leases) leased.insert(lease.node);
  std::size_t live_total = 0;
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    for (const auto& node : platform_.nodes(site)) {
      // Directory-absent (offline, retired) nodes do not exist for this job;
      // a pooled job's cloud membership is exactly its leases.
      if (dir && !dir->node_live(node.endpoint)) continue;
      if (!dir && node.offline) continue;  // validate_run already rejected this
      if (pooled && platform_.is_cloud(site) && !leased.count(node.endpoint)) {
        continue;
      }
      site_nodes_[site].push_back(node);
      ++live_total;
    }
  }
  if (live_total == 0) {
    throw std::invalid_argument(
        "run_distributed: the service directory lists no live compute nodes");
  }
}

void JobExecution::setup_directory() {
  directory::PlatformDirectory* dir = ctx_.options.directory;
  if (!dir) return;
  directory_watch_ = dir->watch([this](const directory::DirectoryEvent& ev) {
    if (ctx_.recorder.finished) return;
    replica::ReplicaSet* rs = ctx_.options.replication;
    if (!rs) return;
    // A retired store takes its resident copies with it: mark them lost so
    // reads re-route to surviving replicas and the repair actor re-creates
    // the coverage elsewhere. A retired *site* implies the same for its
    // affinity store — directory retire_site does not cascade, so a site
    // blackout that never issued the per-store event must still lose the
    // copies (mark_lost is idempotent when it did).
    storage::StoreId store = storage::kInvalidStore;
    if (ev.kind == directory::DirectoryEvent::Kind::StoreRetired) {
      store = ev.store;
    } else if (ev.kind == directory::DirectoryEvent::Kind::SiteRetired) {
      store = platform_.store_of_cluster(ev.site);
    }
    if (store == storage::kInvalidStore) return;
    for (const auto& chunk : ctx_.layout.chunks()) {
      if (!rs->is_live(chunk.id, store)) continue;
      if (rs->mark_lost(chunk.id, store, ctx_.now_seconds())) {
        ++ctx_.recorder.replica.replicas_lost;
        ctx_.trace(trace::EventKind::ReplicaLost, "replica", chunk.id, store);
      }
    }
  });
}

bool JobExecution::drain_node(net::EndpointId ep) {
  if (ctx_.options.reduction_tree) return false;  // no per-slave work tracking
  SlaveNode* victim = slave_by_endpoint(ep);
  if (!victim || !fault_hits(victim) || victim->draining()) return false;
  ctx_.trace(trace::EventKind::NodeDrainRequested, victim->name(), 0, 0);
  victim->begin_drain();
  return true;
}

void JobExecution::setup_pool() {
  const RunOptions::PoolPlan& plan = ctx_.options.pool_plan;
  if (!plan.enabled) return;
  for (const auto& lease : plan.leases) {
    if (lease.ready_in_seconds <= 0.0) continue;  // warm: starts with the job
    SlaveNode* booting = slave_by_endpoint(lease.node);
    if (!booting) continue;  // lease on a site this job has no master for
    initial_active_.erase(
        std::remove(initial_active_.begin(), initial_active_.end(), booting),
        initial_active_.end());
    boot(booting, lease.ready_in_seconds, trace::EventKind::InstanceActivated,
         booting->name(), 0);
  }
}

SlaveNode* JobExecution::slave_by_endpoint(net::EndpointId ep) {
  for (auto& s : slaves_) {
    if (s->endpoint() == ep) return s.get();
  }
  return nullptr;
}

SlaveNode* JobExecution::slave_at(cluster::ClusterId site, std::uint32_t node_index) {
  const auto& nodes = platform_.nodes(site);
  return node_index < nodes.size() ? slave_by_endpoint(nodes[node_index].endpoint)
                                   : nullptr;
}

MasterNode* JobExecution::master_of(cluster::ClusterId site) {
  for (auto& m : masters_) {
    if (m->site() == site) return m.get();
  }
  return nullptr;
}

void JobExecution::setup_chunk_offsets() {
  // Real execution: map chunk ids to dataset unit offsets.
  const RunOptions& options = ctx_.options;
  if (!options.task) return;
  if (options.task->unit_bytes() != options.dataset->unit_bytes()) {
    throw std::invalid_argument("run_distributed: task/dataset unit size mismatch");
  }
  ctx_.chunk_unit_offset.resize(ctx_.layout.chunks().size());
  std::uint64_t offset = 0;
  for (const auto& chunk : ctx_.layout.chunks()) {
    ctx_.chunk_unit_offset[chunk.id] = offset;
    offset += chunk.units;
  }
  if (offset != options.dataset->units()) {
    throw std::invalid_argument(
        "run_distributed: layout units do not tile the dataset exactly");
  }
}

void JobExecution::setup_qos() {
  qos::StoreQos* q = ctx_.options.qos;
  if (!q) return;
  q->attach(platform_);
  ctx_.qos_tenant = q->tenant_id(ctx_.options.tenant);
  if (ctx_.options.tracer) q->set_tracer(ctx_.options.tracer);
  if (ctx_.options.cache) {
    // Per-tenant cache shares: explicitly-weighted tenants each get their
    // slice of every site cache; one tenant can no longer flush another's
    // working set.
    for (const auto& [tenant, budget] :
         q->cache_budgets(ctx_.options.cache->config().capacity_bytes)) {
      ctx_.options.cache->set_owner_budget(tenant, budget);
    }
  }
}

void JobExecution::setup_replication() {
  replica::ReplicaSet* rs = ctx_.options.replication;
  if (!rs) return;
  replication_built_here_ = !rs->built();
  rs->attach(ctx_.layout, platform_);
  if (replication_built_here_) {
    // The initial placement is this job's doing: count and trace the extra
    // copies it created (a workload job joining an already-built set is a
    // pure consumer and records nothing here).
    ctx_.recorder.replica.replicas_created += rs->replicas_created();
    for (const auto& [chunk, store] : rs->initial_extras()) {
      ctx_.trace(trace::EventKind::ReplicaCreated, "replica", chunk, store);
    }
  }
  if (rs->config().placement == replica::PlacementPolicy::HotChunk) {
    // Promotion heat: cache/prefetch hits when a fleet is attached; plain
    // per-chunk fetch counts otherwise (without the fallback an uncached run
    // would silently never promote anything).
    const replica::HeatSource source = ctx_.options.cache
                                           ? replica::HeatSource::CacheHits
                                           : replica::HeatSource::FetchCounts;
    rs->set_heat_source(source);
    if (replication_built_here_) {
      log::info("replica", "hot-chunk heat source: ", replica::to_string(source));
    }
  }

  replica::RepairActor::Env env;
  env.now = [this] { return ctx_.now_seconds(); };
  env.schedule = [this](double delay_seconds, std::function<void()> fn) {
    platform_.sim().schedule(des::from_seconds(delay_seconds), std::move(fn));
  };
  env.stopped = [this] { return ctx_.recorder.finished; };
  env.trace = [this](trace::EventKind kind, std::uint64_t a, std::uint64_t b) {
    ctx_.trace(kind, "repair", a, b);
  };
  // A repair is a store-to-store read: the destination's site pays the
  // egress from the source store, on the same retry/fault machinery (and
  // therefore the same recorder counters) as any slave fetch.
  env.transfer = [this](const replica::ReplicaSet::RepairTask& task,
                        std::function<void(bool ok)> done) {
    const storage::ChunkInfo& info = ctx_.layout.chunk(task.chunk);
    const storage::ChunkInfo wire =
        storage::wire_chunk(info, ctx_.options.profile.compression_ratio);
    const cluster::ClusterId dst_site = platform_.owner_of_store(task.dst);
    ctx_.recorder.store_traffic[dst_site][task.src].fetched += info.bytes;
    // Repairs are background traffic: they bill to the "system" tenant and
    // queue behind (or alongside) foreground fetches at the source store's
    // arbiter.
    ctx_.qos_gate(
        dst_site, task.src, wire.bytes, "repair", task.chunk, qos::kSystemTenant,
        [this, task, wire, dst_site, done = std::move(done)]() mutable {
          storage::fetch_with_retry(
              platform_.sim(), platform_.store(task.src),
              platform_.store(task.dst).endpoint(), wire,
              ctx_.options.retrieval_streams, ctx_.options.retry,
              ctx_.retry_hooks(dst_site, "repair", task.chunk, task.src),
              [this, task, dst_site,
               done = std::move(done)](const storage::FetchResult& r) {
                if (!r.ok) {
                  // Nothing landed: revert the issue-time egress charge.
                  ctx_.recorder.store_traffic[dst_site][task.src].fetched -=
                      ctx_.layout.chunk(task.chunk).bytes;
                }
                if (done) done(r.ok);
              });
        });
  };
  env.on_repaired = [this](const replica::ReplicaSet::RepairTask& task) {
    ++ctx_.recorder.replica.replicas_repaired;
    ctx_.recorder.replica.repair_bytes += ctx_.layout.chunk(task.chunk).bytes;
  };
  repair_ = std::make_unique<replica::RepairActor>(*rs, std::move(env));
}

void JobExecution::build_prefetchers() {
  // One per compute site when the attached cache fleet enables prefetching.
  // The Env hooks close over this, which outlives the prefetchers.
  const RunOptions& options = ctx_.options;
  if (!options.cache || !options.cache->config().prefetch.enabled) return;
  const cache::CacheConfig& cfg = options.cache->config();
  ctx_.prefetchers.resize(platform_.cluster_count());
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    if (site_nodes_[site].empty()) continue;
    cache::Prefetcher::Env env;
    env.compression_ratio = options.profile.compression_ratio;
    env.cacheable = [this, site](storage::StoreId s) {
      return ctx_.store_cacheable(site, s);
    };
    const std::string pf_name = "prefetch-" + platform_.site_name(site);
    const net::EndpointId master_ep = platform_.master_endpoint(site);
    const unsigned streams = cfg.prefetch.streams
                                 ? cfg.prefetch.streams
                                 : std::max(1u, options.retrieval_streams);
    // Prefetch GETs ride the same retry machinery as slave fetches — and the
    // same QoS admission, billed to this run's tenant; a permanently failed
    // GET settles done(false) and the prefetcher aborts.
    env.fetch = [this, site, pf_name, master_ep, streams](
                    storage::StoreId s, const storage::ChunkInfo& wire,
                    std::function<void(bool ok)> done) {
      ctx_.qos_gate(
          site, s, wire.bytes, pf_name, wire.id, ctx_.qos_tenant,
          [this, site, pf_name, master_ep, streams, s, wire,
           done = std::move(done)]() mutable {
            storage::fetch_with_retry(
                platform_.sim(), platform_.store(s), master_ep, wire, streams,
                ctx_.options.retry, ctx_.retry_hooks(site, pf_name, wire.id, s),
                [this, s, wire, done = std::move(done)](const storage::FetchResult& r) {
                  // Clear the route-load charge resolve() booked for this GET
                  // without touching replica health.
                  if (ctx_.options.replication) {
                    ctx_.options.replication->settle_route(wire.id, s);
                  }
                  if (done) done(r.ok);
                });
          });
    };
    env.trace = [this, pf_name](trace::EventKind kind, std::uint64_t a,
                                std::uint64_t b) { ctx_.trace(kind, pf_name, a, b); };
    env.on_issue = [this, site](storage::StoreId s, const storage::ChunkInfo& info) {
      ++ctx_.recorder.clusters[site].prefetch_issued;
      ctx_.recorder.store_traffic[site][s].fetched += info.bytes;
    };
    env.on_abort = [this, site](storage::StoreId s, const storage::ChunkInfo& info) {
      ctx_.recorder.store_traffic[site][s].fetched -= info.bytes;
    };
    if (replica::ReplicaSet* rs = options.replication) {
      env.resolve = [this, rs, site](storage::ChunkId chunk) {
        return rs->resolve(chunk, site, ctx_.now_seconds());
      };
    }
    env.cache_owner = ctx_.cache_owner();
    ctx_.prefetchers[site] = std::make_unique<cache::Prefetcher>(
        options.cache->site(site), cfg.prefetch, std::move(env));
  }
}

void JobExecution::build_actors(const MailboxRegistrar& register_mailbox) {
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    const auto& nodes = site_nodes_[site];
    if (nodes.empty()) continue;
    const net::EndpointId master_ep = platform_.master_endpoint(site);
    master_infos_.push_back(
        HeadNode::MasterInfo{master_ep, platform_.store_of_cluster(site)});
    auto peers = std::make_shared<std::vector<net::EndpointId>>();
    for (const auto& node : nodes) peers->push_back(node.endpoint);
    masters_.push_back(std::make_unique<MasterNode>(
        ctx_, site, master_ep, platform_.head_endpoint(), *peers,
        platform_.store_of_cluster(site)));
    std::uint32_t rank = 0;
    for (const auto& node : nodes) {
      const std::size_t stat_index = ctx_.recorder.nodes.size();
      NodeTimes times;
      times.name = node.name;
      times.cluster = site;
      ctx_.recorder.nodes.push_back(std::move(times));
      slaves_.push_back(
          std::make_unique<SlaveNode>(ctx_, node, master_ep, stat_index, rank++, peers));
    }
  }

  // The head's JobPool draws scheduler randomness from the run's seed, not
  // the SchedulerPolicy default.
  SchedulerPolicy policy = ctx_.options.policy;
  policy.random_seed = ctx_.options.random_seed;
  JobPool::ReplicaView view;
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    // The pool stays decoupled from cb_replica: it sees replicas only through
    // these two hooks (live-copy membership and route cost for a requester).
    view.on_store = [rs](storage::ChunkId chunk, storage::StoreId store) {
      return rs->is_live(chunk, store);
    };
    view.steal_cost = [this, rs](storage::ChunkId chunk, storage::StoreId preferred) {
      const cluster::ClusterId site = preferred == storage::kInvalidStore
                                          ? cluster::ClusterId{0}
                                          : platform_.owner_of_store(preferred);
      return rs->route_cost(chunk, site, ctx_.now_seconds());
    };
  }
  head_ = std::make_unique<HeadNode>(ctx_, platform_.head_endpoint(),
                                     JobPool(ctx_.layout, policy, std::move(view)),
                                     master_infos_, ctx_.options.task);

  // --- wire mailboxes --------------------------------------------------------
  const auto wire = [&register_mailbox](auto* actor) {
    register_mailbox(actor->endpoint(), [actor](net::EndpointId from, Message msg) {
      actor->handle(from, std::move(msg));
    });
  };
  wire(head_.get());
  for (auto& master : masters_) wire(master.get());
  for (auto& slave : slaves_) wire(slave.get());
}

void JobExecution::apply_static_assignment() {
  const RunOptions& options = ctx_.options;
  if (!options.static_assignment) return;
  // Each chunk goes to the cluster whose preferred store holds it; chunks
  // on a store no active cluster prefers are dealt round-robin across the
  // clusters (a lone cluster therefore takes everything).
  std::map<storage::StoreId, std::size_t> store_owner;
  for (std::size_t m = 0; m < masters_.size(); ++m) {
    store_owner.emplace(master_infos_[m].preferred_store, m);
  }
  std::vector<std::vector<std::pair<net::EndpointId, storage::ChunkId>>> plans(
      masters_.size());
  std::vector<std::size_t> cursors(masters_.size(), 0);
  std::size_t orphan_cursor = 0;
  for (const auto& chunk : ctx_.layout.chunks()) {
    const auto it = store_owner.find(ctx_.layout.store_of(chunk.id));
    const std::size_t m =
        it != store_owner.end() ? it->second : orphan_cursor++ % masters_.size();
    const auto& nodes = site_nodes_[masters_[m]->site()];
    plans[m].emplace_back(nodes[cursors[m]++ % nodes.size()].endpoint, chunk.id);
  }
  for (std::size_t m = 0; m < masters_.size(); ++m) {
    masters_[m]->assign_static(plans[m]);
  }
}

void JobExecution::schedule_faults() {
  // Fault times are relative to construction — i.e. to the job's own start,
  // since start() follows construction at the same sim instant. Same-instant
  // events fire in schedule order: lifecycle events, spot draws, chaos.
  for (const auto& ev : ctx_.options.lifecycle) {
    if (!slave_at(ev.site, ev.node_index)) {
      throw std::logic_error("run_distributed: lifecycle target not instantiated");
    }
    schedule_fault(as_node_fault(ev));
  }
  if (ctx_.options.spot.reclaim_rate_per_hour > 0.0) {
    for (auto& slave : slaves_) {
      if (platform_.is_cloud(slave->site())) draw_spot_reclaim(slave.get());
    }
  }
  if (const chaos::ChaosPlan* plan = ctx_.options.chaos) {
    for (const auto& ev : plan->events) schedule_fault(ev);
  }
}

void JobExecution::schedule_fault(const chaos::ChaosEvent& ev) {
  // A window: `begin` at the event's time, `end` when it closes (if ever).
  const auto window = [this, &ev](auto begin, auto end) {
    platform_.sim().schedule(des::from_seconds(ev.at_seconds), std::move(begin));
    if (ev.duration_seconds <= 0.0) return;
    platform_.sim().schedule(des::from_seconds(ev.at_seconds + ev.duration_seconds),
                             std::move(end));
  };
  const cluster::ClusterId a = ev.site_a;
  switch (ev.kind) {
    case ChaosKind::LinkFault: {
      const std::vector<net::LinkId> links{platform_.wan_link(a, ev.site_b)};
      window([this, links, f = ev.factor, a, b = ev.site_b] { links_down(links, f, {a, b}); },
             [this, links] { links_up(links); });
      break;
    }
    case ChaosKind::SitePartition: {
      const std::vector<net::LinkId> links = site_links(platform_, a);
      window([this, links, a] { links_down(links, 0.0, {a}); },
             [this, links] { links_up(links); });
      break;
    }
    case ChaosKind::StoreOutage: {
      const storage::StoreId store = platform_.store_of_cluster(a);
      window([this, store] { store_down(store); }, [this, store] { store_up(store); });
      break;
    }
    case ChaosKind::SiteOutage:
      window([this, a] { begin_site_outage(a); }, [this, a] { recover_site(a); });
      break;
    case ChaosKind::NodeCrash:
    case ChaosKind::NodeDrain:
    case ChaosKind::SpotReclaim:
      // Random plans may target nodes outside this job's membership
      // (directory-filtered, pooled): those events miss quietly.
      if (SlaveNode* victim = slave_at(a, ev.node_index)) {
        schedule_node_fault(ev.kind, victim, ev.at_seconds, ev.notice_seconds);
      }
      break;
  }
}

void JobExecution::draw_spot_reclaim(SlaveNode* node) {
  const RunOptions::SpotPolicy& spot = ctx_.options.spot;
  const std::uint64_t seed = spot.seed ? spot.seed : ctx_.options.random_seed;
  Rng rng = Rng::substream(seed, spot_streams_used_++);
  const double at = rng.exponential(spot.reclaim_rate_per_hour / 3600.0);
  // A held node is not rented yet: it redraws at lease time.
  if (is_held(node) || at > kSpotHorizonSeconds) return;
  schedule_node_fault(ChaosKind::SpotReclaim, node, at, spot.notice_seconds);
}

void JobExecution::schedule_node_fault(chaos::ChaosEvent::Kind kind, SlaveNode* victim,
                                       double at_seconds, double notice_seconds) {
  MasterNode* master = master_of(victim->site());
  const net::EndpointId victim_ep = victim->endpoint();
  const double detection = ctx_.options.failure_detection_seconds;
  // Every event below passes the fault_hits guard when it fires.
  if (kind == ChaosKind::NodeCrash) {
    platform_.sim().schedule(des::from_seconds(at_seconds),
                             [this, victim] { crash(victim, "node"); });
    // A node still alive at detection time was never crashed (the crash
    // missed it): there is nothing to detect.
    platform_.sim().schedule(
        des::from_seconds(at_seconds + detection), [this, master, victim, victim_ep] {
          if (ctx_.recorder.finished || victim->alive()) return;
          master->on_slave_failed(victim_ep);
        });
    return;
  }
  const bool hard = kind == ChaosKind::SpotReclaim;  // kill at the deadline
  notice_seconds = std::max(0.0, notice_seconds);
  platform_.sim().schedule(
      des::from_seconds(at_seconds), [this, victim, notice_seconds, hard] {
        if (!fault_hits(victim) || victim->draining()) return;
        ctx_.trace(trace::EventKind::NodeDrainRequested, victim->name(),
                   hard ? static_cast<std::uint64_t>(notice_seconds) : 0,
                   hard ? 1 : 0);
        victim->begin_drain();
      });
  if (!hard) return;
  platform_.sim().schedule(
      des::from_seconds(at_seconds + notice_seconds),
      [this, victim, master, victim_ep, detection] {
        // Already vacated (or never drained because it was dead or held at
        // notice time): nothing to reclaim.
        if (!fault_hits(victim)) return;
        ctx_.trace(trace::EventKind::NodeReclaimed, victim->name(), 0, 0);
        ++ctx_.recorder.lifecycle.nodes_reclaimed;
        // Spot billing stops the instant the provider takes the node back.
        ctx_.recorder.end_cloud_billing(
            victim_ep, ctx_.now_seconds() - ctx_.job_start_seconds);
        victim->kill();
        ctx_.sim().schedule(des::from_seconds(detection), [this, master, victim_ep] {
          if (ctx_.recorder.finished) return;
          master->on_slave_failed(victim_ep);
        });
      });
}

bool JobExecution::crash(SlaveNode* node, const std::string& actor) {
  if (!fault_hits(node)) return false;
  ctx_.trace(trace::EventKind::SlaveFailed, actor, 0, 0);
  ++ctx_.recorder.lifecycle.nodes_crashed;
  node->kill();
  return true;
}

void JobExecution::links_down(const std::vector<net::LinkId>& links, double factor,
                              std::initializer_list<cluster::ClusterId> suspects) {
  // In-flight flows stall at the reduced rate until the window closes (or,
  // in a blackout, until their dead endpoint's flows are cancelled).
  for (const net::LinkId link : links) {
    ctx_.trace(trace::EventKind::LinkDown, "chaos", link,
               static_cast<std::uint64_t>(factor * 1000.0));
    platform_.network().set_link_capacity_factor(link, factor);
  }
  // Feed the route oracle: readers should prefer replicas off the degraded
  // path until the suspect window lapses.
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    for (const cluster::ClusterId site : suspects) rs->mark_site_suspect(site, ctx_.now_seconds());
  }
}

void JobExecution::links_up(const std::vector<net::LinkId>& links) {
  for (const net::LinkId link : links) {
    platform_.network().set_link_capacity_factor(link, 1.0);
    ctx_.trace(trace::EventKind::LinkRestored, "chaos", link, 0);
  }
}

void JobExecution::store_down(storage::StoreId store) {
  if (store == storage::kInvalidStore) return;
  // Its abort path fails every in-flight GET; readers re-enter their retry
  // cycle and the route oracle steers them to surviving replicas.
  if (!platform_.store(store).offline()) {
    ctx_.trace(trace::EventKind::StoreOffline, "chaos", store, 0);
    platform_.store(store).set_offline(true);
  }
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    rs->mark_store_suspect(store, ctx_.now_seconds());
  }
}

void JobExecution::store_up(storage::StoreId store) {
  if (store == storage::kInvalidStore || !platform_.store(store).offline()) return;
  platform_.store(store).set_offline(false);
  ctx_.trace(trace::EventKind::StoreOnline, "chaos", store, 0);
}

void JobExecution::begin_site_outage(cluster::ClusterId site) {
  if (ctx_.recorder.finished) return;
  // 1-2. Every WAN path touching the site is cut, then its store goes dark
  //      *before* the nodes die.
  const storage::StoreId store = platform_.store_of_cluster(site);
  links_down(site_links(platform_, site), 0.0, {site});
  store_down(store);

  // 3. Directory: the site's services leave the platform. Nodes first (the
  //    workload manager closes their pool lease windows), then the store
  //    (the watcher above marks its replicas lost), then the site itself.
  if (directory::PlatformDirectory* dir = ctx_.options.directory) {
    const auto& nodes = platform_.nodes(site);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (dir->node_live(nodes[i].endpoint)) dir->retire_node(site, i);
    }
    if (store != storage::kInvalidStore && dir->store_live(store)) {
      dir->retire_store(store);
    }
    if (dir->site_live(site)) dir->retire_site(site);
  }

  // 4. Crash this job's slaves on the site; a cloud site's meters stop at the
  //    blackout. Held nodes were never rented: they leave the held list
  //    silently, so no lease boots them into the evacuated master.
  for (auto& s : slaves_) {
    if (s->site() != site) continue;
    if (crash(s.get(), s->name()) && platform_.is_cloud(site)) {
      ctx_.recorder.end_cloud_billing(s->endpoint(),
                                      ctx_.now_seconds() - ctx_.job_start_seconds);
    }
    if (is_held(s.get())) {
      unhold(s.get());
      s->kill();
    }
  }

  // 5. Flows to or from the dead endpoints must settle, not sit in the
  //    per-link active lists holding shares forever.
  std::uint64_t cancelled = 0;
  for (auto& s : slaves_) {
    if (s->site() == site) {
      cancelled += platform_.network().cancel_flows_with_endpoint(s->endpoint());
    }
  }
  MasterNode* master = master_of(site);
  if (master) {
    cancelled += platform_.network().cancel_flows_with_endpoint(master->endpoint());
  }
  ctx_.trace(trace::EventKind::SiteOutage, "chaos", site, cancelled);

  // 6. Control plane: the master goes silent now; the head notices one
  //    detection interval later and re-grants every chunk it had granted the
  //    dead cluster to the survivors (exactly-once: the dead cluster's robj
  //    never merges).
  if (master && !master->evacuated()) {
    master->evacuate();
    const net::EndpointId master_ep = master->endpoint();
    platform_.sim().schedule(
        des::from_seconds(ctx_.options.failure_detection_seconds),
        [this, master_ep] {
          if (ctx_.recorder.finished) return;
          head_->on_master_failed(master_ep);
        });
  }
}

void JobExecution::recover_site(cluster::ClusterId site) {
  const storage::StoreId store = platform_.store_of_cluster(site);
  links_up(site_links(platform_, site));
  store_up(store);
  // Directory re-registration (generation bump): the recovered capacity is
  // placeable for *future* work — this job's dead slaves stay dead, and the
  // evacuated master never speaks again.
  if (directory::PlatformDirectory* dir = ctx_.options.directory) {
    if (!dir->site_live(site)) dir->register_site(site);
    if (store != storage::kInvalidStore && !dir->store_live(store)) {
      dir->register_store(store);
    }
    const auto& nodes = platform_.nodes(site);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (!dir->node_live(nodes[i].endpoint)) dir->register_node(site, i);
    }
  }
  ctx_.trace(trace::EventKind::SiteRecovered, "chaos", site, 0);
}

void JobExecution::hold_back() {
  const RunOptions& options = ctx_.options;
  std::size_t cloud_nodes = 0;
  for (const auto& slave : slaves_) cloud_nodes += platform_.is_cloud(slave->site());
  // Cloud slaves from index `first_held` on (build order) are held back.
  std::size_t first_held = cloud_nodes;
  if (options.elastic.enabled) {
    first_held = std::min<std::size_t>(options.elastic.initial_cloud_nodes, cloud_nodes);
  } else if (options.migration.standby_nodes > 0 &&
             options.migration.standby_nodes < cloud_nodes) {
    first_held = cloud_nodes - options.migration.standby_nodes;
  }
  std::size_t cloud_seen = 0;
  for (auto& slave : slaves_) {
    const bool cloud = platform_.is_cloud(slave->site());
    if (cloud && cloud_seen++ >= first_held) {
      held_.push_back(slave.get());
      master_of(slave->site())->mark_dormant(slave->endpoint());
      continue;
    }
    initial_active_.push_back(slave.get());
    // A pooled job's instance time bills at the pool's lease windows, shared
    // across every job holding the node.
    if (cloud && !options.pool_plan.enabled) {
      ctx_.recorder.cloud_rentals.push_back({slave->endpoint(), 0.0});
    }
  }
  if (held_.empty()) return;
  ctx_.on_node_lost = [this](cluster::ClusterId site) { return lease_held(site); };
}

bool JobExecution::is_held(const SlaveNode* node) const {
  return std::find(held_.begin() + static_cast<std::ptrdiff_t>(held_cursor_), held_.end(),
                   node) != held_.end();
}

void JobExecution::unhold(SlaveNode* node) {
  std::replace(held_.begin() + static_cast<std::ptrdiff_t>(held_cursor_), held_.end(), node,
               static_cast<SlaveNode*>(nullptr));
  while (held_cursor_ < held_.size() && !held_[held_cursor_]) ++held_cursor_;
}

bool JobExecution::fault_hits(const SlaveNode* node) const {
  return !ctx_.recorder.finished && node->alive() && !is_held(node);
}

bool JobExecution::lease_held(std::optional<cluster::ClusterId> lost_site) {
  // A replacement must be on the lost node's site: it pulls the lost node's
  // re-pooled chunks from that site's master. Lease order is fixed (build
  // order) for determinism.
  auto it = std::find_if(held_.begin() + static_cast<std::ptrdiff_t>(held_cursor_),
                         held_.end(), [lost_site](const SlaveNode* node) {
                           return node && node->alive() &&
                                  (!lost_site || node->site() == *lost_site);
                         });
  if (it == held_.end()) return false;
  SlaveNode* node = *it;
  unhold(node);

  const RunOptions& options = ctx_.options;
  const double boot_seconds = options.elastic.enabled ? options.elastic.boot_seconds
                                                      : options.migration.boot_seconds;
  // The leased node bills from the moment it comes up.
  ctx_.recorder.cloud_rentals.push_back(
      {node->endpoint(), ctx_.now_seconds() - ctx_.job_start_seconds + boot_seconds});
  if (lost_site) {
    ++ctx_.recorder.lifecycle.replacements_leased;
    boot(node, boot_seconds, trace::EventKind::JobMigrated, node->name(), *lost_site);
  } else {
    ++ctx_.recorder.elastic_activations;
    boot(node, boot_seconds, trace::EventKind::InstanceActivated, "node", 0);
  }
  // A leased node is itself a spot instance: give it its own reclaim draw,
  // measured from the lease.
  if (options.spot.reclaim_rate_per_hour > 0.0) draw_spot_reclaim(node);
  return true;
}

void JobExecution::boot(SlaveNode* node, double boot_seconds, trace::EventKind kind,
                        std::string actor, std::uint64_t a) {
  MasterNode* master = master_of(node->site());
  // Booting: no push target yet, but counted as capacity that will pull.
  master->mark_leased(node->endpoint());
  platform_.sim().schedule(
      des::from_seconds(boot_seconds),
      [this, node, master, kind, actor = std::move(actor), a] {
        master->mark_booted(node->endpoint());
        if (ctx_.recorder.finished || !node->alive()) return;
        ctx_.trace(kind, actor, a, 0);
        node->start();
      });
}

void JobExecution::setup_elastic() {
  // The controller watches progress and leases held nodes when the deadline
  // is at risk.
  const RunOptions& options = ctx_.options;
  if (!options.elastic.enabled || held_.empty()) return;
  const auto total_chunks = ctx_.layout.chunks().size();
  // Each pending check event owns the controller; the controller reaches
  // itself only weakly, so it is freed with the last event.
  auto controller = std::make_shared<std::function<void()>>();
  *controller = [this, self = std::weak_ptr(controller), total_chunks] {
    const RunOptions& opts = ctx_.options;
    if (ctx_.recorder.finished) return;  // run over: stop rescheduling
    const double now = ctx_.now_seconds();
    // Progress is measured over the job's own lifetime, not absolute sim
    // time — a workload job submitted late would otherwise look slow.
    const double elapsed = now - start_time_;
    std::size_t done = 0;
    for (const auto& n : ctx_.recorder.nodes) done += n.jobs;
    if (done < total_chunks) {
      // Projected completion at the current throughput. Before the first
      // job lands the projection is unknown: scale only once the deadline
      // itself has already slipped.
      const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
      const double remaining = static_cast<double>(total_chunks - done);
      const bool misses_deadline =
          rate > 0.0 ? elapsed + remaining / rate > opts.elastic.deadline_seconds
                     : elapsed > opts.elastic.deadline_seconds;
      for (std::uint32_t k = 0; misses_deadline && k < opts.elastic.activation_step; ++k) {
        if (!lease_held(std::nullopt)) break;
      }
    }
    if (held_cursor_ == held_.size()) return;  // nothing left to lease
    ctx_.sim().schedule(des::from_seconds(opts.elastic.check_interval_seconds),
                        [controller = self.lock()] { (*controller)(); });
  };
  platform_.sim().schedule(des::from_seconds(options.elastic.check_interval_seconds),
                           [controller] { (*controller)(); });
}

void JobExecution::start() {
  start_time_ = ctx_.now_seconds();
  ctx_.job_start_seconds = start_time_;
  for (auto& master : masters_) master->start();
  for (SlaveNode* slave : initial_active_) slave->start();
  if (repair_) repair_->start();
}

RunResult JobExecution::collect(bool use_platform_store_stats) {
  // Prefetches nobody consumed were wasted WAN work; settle them now that
  // every in-flight transfer has drained.
  for (cluster::ClusterId site = 0; site < ctx_.prefetchers.size(); ++site) {
    if (ctx_.prefetchers[site]) {
      ctx_.recorder.clusters[site].prefetch_wasted +=
          static_cast<std::uint32_t>(ctx_.prefetchers[site]->finish());
    }
  }

  // The actors' counters move into the result (end_time and finished stay on
  // the recorder); only the derived fields remain to fill in.
  RunResult result = std::move(ctx_.recorder);
  result.total_time = ctx_.recorder.end_time - start_time_;
  result.robj = head_->take_robj();
  if (ctx_.options.replication && replication_built_here_) {
    // Snapshot the live extra-copy bytes: the cost model bills them as extra
    // resident storage. Only the building job carries them so a workload
    // sharing one set does not bill the same copies once per tenant.
    result.replica.extra_replica_bytes = ctx_.options.replication->extra_bytes_per_store();
  }
  result.store_requests.resize(platform_.store_count());
  for (storage::StoreId s = 0; s < platform_.store_count(); ++s) {
    if (use_platform_store_stats) {
      result.store_requests[s] = platform_.store(s).stats().requests;
    } else {
      // Concurrent jobs share the stores, so the store's global counter mixes
      // tenants; this job's own per-site attempt counts are the right share.
      std::uint64_t requests = 0;
      for (const auto& per_site : result.store_traffic) requests += per_site[s].requests;
      result.store_requests[s] = requests;
    }
    const auto& store_spec =
        platform_.spec().sites.at(platform_.owner_of_store(s)).store;
    if (store_spec && store_spec->kind == cluster::StoreSpec::Kind::Object) {
      result.s3_get_requests +=
          result.store_requests[s] * std::max(1u, ctx_.options.retrieval_streams);
    }
  }
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    result.clusters[site].name = platform_.site_name(site);
  }

  for (const auto& node : result.nodes) {
    auto& c = result.clusters[static_cast<std::size_t>(node.cluster)];
    c.processing += node.processing;
    c.retrieval += node.retrieval;
    // Sync: waiting for assignments during the run plus the tail between the
    // node's last job and the end of the global reduction.
    c.sync += node.wait + (ctx_.recorder.end_time - node.finish_time);
    c.proc_end_time = std::max(c.proc_end_time, node.finish_time);
    ++c.nodes;
  }
  for (auto& c : result.clusters) {
    if (c.nodes > 0) {
      c.processing /= c.nodes;
      c.retrieval /= c.nodes;
      c.sync /= c.nodes;
    }
  }

  // Idle time: how long each cluster waited for the other to finish
  // processing; global reduction time: the tail after the later one.
  double last_proc_end = 0.0;
  for (const auto& c : result.clusters) {
    if (c.nodes > 0) last_proc_end = std::max(last_proc_end, c.proc_end_time);
  }
  for (auto& c : result.clusters) {
    c.idle_time = c.nodes > 0 ? last_proc_end - c.proc_end_time : 0.0;
  }
  result.global_reduction_time = ctx_.recorder.end_time - last_proc_end;
  return result;
}

}  // namespace cloudburst::middleware
