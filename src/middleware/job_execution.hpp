// One job's complete actor tree (head, masters, slaves, prefetchers) on a
// possibly shared platform.
//
// run_distributed() builds exactly one of these and drains the simulator;
// workload::WorkloadManager builds one per concurrent job over the same
// Platform and lets their event streams interleave in a single DES run. The
// construction and event-scheduling order here is load-bearing: a solo
// JobExecution must replay run_distributed's historical sequence byte for
// byte (the PaperFidelity goldens pin it).
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "middleware/head_node.hpp"
#include "replica/repair.hpp"
#include "middleware/master_node.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "middleware/slave_node.hpp"
#include "net/messaging.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

/// Check that `options` can run on `platform` over `layout`; throws
/// std::invalid_argument otherwise. run_distributed calls this itself; a
/// workload manager calls it per job at submission so a bad spec fails fast
/// instead of mid-simulation.
void validate_run(const cluster::Platform& platform, const storage::DataLayout& layout,
                  const RunOptions& options);

class JobExecution {
 public:
  /// How this job's actors get their mailboxes. A standalone run registers
  /// straight with the postman; a workload installs demultiplexing mailboxes
  /// (several jobs' actors share each endpoint) and routes by Message::job.
  using MailboxRegistrar =
      std::function<void(net::EndpointId, std::function<void(net::EndpointId, Message)>)>;

  /// Builds the full actor tree and schedules the job's self-driving events
  /// (node faults, elastic controller ticks, chaos windows) — everything
  /// short of the first master/slave action, which start() triggers. The
  /// referenced platform/layout/options/postman must outlive this object.
  JobExecution(cluster::Platform& platform, const storage::DataLayout& layout,
               const RunOptions& options, net::Postman<Message>& postman,
               const MailboxRegistrar& register_mailbox, std::uint32_t job_id = 0,
               std::string trace_tag = {}, SlotArbiter* arbiter = nullptr,
               std::function<void()> on_finished = {});

  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;
  ~JobExecution();

  /// Cross-job drain entry point (workload manager): begin draining the
  /// slave this job runs on `ep`. Returns false when the job has no live,
  /// non-draining slave there (tree-mode job, already vacated, never built,
  /// held back) — the caller must not wait for a vacate from it.
  bool drain_node(net::EndpointId ep);

  /// Launch the masters and the initially-active slaves. The job then runs
  /// as the shared simulator executes; ctx().on_finished fires when the
  /// head completes the global reduction.
  void start();

  bool finished() const { return ctx_.recorder.finished; }
  /// Sim time the head completed the run (valid once finished()).
  double end_time() const { return ctx_.recorder.end_time; }
  /// Sim time start() ran (0.0 until then — and for standalone runs).
  double start_time() const { return start_time_; }
  RunContext& ctx() { return ctx_; }

  /// Settle the prefetchers and aggregate the RunResult. Call once, after the
  /// simulator drained (standalone) or after the whole workload finished, so
  /// in-flight transfers have landed: the recorder's counters move into the
  /// result. `use_platform_store_stats` keeps the
  /// historical store_requests source (the store's own global counters) for
  /// solo runs; a workload passes false to use this job's own counts.
  RunResult collect(bool use_platform_store_stats = true);

 private:
  void setup_chunk_offsets();
  /// Resolve this job's platform membership: per-site node lists filtered
  /// through the service directory (Active only) and, on cloud sites under a
  /// pool plan, down to the leased nodes. Without a directory or plan the
  /// lists equal the platform's — default runs are byte-identical.
  void resolve_membership();
  /// Subscribe to the directory's change feed (store retirement marks the
  /// store's replicas lost so the repair actor re-replicates).
  void setup_directory();
  /// Elastic-pool leases: a lease still booting starts once warm (per-job
  /// instance billing is off; the pool's lease windows are the record).
  void setup_pool();
  /// Attach the StoreQos (if any): bind store capacities, resolve this run's
  /// tenant id, and apply per-tenant cache shares to the fleet.
  void setup_qos();
  /// Attach the caller-owned ReplicaSet (first attach builds placement and
  /// emits the initial ReplicaCreated events) and construct the background
  /// repair actor.
  void setup_replication();
  void build_prefetchers();
  void build_actors(const MailboxRegistrar& register_mailbox);
  void apply_static_assignment();
  /// Fill the held-back list (elastic: the cloud slaves beyond
  /// initial_cloud_nodes; migration: the last standby_nodes cloud slaves),
  /// mark each dormant at its master, launch everyone else at start(), bill
  /// the cloud slaves among them from 0 (unless pooled), and install the
  /// on_node_lost hook that leases a same-site held node.
  void hold_back();
  /// Elastic deadline controller: leases held nodes while the projected
  /// completion misses the deadline; retires once nothing is held back.
  void setup_elastic();
  /// Schedule every fault of the run, in this order: RunOptions::lifecycle
  /// (a target this job did not build is a logic_error), the spot-reclaim
  /// draws (one per rented cloud node), then RunOptions::chaos.
  void schedule_faults();
  /// The one fault dispatcher, whichever front end names the event: link,
  /// store and site windows, and node crash/drain/reclaim events (a target
  /// this job did not build misses quietly).
  void schedule_fault(const chaos::ChaosEvent& ev);
  /// Link window: down drops each of `links` to `factor` of nominal capacity
  /// and marks `suspects` in the route oracle, up restores it; each link traces.
  void links_down(const std::vector<net::LinkId>& links, double factor,
                  std::initializer_list<cluster::ClusterId> suspects);
  void links_up(const std::vector<net::LinkId>& links);
  /// Store window: `store` goes offline (and suspect), then serves again;
  /// each step traces only when the store's state changes.
  void store_down(storage::StoreId store);
  void store_up(storage::StoreId store);
  /// Site blackout: links cut, store dark, directory services retired, slaves
  /// crashed (held ones unheld) and their flows cancelled, master evacuated
  /// and the head told to re-grant its uncommitted work.
  void begin_site_outage(cluster::ClusterId site);
  /// Window end: links back to nominal capacity, store online, directory
  /// services re-registered (fresh generation) for future placement. Nodes
  /// killed by the outage stay dead for this job.
  void recover_site(cluster::ClusterId site);
  /// The one way any fault crashes a node: if fault_hits, trace SlaveFailed
  /// by `actor`, count nodes_crashed and kill. False when the guard spared it.
  bool crash(SlaveNode* node, const std::string& actor);
  /// The only place a node fault is scheduled, whichever front end asked
  /// (lifecycle, spot draw, chaos node kind). `kind` is NodeCrash (guarded
  /// kill, then detection `failure_detection_seconds` later), NodeDrain
  /// (drain notice) or SpotReclaim (drain notice plus a hard kill
  /// `notice_seconds` later). `at_seconds` is relative to now.
  void schedule_node_fault(chaos::ChaosEvent::Kind kind, SlaveNode* victim,
                           double at_seconds, double notice_seconds);
  /// One exponential spot-reclaim draw for `node` from the next substream
  /// (a held node consumes its stream but is not scheduled).
  void draw_spot_reclaim(SlaveNode* node);
  /// A held node has not been rented yet (it is neither billed nor started).
  bool is_held(const SlaveNode* node) const;
  /// The one node-fault guard (crash, site blackout, drain notice, reclaim
  /// kill, cross-job drain): a fault misses a node once the run finished, a
  /// node that is already dead (vacated, crashed), and a held node — an
  /// instance that was never rented cannot fail.
  bool fault_hits(const SlaveNode* node) const;
  /// Lease the first live held node — any site for the elastic controller,
  /// `lost_site` for a replacement of a lost node — bill it from the end of
  /// its boot and boot it. False when none is left.
  bool lease_held(std::optional<cluster::ClusterId> lost_site);
  /// Take `node` out of the held-back list (leased, or lost with its site).
  void unhold(SlaveNode* node);
  /// The one boot path (held leases, booting pool leases): the master counts
  /// `node` as booting capacity now; `boot_seconds` later it is a push target
  /// and, unless the run finished or the node died meanwhile, it traces
  /// (`kind`, `actor`, `a`) and starts.
  void boot(SlaveNode* node, double boot_seconds, trace::EventKind kind, std::string actor,
            std::uint64_t a);
  SlaveNode* slave_by_endpoint(net::EndpointId ep);
  /// This job's slave on platform node `node_index` of `site` (null when the
  /// job did not build one).
  SlaveNode* slave_at(cluster::ClusterId site, std::uint32_t node_index);
  MasterNode* master_of(cluster::ClusterId site);

  cluster::Platform& platform_;
  RunContext ctx_;
  double start_time_ = 0.0;

  /// Per-site membership this job was built with (see resolve_membership).
  std::vector<std::vector<cluster::NodeHandle>> site_nodes_;
  /// Directory change-feed subscription (0 = none).
  directory::PlatformDirectory::WatchId directory_watch_ = 0;

  std::vector<HeadNode::MasterInfo> master_infos_;
  std::vector<std::unique_ptr<MasterNode>> masters_;
  std::vector<std::unique_ptr<SlaveNode>> slaves_;
  std::unique_ptr<HeadNode> head_;
  /// Replication only: background re-replicator (null otherwise).
  std::unique_ptr<replica::RepairActor> repair_;
  /// True when this execution's attach() built the set — that job (and only
  /// that job, under a shared workload set) bills the replica storage.
  bool replication_built_here_ = false;
  /// Held-back cloud slaves in lease order; a leased entry is nulled and
  /// `held_cursor_` is the first entry not yet leased.
  std::vector<SlaveNode*> held_;
  std::size_t held_cursor_ = 0;
  /// Slaves start() launches (everyone, minus held and booting ones).
  std::vector<SlaveNode*> initial_active_;
  /// Next Rng substream id for stochastic spot draws (initial nodes first,
  /// then one fresh draw per leased replacement).
  std::uint64_t spot_streams_used_ = 0;
};

}  // namespace cloudburst::middleware
