// Benchmark workload runner for the simulator.
//
// Builds one named workload from a seed, then alternates set-up and run
// until the time budget is spent (or for an exact rep count, which the
// traced pass needs so that two instrumented runs do identical work). Each
// set-up is split into the layer spans the benchmark times itself; each run
// reports its CPU time, the host-speed sampler's mean slice time over it, the
// layer counters readable through public accessors and the simulated outputs
// run.py checks against pins.json. One JSON document is printed on stdout.
//
//   perfbench_workloads --workload fleet|paper|full_stack --seed N
//                       (--seconds S | --reps N) [--setup-reps K]
//
// Workloads (why each exists: see README.md):
//   fleet       perf_engine's full shape: 500 nodes, 50 FairShare jobs x
//               2000 chunks, shared LRU cache + prefetch, faulted S3 stores
//               with retry/hedge, spot reclaim and drains.
//   paper       one pass = Fig. 3 (3 apps x 5 envs) + Fig. 4 (3 apps x 4
//               scalability points), each a fresh two-site platform.
//   full_stack  three sites, two tenants, every optional layer on: k=2
//               cross-site replication + repair, StoreQos weights and a
//               reservation, directory + shared NodePool, a seeded chaos
//               plan and an in-memory workload tracer.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/combiners.hpp"
#include "apps/experiments.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "engine/memory_dataset.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;
using Clock = std::chrono::steady_clock;

/// CPU seconds of the calling thread. Host times are measured this way, so
/// the sampler below, which shares the core, is not charged to the workload.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- host-speed sampler ------------------------------------------------------
// On a shared host one core's speed drifts by tens of percent within seconds,
// with other tenants' load, and each core drifts on its own. The sampler pins
// itself and the workload thread to one core. Every 25 ms it runs a fixed
// slice of work shaped like the DES hot path: a binary heap of timed events
// plus hash-map and tree churn. It records that slice's CPU time. A rep's CPU
// time divided by the mean slice time during the rep (run_rel) cancels the
// drift. A change to the simulator moves the rep and leaves the slice alone.

class HostSpeedSampler {
 public:
  HostSpeedSampler() {
    // Best effort: unpinned, the samples still track the host, less closely.
    const int cpu = sched_getcpu();
    cpu_set_t core;
    CPU_ZERO(&core);
    if (cpu >= 0) {
      CPU_SET(cpu, &core);
      pthread_setaffinity_np(pthread_self(), sizeof(core), &core);
    }
    thread_ = std::thread([this, cpu, core] {
      if (cpu >= 0) pthread_setaffinity_np(pthread_self(), sizeof(core), &core);
      sample_until_stopped();
    });
  }
  ~HostSpeedSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  HostSpeedSampler(const HostSpeedSampler&) = delete;
  HostSpeedSampler& operator=(const HostSpeedSampler&) = delete;

  /// Mean slice CPU seconds over the slices that ended in [from, to]; 0 if
  /// none did.
  double mean_slice_seconds(Clock::time_point from, Clock::time_point to) {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    int n = 0;
    for (const auto& [at, seconds] : slices_) {
      if (at >= from && at <= to) {
        sum += seconds;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  }

 private:
  void sample_until_stopped() {
    using Event = std::pair<double, std::uint64_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<std::uint64_t, double> by_id;
    std::map<std::uint64_t, double> ordered;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    std::uint64_t id = 0;
    for (; id < 4000; ++id) {
      queue.push({next(), id});
      by_id[id] = 0.0;
      ordered[id] = 0.0;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const double cpu0 = thread_cpu_seconds();
      for (int i = 0; i < 3000; ++i, ++id) {
        const auto [now, key] = queue.top();
        queue.pop();
        by_id.erase(key);
        ordered.erase(key);
        queue.push({now + next(), id});
        by_id[id] = now;
        ordered[id] = now;
      }
      const double seconds = thread_cpu_seconds() - cpu0;
      lock.lock();
      slices_.emplace_back(Clock::now(), seconds);
      wake_.wait_for(lock, std::chrono::milliseconds(25), [this] { return stop_; });
    }
  }

  std::mutex mutex_;  ///< guards stop_ and slices_
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, double>> slices_;
  std::thread thread_;
};

// --- minimal JSON emission ---------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Flat JSON object built field by field; values are pre-rendered.
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& rendered) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + rendered;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return add(key, ::num(v)); }
  Obj& str(const std::string& key, const std::string& v) { return add(key, quote(v)); }
  Obj& flag(const std::string& key, bool v) { return add(key, v ? "true" : "false"); }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

// --- per-rep records ---------------------------------------------------------

/// Set-up spans the benchmark times around its own calls into each layer.
struct SetupSpans {
  double cluster_build = 0.0;
  double storage_layout = 0.0;
  double directory_bootstrap = 0.0;
  double workload_submit = 0.0;

  double total() const {
    return cluster_build + storage_layout + directory_bootstrap + workload_submit;
  }
  std::string json() const {
    return Obj()
        .num("cluster.build_s", cluster_build)
        .num("storage.layout_s", storage_layout)
        .num("directory.bootstrap_s", directory_bootstrap)
        .num("workload.submit_s", workload_submit)
        .num("total_s", total())
        .render();
  }
};

/// Times one set-up step into `slot`.
template <typename F>
void timed(double& slot, F&& step) {
  const double cpu0 = thread_cpu_seconds();
  step();
  slot += thread_cpu_seconds() - cpu0;
}

/// Layer counters read through public accessors after a run.
struct Counters {
  double events_executed = 0;
  double bytes_carried = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double prefetch_issued = 0, prefetch_wasted = 0;
  double store_gets = 0, fetch_retries = 0, hedges_issued = 0, hedges_won = 0;
  double chunks_processed = 0;
  double qos_throttled = 0, qos_wait_s = 0;
  double replica_repairs = 0;
  double pool_cold_boots = 0, pool_warm_leases = 0, pool_boot_wait_s = 0;
  double chaos_events = 0;

  void add_run(const middleware::RunResult& run) {
    prefetch_issued += run.prefetch_issued();
    prefetch_wasted += run.prefetch_wasted();
    for (std::uint64_t r : run.store_requests) store_gets += static_cast<double>(r);
    fetch_retries += run.fetch_retries();
    hedges_issued += run.hedges_issued();
    hedges_won += run.hedges_won();
    chunks_processed += run.total_jobs();
    qos_throttled += run.qos_throttled();
    qos_wait_s += run.qos_wait_seconds();
    replica_repairs += run.replica.replicas_repaired;
  }
  void add_platform(cluster::Platform& platform) {
    events_executed += static_cast<double>(platform.sim().executed_events());
    net::Network& network = platform.network();
    for (net::LinkId l = 0; l < network.link_count(); ++l) {
      bytes_carried += network.link(l).bytes_carried;
    }
  }
  void add_workload(const workload::WorkloadResult& result) {
    for (const auto& job : result.jobs) add_run(job.run);
    pool_cold_boots += result.pool.cold_boots;
    pool_warm_leases += result.pool.warm_leases;
    pool_boot_wait_s += result.pool.boot_wait_seconds;
  }

  std::string json() const {
    return Obj()
        .num("des.events_executed", events_executed)
        .num("net.bytes_carried", bytes_carried)
        .num("cache.hits", cache_hits)
        .num("cache.misses", cache_misses)
        .num("cache.evictions", cache_evictions)
        .num("cache.prefetches_issued", prefetch_issued)
        .num("cache.prefetches_wasted", prefetch_wasted)
        .num("storage.gets", store_gets)
        .num("storage.fetch_retries", fetch_retries)
        .num("storage.hedges_issued", hedges_issued)
        .num("storage.hedges_won", hedges_won)
        .num("middleware.chunks_processed", chunks_processed)
        .num("qos.throttled", qos_throttled)
        .num("qos.wait_s", qos_wait_s)
        .num("replica.repairs", replica_repairs)
        .num("workload.pool_cold_boots", pool_cold_boots)
        .num("workload.pool_warm_leases", pool_warm_leases)
        .num("workload.pool_boot_wait_s", pool_boot_wait_s)
        .num("chaos.events_fired", chaos_events)
        .render();
  }
};

/// One simulated job's outcome. `values` are compared against the pins at
/// the pinned seed; `finished` and `invariants_ok` are checked at every seed.
struct JobOutcome {
  std::string name;
  bool finished = false;
  bool invariants_ok = true;
  std::string detail;
  Obj values;

  std::string json() const {
    return Obj()
        .str("name", name)
        .flag("finished", finished)
        .flag("invariants_ok", invariants_ok)
        .str("detail", detail)
        .add("values", values.render())
        .render();
  }
};

struct RunRecord {
  double run_s = 0.0;
  Counters counters;
  std::vector<JobOutcome> jobs;
};

/// Workload-level invariant failures mark every job of the rep failed.
void fail_all(std::vector<JobOutcome>& jobs, const std::string& detail) {
  for (auto& job : jobs) {
    job.invariants_ok = false;
    job.detail += (job.detail.empty() ? "" : "; ") + detail;
  }
}

/// Outcomes shared by the workload-manager workloads: per-job finish time
/// and attributed bill, with "finished" meaning admitted and every chunk
/// processed at least once.
std::vector<JobOutcome> job_outcomes(const workload::WorkloadResult& result,
                                     std::uint32_t chunks_per_job) {
  std::vector<JobOutcome> jobs;
  for (const auto& job : result.jobs) {
    JobOutcome out;
    out.name = job.name;
    out.finished = !job.rejected && job.finish_seconds > 0.0 &&
                   job.run.total_jobs() >= chunks_per_job;
    out.values.num("finish_s", job.finish_seconds)
        .num("bill_usd", job.attributed_cost.total_usd());
    jobs.push_back(std::move(out));
  }
  const auto bills = chaos::audit_bills(result);
  if (!bills.ok) fail_all(jobs, "bills: " + bills.detail);
  return jobs;
}

// --- fleet -------------------------------------------------------------------
// Mirrors bench/perf_engine.cpp's full (non --quick) configuration; the pinned
// makespan proves the two stay the same workload.

constexpr std::size_t kFleetJobs = 50;
constexpr std::uint32_t kFleetFiles = 40;
constexpr std::uint32_t kFleetChunksPerFile = 50;
constexpr std::uint32_t kFleetChunksPerJob = kFleetFiles * kFleetChunksPerFile;
constexpr std::uint64_t kFleetArrivalSeed = 42;

cluster::PlatformSpec fleet_spec(std::uint64_t seed) {
  cluster::PlatformSpec spec;
  spec.sites.push_back(cluster::PlatformSpec::paper_local_site(800));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(400, "cloudA"));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(400, "cloudB"));
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));
  spec.set_wan(1, 2, MBps(80), des::from_seconds(ms(40)));
  spec.node_speed_jitter = 0.03;
  for (cluster::ClusterId provider : {1u, 2u}) {
    storage::FaultProfile& fault = spec.store(provider).fault;
    fault.fail_probability = 0.01;
    fault.throttles.push_back({5.0, 20.0, 0.5, 0.05});
    fault.seed = seed ^ (0xfa017u + provider);
  }
  return spec;
}

middleware::RunOptions fleet_job_options(std::uint64_t seed, std::size_t job_index,
                                         cache::CacheFleet* fleet) {
  middleware::RunOptions o;
  o.profile.name = "perf";
  o.profile.unit_bytes = 64;
  o.profile.bytes_per_second_per_core = MBps(8);
  o.profile.robj_bytes = KiB(64);
  o.random_seed = seed + job_index;
  o.retrieval_streams = 4;
  o.cache = fleet;
  o.retry.max_attempts = 3;
  o.retry.backoff_base_seconds = 0.05;
  o.retry.attempt_timeout_seconds = 20.0;
  o.retry.hedge_delay_seconds = 10.0;
  o.retry.seed = seed ^ 0xbac0ff;
  o.reduction_tree = false;
  o.checkpoint_interval_seconds = 2.0;
  o.spot.reclaim_rate_per_hour = 1.0;
  o.spot.notice_seconds = 5.0;
  using Lifecycle = middleware::RunOptions::LifecycleEvent;
  if (job_index % 10 == 3) {
    Lifecycle ev;
    ev.kind = Lifecycle::Kind::Drain;
    ev.site = 1;
    ev.node_index = static_cast<std::uint32_t>(job_index % 5);
    ev.at_seconds = 2.0;
    o.lifecycle.push_back(ev);
  }
  if (job_index % 10 == 7) {
    Lifecycle ev;
    ev.kind = Lifecycle::Kind::SpotReclaim;
    ev.site = 2;
    ev.node_index = static_cast<std::uint32_t>(job_index % 5);
    ev.at_seconds = 1.5;
    ev.notice_seconds = 3.0;
    o.lifecycle.push_back(ev);
  }
  return o;
}

class Fleet {
 public:
  static constexpr double kChunksPerRep = double(kFleetJobs) * kFleetChunksPerJob;

  Fleet(std::uint64_t seed, SetupSpans& spans) {
    timed(spans.cluster_build,
          [&] { platform_ = std::make_unique<cluster::Platform>(fleet_spec(seed)); });
    storage::DataLayout layout;
    timed(spans.storage_layout, [&] {
      storage::LayoutSpec spec;
      spec.num_files = kFleetFiles;
      spec.chunks_per_file = kFleetChunksPerFile;
      spec.unit_bytes = 64;
      spec.total_bytes = std::uint64_t{kFleetChunksPerJob} * KiB(256);
      layout = storage::build_layout(spec);
      storage::assign_stores_by_weights(
          layout, {0.2, 0.4, 0.4},
          {platform_->store_of_cluster(0), platform_->store_of_cluster(1),
           platform_->store_of_cluster(2)});
    });
    timed(spans.workload_submit, [&] {
      cache::CacheConfig cache_config;
      cache_config.capacity_bytes = GiB(2);
      cache_config.policy = cache::EvictionPolicy::Lru;
      cache_config.prefetch.enabled = true;
      cache_config.prefetch.depth = 2;
      cache_ = std::make_unique<cache::CacheFleet>(cache_config);

      workload::WorkloadOptions wopts;
      wopts.policy = workload::SchedulingPolicy::FairShare;
      wopts.tenant_weights = {{"interactive", 4.0}, {"batch", 1.0}};
      wopts.max_concurrent = 6;
      manager_ = std::make_unique<workload::WorkloadManager>(*platform_, wopts);
      // The arrival trace stays perf_engine's canonical one at every seed:
      // arrivals set how many jobs overlap, hence the size of the rebalance
      // components, and a per-seed trace moves the cost of a rep by +-15%.
      // The seed still drives the store-fault, retry and spot draws.
      const workload::ArrivalTrace arrivals =
          workload::ArrivalTrace::poisson(kFleetJobs, 0.5, kFleetArrivalSeed);
      for (std::size_t i = 0; i < kFleetJobs; ++i) {
        workload::JobSpec spec;
        spec.tenant = i % 2 == 0 ? "interactive" : "batch";
        spec.name = spec.tenant[0] + std::to_string(i + 1);
        spec.layout = layout;
        spec.options = fleet_job_options(seed, i, cache_.get());
        manager_->submit(std::move(spec), arrivals.at(i));
      }
    });
  }

  RunRecord run() {
    RunRecord rec;
    const double cpu0 = thread_cpu_seconds();
    const workload::WorkloadResult result = manager_->run();
    rec.run_s = thread_cpu_seconds() - cpu0;

    Counters& c = rec.counters;
    c.add_platform(*platform_);
    c.add_workload(result);
    c.cache_hits = static_cast<double>(cache_->hits());
    c.cache_misses = static_cast<double>(cache_->misses());
    for (std::uint32_t site = 0; site < platform_->spec().sites.size(); ++site) {
      c.cache_evictions += static_cast<double>(cache_->site(site).evictions());
    }

    rec.jobs = job_outcomes(result, kFleetChunksPerJob);
    JobOutcome total;
    total.name = "workload";
    total.finished = result.jobs.size() == kFleetJobs;
    total.values.num("makespan_s", result.makespan)
        .num("platform_bill_usd", result.platform_cost.total_usd())
        .num("cache_hits", c.cache_hits);
    rec.jobs.push_back(std::move(total));
    return rec;
  }

 private:
  std::unique_ptr<cluster::Platform> platform_;
  std::unique_ptr<cache::CacheFleet> cache_;
  std::unique_ptr<workload::WorkloadManager> manager_;
};

// --- paper -------------------------------------------------------------------
// The same composition as apps::run_env / apps::run_scalability, called step
// by step so that platform build, layout and run are timed apart and the
// simulator's counters are readable. The pins equal fig3_* / fig4_scalability
// output, which proves the composition unchanged.

struct PaperPoint {
  std::string name;
  apps::PaperApp app;
  double local_fraction;
  unsigned local_cores;
  unsigned cloud_cores;
};

std::vector<PaperPoint> paper_points() {
  std::vector<PaperPoint> points;
  const apps::PaperApp kApps[] = {apps::PaperApp::Knn, apps::PaperApp::Kmeans,
                                  apps::PaperApp::PageRank};
  for (apps::PaperApp app : kApps) {
    for (apps::Env env : apps::kAllEnvs) {
      const apps::EnvConfig config = apps::env_config(env, app);
      points.push_back({std::string("fig3/") + apps::to_string(app) + "/" + config.name, app,
                        config.local_data_fraction, config.local_cores, config.cloud_cores});
    }
  }
  for (apps::PaperApp app : kApps) {
    for (unsigned cores : {4u, 8u, 16u, 32u}) {
      points.push_back({std::string("fig4/") + apps::to_string(app) + "/" +
                            std::to_string(cores),
                        app, 0.0, cores, cores});
    }
  }
  return points;
}

class Paper {
 public:
  static double chunks_per_rep() {
    // Every point runs the paper's 96-job dataset.
    return 96.0 * static_cast<double>(paper_points().size());
  }

  Paper(std::uint64_t seed, SetupSpans& spans) {
    for (const PaperPoint& p : paper_points()) {
      Point point;
      point.spec = p;
      timed(spans.cluster_build, [&] {
        point.platform = std::make_unique<cluster::Platform>(
            cluster::PlatformSpec::paper_testbed(p.local_cores, p.cloud_cores));
      });
      timed(spans.storage_layout, [&] {
        point.layout = apps::paper_layout(p.app, p.local_fraction,
                                          point.platform->local_store_id(),
                                          point.platform->cloud_store_id());
      });
      timed(spans.workload_submit, [&] {
        point.options = apps::paper_run_options(p.app);
        // The paper's default policies draw no random numbers, so the seed
        // leaves the paper's outputs unchanged.
        point.options.random_seed = seed;
      });
      points_.push_back(std::move(point));
    }
  }

  RunRecord run() {
    RunRecord rec;
    std::vector<middleware::RunResult> results;
    const double cpu0 = thread_cpu_seconds();
    for (Point& p : points_) {
      results.push_back(middleware::run_distributed(*p.platform, p.layout, p.options));
    }
    rec.run_s = thread_cpu_seconds() - cpu0;

    for (std::size_t i = 0; i < points_.size(); ++i) {
      const middleware::RunResult& r = results[i];
      rec.counters.add_platform(*points_[i].platform);
      rec.counters.add_run(r);
      JobOutcome out;
      out.name = points_[i].spec.name;
      out.finished = r.total_time > 0.0 && r.total_jobs() >= points_[i].layout.chunks().size();
      out.values.num("total_time", r.total_time);
      for (const auto& c : r.clusters) {
        if (c.nodes == 0) continue;
        out.values.num(c.name + ".processing", c.processing)
            .num(c.name + ".retrieval", c.retrieval)
            .num(c.name + ".sync", c.sync);
      }
      rec.jobs.push_back(std::move(out));
    }
    return rec;
  }

 private:
  struct Point {
    PaperPoint spec;
    std::unique_ptr<cluster::Platform> platform;
    storage::DataLayout layout;
    middleware::RunOptions options;
  };
  std::vector<Point> points_;
};

// --- full_stack --------------------------------------------------------------

constexpr std::uint32_t kStackFiles = 48;
constexpr std::uint32_t kStackChunksPerFile = 2;
constexpr std::uint32_t kStackChunks = kStackFiles * kStackChunksPerFile;
constexpr std::size_t kStackJobs = 8;
/// Seeded plans per rep, each on its own platform, as in the chaos soak test.
/// Averaging over plans keeps the cost of a rep about the same at every seed:
/// one plan alone moves it by +-10%, depending on how its faults overlap.
constexpr std::uint64_t kStackPlans = 8;

cluster::PlatformSpec stack_spec() {
  cluster::PlatformSpec spec;
  spec.sites.push_back(cluster::PlatformSpec::paper_local_site(32));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(24, "east"));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(24, "west"));
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));
  spec.set_wan(1, 2, MBps(60), des::from_seconds(ms(60)));
  // Cloud stores sit on their cluster's site, not behind a store fabric: the
  // platform routes no traffic between two fabric-attached stores, so a
  // cross-cloud replica repair would throw "no route" (see README.md).
  for (cluster::ClusterId provider : {1u, 2u}) spec.store(provider).fabric_bandwidth = 0.0;
  return spec;
}

/// Simulated chunks of 16 MiB; the real marker dataset carries one record per
/// 4 KiB unit, tagged with its chunk id, so each job's reduction object is its
/// per-chunk execution count.
storage::LayoutSpec stack_layout_spec() {
  storage::LayoutSpec spec;
  spec.num_files = kStackFiles;
  spec.chunks_per_file = kStackChunksPerFile;
  spec.unit_bytes = KiB(4);
  spec.total_bytes = std::uint64_t{kStackChunks} * MiB(16);
  return spec;
}

/// Seeded fault script, in a fixed order: a store outage on east, then a
/// brownout on each WAN link in turn, then a recovering blackout of west. The
/// seed jitters each time and depth within a one-second window, so every seed
/// runs the same sequence of faults and does about the same work. The
/// blackout starts well after the store outage ends: k=2 survives one failure
/// domain at a time, provided repair has restored the copies in between.
chaos::ChaosPlan stack_plan(std::uint64_t seed) {
  Rng rng(seed ^ 0xc4a05u);
  chaos::ChaosPlan plan;
  using Kind = chaos::ChaosEvent::Kind;
  chaos::ChaosEvent outage;
  outage.kind = Kind::StoreOutage;
  outage.site_a = 1;
  outage.at_seconds = rng.uniform(2.0, 3.0);
  outage.duration_seconds = rng.uniform(2.0, 3.0);
  plan.events.push_back(outage);
  const std::pair<cluster::ClusterId, cluster::ClusterId> links[] = {{0, 1}, {0, 2}, {1, 2}};
  double start = 7.0;
  for (const auto& [a, b] : links) {
    chaos::ChaosEvent ev;
    ev.kind = Kind::LinkFault;
    ev.site_a = a;
    ev.site_b = b;
    ev.at_seconds = rng.uniform(start, start + 1.0);
    ev.duration_seconds = rng.uniform(3.0, 4.0);
    ev.factor = rng.uniform(0.25, 0.35);
    plan.events.push_back(ev);
    start += 2.0;
  }
  chaos::ChaosEvent blackout;
  blackout.kind = Kind::SiteOutage;
  blackout.site_a = 2;
  blackout.at_seconds = rng.uniform(16.0, 17.0);
  blackout.duration_seconds = rng.uniform(4.0, 5.0);
  plan.events.push_back(blackout);
  return plan;
}

/// One seeded plan over its own three-site platform and workload manager.
class StackPlanRun {
 public:
  StackPlanRun(std::uint64_t seed, std::string prefix, const engine::MemoryDataset& data,
               SetupSpans& spans)
      : prefix_(std::move(prefix)), plan_(stack_plan(seed)) {
    timed(spans.cluster_build,
          [&] { platform_ = std::make_unique<cluster::Platform>(stack_spec()); });
    timed(spans.storage_layout, [&] {
      layout_ = storage::build_layout(stack_layout_spec());
      storage::assign_stores_by_weights(
          layout_, {1.0, 1.0, 1.0},
          {platform_->store_of_cluster(0), platform_->store_of_cluster(1),
           platform_->store_of_cluster(2)});
    });
    timed(spans.directory_bootstrap, [&] {
      directory_ = std::make_unique<directory::PlatformDirectory>(*platform_);
      directory_->bootstrap();
    });
    timed(spans.workload_submit, [&] {
      replica::ReplicationConfig rcfg;
      rcfg.replication_factor = 2;
      rcfg.placement = replica::PlacementPolicy::CrossSite;
      replicas_ = std::make_unique<replica::ReplicaSet>(rcfg);

      qos::QosConfig qcfg;
      qcfg.tenant_weights = {{"analytics", 1.0}, {"interactive", 3.0}};
      qos_ = std::make_unique<qos::StoreQos>(qcfg);
      qos_->attach(*platform_);
      reservation_granted_ =
          qos_->reserve("interactive", platform_->store_of_cluster(1), MBps(20), 0.0, 10.0);

      workload::WorkloadOptions wopts;
      wopts.policy = workload::SchedulingPolicy::FairShare;
      wopts.tenant_weights = {{"analytics", 1.0}, {"interactive", 2.0}};
      wopts.directory = directory_.get();
      wopts.tracer = &tracer_;
      wopts.pool.enabled = true;
      wopts.pool.boot_seconds = 2.0;
      manager_ = std::make_unique<workload::WorkloadManager>(*platform_, wopts);

      // All jobs start at t = 0: chaos times are relative to job
      // construction, and platform-scoped faults are idempotent across jobs.
      for (std::size_t i = 0; i < kStackJobs; ++i) {
        workload::JobSpec spec;
        spec.tenant = i % 3 == 0 ? "interactive" : "analytics";
        spec.name = spec.tenant.substr(0, 1) + std::to_string(i + 1);
        spec.layout = layout_;
        middleware::RunOptions& o = spec.options;
        o.profile.name = "full-stack";
        o.profile.unit_bytes = KiB(4);
        o.profile.bytes_per_second_per_core = MBps(4);
        o.profile.per_job_overhead_seconds = 0.05;
        o.profile.robj_bytes = KiB(16);
        o.reduction_tree = false;
        o.random_seed = seed + i;
        o.task = &task_;
        o.dataset = &data;
        o.retry.max_attempts = 4;
        o.retry.backoff_base_seconds = 0.05;
        o.replication = replicas_.get();
        o.qos = qos_.get();
        o.chaos = &plan_;
        manager_->submit(std::move(spec), 0.0);
      }
    });
  }

  /// Runs the workload, adding its time, counters and outcomes to `rec`.
  void run_into(RunRecord& rec) {
    const double cpu0 = thread_cpu_seconds();
    const workload::WorkloadResult result = manager_->run();
    rec.run_s += thread_cpu_seconds() - cpu0;

    Counters& c = rec.counters;
    c.add_platform(*platform_);
    c.add_workload(result);
    for (trace::EventKind kind :
         {trace::EventKind::LinkDown, trace::EventKind::LinkRestored,
          trace::EventKind::StoreOffline, trace::EventKind::StoreOnline,
          trace::EventKind::SiteOutage, trace::EventKind::SiteRecovered}) {
      c.chaos_events += static_cast<double>(tracer_.count(kind));
    }

    std::vector<JobOutcome> jobs = job_outcomes(result, kStackChunks);
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
      const middleware::RunResult& run = result.jobs[i].run;
      JobOutcome& out = jobs[i];
      if (!run.robj) {
        out.invariants_ok = false;
        out.detail += "no reduction object; ";
        continue;
      }
      const auto once = chaos::audit_exactly_once(executions(run));
      if (!once.ok) {
        out.invariants_ok = false;
        out.detail += "exactly-once: " + once.detail + "; ";
      }
    }

    // Repair runs in the background and stops with the run; driving it to
    // quiescence here shows the surviving copies can restore coverage.
    for (int round = 0; round < 256; ++round) {
      const auto tasks = replicas_->plan_repairs(8, 1e9);
      if (tasks.empty()) break;
      for (const auto& t : tasks) replicas_->repair_done(t, true, 1e9);
    }
    const auto coverage = chaos::audit_coverage(*replicas_, layout_);
    if (!coverage.ok) fail_all(jobs, "coverage: " + coverage.detail);
    if (!reservation_granted_) fail_all(jobs, "reservation rejected");

    JobOutcome total;
    total.name = "workload";
    total.finished = result.jobs.size() == kStackJobs;
    total.values.num("makespan_s", result.makespan)
        .num("platform_bill_usd", result.platform_cost.total_usd());
    for (const auto& tenant : result.tenants) {
      total.values.num("tenant." + tenant.tenant + ".bill_usd",
                       tenant.attributed_cost.total_usd());
    }
    jobs.push_back(std::move(total));
    for (JobOutcome& job : jobs) {
      job.name = prefix_ + job.name;
      rec.jobs.push_back(std::move(job));
    }
  }

 private:
  std::vector<std::uint32_t> executions(const middleware::RunResult& run) const {
    const auto& got = dynamic_cast<const api::HashCountRobj&>(*run.robj);
    std::vector<std::uint32_t> counts(layout_.chunks().size(), 0);
    for (const auto& chunk : layout_.chunks()) {
      const double units = static_cast<double>(chunk.units);
      const double raw = got.get(chunk.id);
      const double count = std::round(raw / units);
      // A partial merge is not a whole multiple: report it as a double count.
      counts[chunk.id] = std::fabs(count * units - raw) > 1e-6
                             ? 2u
                             : static_cast<std::uint32_t>(count);
    }
    return counts;
  }

  std::string prefix_;  ///< outcome-name prefix, one per plan of a rep
  chaos::ChaosPlan plan_;
  apps::WordCountTask task_;
  trace::Tracer tracer_;
  storage::DataLayout layout_;
  std::unique_ptr<cluster::Platform> platform_;
  std::unique_ptr<directory::PlatformDirectory> directory_;
  std::unique_ptr<replica::ReplicaSet> replicas_;
  std::unique_ptr<qos::StoreQos> qos_;
  std::unique_ptr<workload::WorkloadManager> manager_;
  bool reservation_granted_ = false;
};

class FullStack {
 public:
  static constexpr double kChunksPerRep = double(kStackPlans * kStackJobs) * kStackChunks;

  FullStack(std::uint64_t seed, SetupSpans& spans) {
    // The plans share one layout shape, hence one marker dataset.
    timed(spans.storage_layout, [&] {
      const storage::DataLayout layout = storage::build_layout(stack_layout_spec());
      std::vector<apps::WordRecord> records;
      for (const auto& chunk : layout.chunks()) {
        records.insert(records.end(), chunk.units, apps::WordRecord{chunk.id});
      }
      data_ = std::make_unique<engine::MemoryDataset>(
          engine::MemoryDataset::from_records(records));
    });
    for (std::uint64_t k = 0; k < kStackPlans; ++k) {
      plans_.push_back(std::make_unique<StackPlanRun>(
          seed * kStackPlans + k, "p" + std::to_string(k + 1) + "/", *data_, spans));
    }
  }

  RunRecord run() {
    RunRecord rec;
    for (auto& plan : plans_) {
      plan->run_into(rec);
      plan.reset();  // a finished plan's trace and results need not stay resident
    }
    return rec;
  }

 private:
  std::unique_ptr<engine::MemoryDataset> data_;
  std::vector<std::unique_ptr<StackPlanRun>> plans_;
};

// --- command line and measurement loop --------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;  ///< time budget for run reps (0 = use `reps`)
  int reps = 0;          ///< exact rep count (traced pass)
  int setup_reps = 1;    ///< minimum number of timed set-ups
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workloads: %s\nusage: perfbench_workloads --workload "
               "fleet|paper|full_stack --seed N (--seconds S | --reps N) "
               "[--setup-reps K]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--reps") {
      args.reps = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--setup-reps") {
      args.setup_reps = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload != "fleet" && args.workload != "paper" && args.workload != "full_stack") {
    usage("unknown workload");
  }
  if ((args.seconds > 0.0) == (args.reps > 0)) usage("give exactly one of --seconds, --reps");
  if (args.setup_reps < 1) usage("--setup-reps must be >= 1");
  return args;
}

double peak_rss_mib_now() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Set-up then run, repeated for the budget; extra set-ups (discarded
/// unrun) bring the set-up sample count up to --setup-reps.
template <typename W>
std::string measure(const Args& args, double chunks_per_rep) {
  std::vector<std::string> setups, runs;
  double run_total = 0.0;
  // Taken after the first rep: the memory one experiment needs. Later reps
  // only add allocator fragmentation, which grows with the rep count.
  double peak_rss_mib = 0.0;
  // The exact-rep mode is the profiled pass: no sampler to pollute it.
  std::unique_ptr<HostSpeedSampler> sampler;
  if (args.reps == 0) sampler = std::make_unique<HostSpeedSampler>();
  const auto done = [&] {
    const int n = static_cast<int>(runs.size());
    if (args.reps > 0) return n >= args.reps;
    // Stop before a rep that would overrun the budget (always run one).
    return n > 0 && run_total + run_total / n > args.seconds;
  };
  while (!done()) {
    SetupSpans spans;
    W workload(args.seed, spans);
    setups.push_back(spans.json());
    const auto rep_start = Clock::now();
    RunRecord rec = workload.run();
    const double slice_s = sampler ? sampler->mean_slice_seconds(rep_start, Clock::now()) : 0.0;
    run_total += rec.run_s;
    std::vector<std::string> jobs;
    for (const auto& job : rec.jobs) jobs.push_back(job.json());
    if (runs.empty()) peak_rss_mib = peak_rss_mib_now();
    runs.push_back(Obj()
                       .num("run_s", rec.run_s)
                       .num("slice_s", slice_s)
                       .add("counters", rec.counters.json())
                       .add("jobs", array(jobs))
                       .render());
  }
  while (static_cast<int>(setups.size()) < args.setup_reps) {
    SetupSpans spans;
    W workload(args.seed, spans);
    setups.push_back(spans.json());
  }

  bool instrumented = false;
#if defined(PERFBENCH_INSTRUMENTED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  instrumented = true;
#endif
  return Obj()
      .str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .str("compiler", __VERSION__)
      .flag("instrumented", instrumented)
      .num("chunks_per_rep", chunks_per_rep)
      .num("peak_rss_mib", peak_rss_mib)
      .add("setups", array(setups))
      .add("runs", array(runs))
      .render();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::string out;
  if (args.workload == "fleet") {
    out = measure<Fleet>(args, Fleet::kChunksPerRep);
  } else if (args.workload == "paper") {
    out = measure<Paper>(args, Paper::chunks_per_rep());
  } else {
    out = measure<FullStack>(args, FullStack::kChunksPerRep);
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
