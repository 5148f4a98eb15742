// Tests for elastic bursting: deadline-driven activation of dormant cloud
// instances, boot latency, billing from activation, and correctness of real
// execution with mid-run scale-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "chaos/chaos_plan.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "middleware/job_execution.hpp"
#include "middleware/runtime.hpp"
#include "replica/replica_set.hpp"
#include "trace/trace.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;

/// Rig: small local cluster, large dormant cloud pool, slow jobs.
struct ElasticRig {
  storage::DataLayout layout;
  RunOptions options;

  ElasticRig() {
    storage::LayoutSpec spec;
    spec.total_bytes = MiB(1536);
    spec.num_files = 8;
    spec.chunks_per_file = 3;
    spec.unit_bytes = 64;
    layout = storage::build_layout(spec);
    storage::assign_stores_by_fraction(layout, 0.0, 0, 1);  // all data in S3

    options.profile.name = "elastic-test";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(2);
    options.profile.robj_bytes = KiB(64);
    options.reduction_tree = false;
    options.elastic.enabled = true;
    options.elastic.initial_cloud_nodes = 1;
    options.elastic.check_interval_seconds = 2.0;
    options.elastic.boot_seconds = 10.0;
    options.elastic.activation_step = 2;
  }

  RunResult run(double deadline, unsigned local_cores = 8, unsigned cloud_cores = 16) {
    options.elastic.deadline_seconds = deadline;
    Platform platform(PlatformSpec::paper_testbed(local_cores, cloud_cores));
    return run_distributed(platform, layout, options);
  }
};

TEST(Elastic, LooseDeadlineBootsNothing) {
  ElasticRig rig;
  const auto result = rig.run(/*deadline=*/1e6);
  // One initial cloud instance must be enough for an infinite deadline.
  EXPECT_EQ(result.elastic_activations, 0u);
  EXPECT_EQ(result.cloud_rentals.size(), 1u);
}

TEST(Elastic, TightDeadlineScalesOut) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto tight = rig.run(0.3 * loose.total_time);
  EXPECT_GT(tight.elastic_activations, 0u);
  EXPECT_LT(tight.total_time, loose.total_time);
  EXPECT_EQ(tight.cloud_rentals.size(), 1u + tight.elastic_activations);
}

TEST(Elastic, TighterDeadlineBootsMore) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto medium = rig.run(0.6 * loose.total_time);
  const auto tight = rig.run(0.2 * loose.total_time);
  EXPECT_GE(tight.elastic_activations, medium.elastic_activations);
  EXPECT_LE(tight.total_time, medium.total_time + 1e-9);
}

TEST(Elastic, ActivationsRespectBootDelay) {
  ElasticRig rig;
  rig.options.elastic.boot_seconds = 25.0;
  const auto result = rig.run(1.0);  // impossible deadline: scale hard
  EXPECT_GT(result.elastic_activations, 0u);
  for (std::size_t i = 1; i < result.cloud_rentals.size(); ++i) {
    const double start = result.cloud_rentals[i].start;
    if (start > 0.0) {
      // Booted instances come up no earlier than interval + boot.
      EXPECT_GE(start, rig.options.elastic.check_interval_seconds +
                           rig.options.elastic.boot_seconds - 1e-9);
    }
  }
}

TEST(Elastic, BillingStartsAtActivation) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto tight = rig.run(0.3 * loose.total_time);
  // Price both with per-instance durations: the late instances are billed
  // less than run-length hours would imply... at this scale everything is
  // under an hour, so billed hours == instance count.
  cost::CostInputs inputs;
  inputs.run_seconds = tight.total_time;
  for (const CloudRental& rental : tight.cloud_rentals) {
    inputs.instance_seconds.push_back(tight.total_time - rental.start);
  }
  const auto report = cost::price(inputs, cost::CloudPricing::aws_2011());
  EXPECT_DOUBLE_EQ(report.instance_hours,
                   static_cast<double>(tight.cloud_rentals.size()));
}

TEST(Elastic, RealExecutionStaysCorrectUnderScaleOut) {
  apps::WordGenSpec wspec;
  wspec.count = 24000;
  wspec.vocabulary = 61;
  wspec.seed = 99;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;

  std::unordered_map<std::uint64_t, double> ref;
  for (std::size_t i = 0; i < data.units(); ++i) {
    apps::WordRecord w;
    std::memcpy(&w, data.unit(i), sizeof w);
    ref[w.word_id] += 1.0;
  }

  Platform platform(PlatformSpec::paper_testbed(8, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(0.05);
  options.profile.per_job_overhead_seconds = 0.5;
  options.profile.robj_bytes = 0;
  options.reduction_tree = false;
  options.task = &task;
  options.dataset = &data;
  options.elastic.enabled = true;
  options.elastic.initial_cloud_nodes = 1;
  options.elastic.deadline_seconds = 0.5;  // unreachable: scale all the way out
  options.elastic.check_interval_seconds = 0.5;
  options.elastic.boot_seconds = 1.0;
  options.elastic.activation_step = 3;

  const auto result = run_distributed(platform, layout, options);
  EXPECT_GT(result.elastic_activations, 0u);
  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_DOUBLE_EQ(got.get(k), v);
}

/// Whether the rig's cloud node `name` appears among the billed instances
/// (node names and endpoints are deterministic for a platform spec).
bool billed(const RunResult& result, const std::string& name) {
  Platform platform(PlatformSpec::paper_testbed(8, 16));
  for (const auto& node : platform.nodes(kCloudSite)) {
    if (node.name != name) continue;
    return std::any_of(result.cloud_rentals.begin(), result.cloud_rentals.end(),
                       [&node](const CloudRental& r) { return r.node == node.endpoint; });
  }
  return false;
}

// A crash under elastic bursting leases a billed replacement from the held
// nodes: the lost chunks never run on an instance nobody pays for.
TEST(ElasticFaults, CrashReplacementIsBilled) {
  ElasticRig rig;
  rig.options.elastic.initial_cloud_nodes = 2;
  const auto clean = rig.run(/*deadline=*/1e6);
  rig.options.lifecycle.push_back({RunOptions::LifecycleEvent::Kind::Crash, kCloudSite, 0,
                                   0.5 * clean.total_time});
  const auto crashed = rig.run(1e6);
  EXPECT_EQ(crashed.lifecycle.nodes_crashed, 1u);
  EXPECT_EQ(crashed.lifecycle.replacements_leased, 1u);
  EXPECT_EQ(crashed.total_jobs(), clean.total_jobs() + crashed.lifecycle.chunks_reexecuted);

  for (const auto& times : crashed.nodes) {
    if (times.cluster == kCloudSite && times.jobs > 0) {
      EXPECT_TRUE(billed(crashed, times.name))
          << times.name << " ran " << times.jobs << " chunks unbilled";
    }
  }
}

// A node fault on a held (never rented) node misses it: it is neither
// counted nor traced, and the controller later boots it as a healthy node.
TEST(ElasticFaults, CrashOnAHeldNodeIsInert) {
  ElasticRig rig;
  trace::Tracer tracer;
  rig.options.tracer = &tracer;
  rig.options.lifecycle.push_back(
      {RunOptions::LifecycleEvent::Kind::Crash, kCloudSite, 7, 1.0});
  const auto result = rig.run(/*deadline=*/60.0);
  EXPECT_EQ(result.lifecycle.nodes_crashed, 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::SlaveFailed), 0u);
  EXPECT_GT(result.elastic_activations, 0u);
  for (const auto& times : result.nodes) {
    if (times.cluster == kCloudSite && times.jobs == 0) {
      EXPECT_FALSE(billed(result, times.name)) << times.name << " billed but ran no chunk";
    }
  }
}

// A boot that lands after the run ended starts nothing and traces nothing
// (the instance is still billed: it was leased while the run was behind).
TEST(Elastic, BootAfterTheRunEndsIsInert) {
  ElasticRig rig;
  trace::Tracer tracer;
  rig.options.tracer = &tracer;
  rig.options.elastic.boot_seconds = 1000.0;  // every boot outlasts the run
  const auto result = rig.run(1.0);  // impossible deadline: scale hard
  std::uint32_t late = 0;
  for (const CloudRental& r : result.cloud_rentals) late += r.start > result.total_time;
  ASSERT_GT(late, 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::InstanceActivated),
            result.elastic_activations - late);
  for (const auto& ev : tracer.events()) EXPECT_LE(ev.t, result.total_time);
}

/// A cloud blackout at 5 s; `seconds` <= 0 never recovers.
chaos::ChaosPlan cloud_outage(double seconds) {
  chaos::ChaosPlan plan;
  chaos::ChaosEvent outage;
  outage.kind = chaos::ChaosEvent::Kind::SiteOutage;
  outage.site_a = kCloudSite;
  outage.at_seconds = 5.0;
  outage.duration_seconds = seconds;
  plan.events.push_back(outage);
  return plan;
}

// A cloud blackout crashes the rented instances only. The held ones were
// never rented: they are neither counted nor traced, no lease boots them
// into the evacuated master, and a later crash aimed at one misses it.
TEST(ElasticFaults, SiteOutageSparesHeldNodes) {
  chaos::ChaosPlan plan = cloud_outage(10.0);
  chaos::ChaosEvent crash;
  crash.kind = chaos::ChaosEvent::Kind::NodeCrash;
  crash.site_a = kCloudSite;
  crash.node_index = 7;  // held when the blackout struck
  crash.at_seconds = 20.0;
  plan.events.push_back(crash);
  ElasticRig rig;
  rig.options.elastic.initial_cloud_nodes = 2;
  const double tight_deadline = 30.0;
  ASSERT_GT(rig.run(tight_deadline).elastic_activations, 0u);  // without the outage

  rig.options.chaos = &plan;
  trace::Tracer tracer;
  rig.options.tracer = &tracer;
  const auto loose = rig.run(/*deadline=*/1e6);
  EXPECT_EQ(loose.lifecycle.nodes_crashed, 2u);
  EXPECT_EQ(tracer.count(trace::EventKind::SlaveFailed), 2u);

  rig.options.tracer = nullptr;
  const auto tight = rig.run(tight_deadline);
  EXPECT_EQ(tight.elastic_activations, 0u);
  EXPECT_EQ(tight.cloud_rentals.size(), 2u);
}

// A permanent outage of the store that holds the only copy of some chunk
// could never end: validate_run rejects it up front and names the store.
TEST(ElasticFaults, PermanentOutageOfTheOnlyCopyIsRejected) {
  ElasticRig rig;
  Platform platform(PlatformSpec::paper_testbed(8, 16));
  chaos::ChaosPlan plan = cloud_outage(0.0);
  rig.options.chaos = &plan;
  for (const auto kind : {chaos::ChaosEvent::Kind::SiteOutage,
                          chaos::ChaosEvent::Kind::StoreOutage}) {
    plan.events[0].kind = kind;
    try {
      validate_run(platform, rig.layout, rig.options);
      ADD_FAILURE() << "a permanent outage of the only copy was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("store " + std::to_string(platform.cloud_store_id())),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("only copy of 24 chunks"), std::string::npos) << msg;
    }
  }

  // A window that closes, or a second copy of every chunk, makes it valid.
  plan.events[0].duration_seconds = 10.0;
  EXPECT_NO_THROW(validate_run(platform, rig.layout, rig.options));
  plan.events[0].duration_seconds = 0.0;
  replica::ReplicaSet replicas{replica::ReplicationConfig{}};
  rig.options.replication = &replicas;
  EXPECT_NO_THROW(validate_run(platform, rig.layout, rig.options));

  // HotChunk starts every chunk with its primary alone and copies it only
  // once it runs hot, so two copies as a target prove nothing.
  replica::ReplicationConfig hot;
  hot.placement = replica::PlacementPolicy::HotChunk;
  replica::ReplicaSet hot_replicas{hot};
  rig.options.replication = &hot_replicas;
  EXPECT_THROW(validate_run(platform, rig.layout, rig.options), std::invalid_argument);
}

TEST(Elastic, RejectsInvalidConfigs) {
  ElasticRig rig;
  rig.options.reduction_tree = true;
  EXPECT_THROW(rig.run(100.0), std::invalid_argument);

  ElasticRig rig2;
  rig2.options.elastic.initial_cloud_nodes = 0;
  EXPECT_THROW(rig2.run(100.0), std::invalid_argument);

  ElasticRig rig3;
  rig3.options.elastic.check_interval_seconds = 0.0;
  EXPECT_THROW(rig3.run(100.0), std::invalid_argument);
}

}  // namespace
}  // namespace cloudburst::middleware
