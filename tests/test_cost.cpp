// Tests for the pay-as-you-go cost model and the time/cost planner.
#include <gtest/gtest.h>

#include "apps/experiments.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "cost/planner.hpp"

namespace cloudburst::cost {
namespace {

using namespace cloudburst::units;

TEST(Pricing, PerStartedHourBilling) {
  CloudPricing pricing;
  pricing.instance_hour_usd = 1.0;
  CostInputs inputs;
  inputs.run_seconds = 60.0;  // one minute still bills a full hour
  inputs.instance_seconds.assign(4, inputs.run_seconds);
  EXPECT_DOUBLE_EQ(price(inputs, pricing).instance_usd, 4.0);
  inputs.run_seconds = 3601.0;  // just over an hour bills two
  inputs.instance_seconds.assign(4, inputs.run_seconds);
  EXPECT_DOUBLE_EQ(price(inputs, pricing).instance_usd, 8.0);
}

TEST(Pricing, ZeroInstancesCostNothing) {
  CostInputs inputs;
  inputs.run_seconds = 10000.0;
  inputs.instance_seconds.assign(0, inputs.run_seconds);
  EXPECT_DOUBLE_EQ(price(inputs, CloudPricing::aws_2011()).instance_usd, 0.0);
}

TEST(Pricing, RequestAndTransferMath) {
  CloudPricing pricing;
  pricing.get_per_1000_usd = 0.01;
  pricing.transfer_out_per_gb_usd = 0.12;
  CostInputs inputs;
  inputs.s3_get_requests = 500000;       // 500k GETs
  inputs.bytes_out_of_cloud = 10'000'000'000;  // 10 GB
  const auto report = price(inputs, pricing);
  EXPECT_DOUBLE_EQ(report.requests_usd, 5.0);
  EXPECT_DOUBLE_EQ(report.transfer_usd, 1.2);
}

TEST(Pricing, StorageProratedToRun) {
  CloudPricing pricing;
  pricing.storage_gb_month_usd = 0.14;
  CostInputs inputs;
  inputs.s3_resident_bytes = 12'000'000'000;         // 12 GB
  inputs.run_seconds = 30.0 * 24.0 * 3600.0 / 2.0;   // half a month
  EXPECT_NEAR(price(inputs, pricing).storage_usd, 12 * 0.14 / 2, 1e-9);
}

TEST(Pricing, TotalSumsComponents) {
  CostInputs inputs;
  inputs.run_seconds = 1000;
  inputs.instance_seconds.assign(2, inputs.run_seconds);
  inputs.s3_get_requests = 10000;
  inputs.bytes_out_of_cloud = GB(1);
  inputs.s3_resident_bytes = GB(6);
  const auto report = price(inputs, CloudPricing::aws_2011());
  EXPECT_NEAR(report.total_usd(),
              report.instance_usd + report.requests_usd + report.transfer_usd +
                  report.storage_usd,
              1e-12);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(PriceRun, HybridRunHasAllComponents) {
  const auto run = apps::run_custom(apps::PaperApp::Knn, 1.0 / 6, 16, 16);
  EXPECT_GT(run.cost.instance_usd, 0.0);      // 8 instances rented
  EXPECT_GT(run.cost.get_requests, 0u);       // S3 fetches happened
  EXPECT_GT(run.cost.transfer_out_gb, 0.0);   // local cluster stole S3 data
  EXPECT_GT(run.cost.storage_usd, 0.0);       // 10 GB resident in S3
}

TEST(PriceRun, LocalOnlyRunCostsAlmostNothing) {
  const auto run = apps::run_custom(apps::PaperApp::Knn, 1.0, 32, 0);
  EXPECT_DOUBLE_EQ(run.cost.instance_usd, 0.0);
  EXPECT_EQ(run.cost.get_requests, 0u);
  EXPECT_DOUBLE_EQ(run.cost.transfer_usd, 0.0);
}

TEST(PriceRun, MoreCloudDataMeansMoreTransferWhenStealing) {
  const auto less = apps::run_custom(apps::PaperApp::Knn, 1.0 / 3, 16, 16);
  const auto more = apps::run_custom(apps::PaperApp::Knn, 1.0 / 6, 16, 16);
  EXPECT_GT(more.cost.transfer_out_gb, less.cost.transfer_out_gb);
}

// --- planner ---------------------------------------------------------------------

std::vector<PlanPoint> synthetic_points() {
  // Monotone: more cores -> faster & pricier.
  std::vector<PlanPoint> pts;
  for (unsigned cores : {0u, 8u, 16u, 32u}) {
    PlanPoint p;
    p.cloud_cores = cores;
    p.exec_seconds = 100.0 / (1.0 + cores / 8.0);
    CostInputs inputs;
    inputs.run_seconds = p.exec_seconds;
    inputs.instance_seconds.assign(cores / 2, inputs.run_seconds);
    p.cost = price(inputs, CloudPricing::aws_2011());
    pts.push_back(p);
  }
  return pts;
}

TEST(Planner, DeadlinePicksCheapestFeasible) {
  const auto pts = synthetic_points();
  // exec times: 100, 50, 33.3, 20 — deadline 60 admits {8,16,32}; cheapest
  // is the fewest instances: 8 cores.
  const auto plan = plan_for_deadline(pts, 60.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cloud_cores, 8u);
}

TEST(Planner, ImpossibleDeadlineReturnsNothing) {
  EXPECT_FALSE(plan_for_deadline(synthetic_points(), 1.0).has_value());
}

TEST(Planner, BudgetPicksFastestAffordable) {
  const auto pts = synthetic_points();
  // 0 cores costs $0; all others cost > 0. Budget below the 8-core cost
  // forces the free-but-slow plan.
  const double eight_core_cost = pts[1].cost.total_usd();
  const auto plan = plan_for_budget(pts, eight_core_cost / 2.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cloud_cores, 0u);

  const auto rich = plan_for_budget(pts, 1e9);
  ASSERT_TRUE(rich.has_value());
  EXPECT_EQ(rich->cloud_cores, 32u);  // fastest
}

TEST(Planner, SweepEvaluatesEveryStep) {
  PlannerConfig config;
  config.max_cloud_cores = 12;
  config.core_step = 4;
  int calls = 0;
  const auto pts = sweep(config, [&](unsigned cores) {
    ++calls;
    PlanPoint p;
    p.cloud_cores = cores;
    p.exec_seconds = 1.0;
    return p;
  });
  EXPECT_EQ(calls, 4);  // 0, 4, 8, 12
  EXPECT_EQ(pts.back().cloud_cores, 12u);
}

TEST(Planner, EndToEndDeadlinePlanning) {
  // Real simulated sweep: 33% of the knn dataset local, 16 local cores.
  std::vector<PlanPoint> pts;
  for (unsigned cores : {0u, 8u, 16u, 32u}) {
    const auto run = apps::run_custom(apps::PaperApp::Knn, 1.0 / 3, 16, cores);
    pts.push_back(PlanPoint{cores, run.result.total_time, run.cost});
  }
  // Sanity: bursting helps.
  EXPECT_LT(pts.back().exec_seconds, pts.front().exec_seconds);

  // A deadline between the slowest and fastest must be met by some plan, and
  // the chosen plan must actually meet it.
  const double deadline = (pts.front().exec_seconds + pts.back().exec_seconds) / 2;
  const auto plan = plan_for_deadline(pts, deadline);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->exec_seconds, deadline);
  // And it is the cheapest among feasible ones.
  for (const auto& p : pts) {
    if (p.exec_seconds <= deadline) {
      EXPECT_LE(plan->cost.total_usd(), p.cost.total_usd() + 1e-12);
    }
  }
}

}  // namespace
}  // namespace cloudburst::cost
