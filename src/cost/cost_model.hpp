// Pricing a distributed run.
//
// Consumes the run result plus platform/store statistics and produces an
// itemized CostReport:
//  * compute — each rented cloud instance × ceil(its rented hours), per 2011
//    EC2 per-started-hour billing;
//  * requests — S3 range GETs (each chunk fetch issues `streams` GETs);
//  * transfer out — bytes that left the provider: chunks the local cluster
//    stole from S3 plus the cloud master's reduction object crossing the
//    WAN to the head;
//  * storage — the S3-resident dataset fraction, prorated to the run.
#pragma once

#include <vector>

#include "cluster/platform.hpp"
#include "cost/pricing.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::cost {

struct CostInputs {
  double run_seconds = 0.0;
  /// Rented duration of each billed cloud instance (elastic runs bill from
  /// activation); each bills ceil(duration) quanta, at least one.
  std::vector<double> instance_seconds;
  std::uint64_t s3_get_requests = 0;
  std::uint64_t bytes_out_of_cloud = 0;  ///< transfer-out volume
  std::uint64_t s3_resident_bytes = 0;   ///< dataset bytes stored in S3
};

/// Price raw usage numbers.
CostReport price(const CostInputs& inputs, const CloudPricing& pricing);

/// Derive raw usage numbers from a finished run — the un-priced half of
/// price_run. A workload manager combines several jobs' inputs (deduping
/// physically shared instances) before pricing the whole platform.
CostInputs derive_run_inputs(const middleware::RunResult& result,
                             cluster::Platform& platform,
                             const storage::DataLayout& layout,
                             const middleware::RunOptions& options);

/// Derive usage from a finished run on `platform` with `layout` and price it.
/// `options` supplies the retrieval stream count (GETs per fetch) and the
/// robj size (WAN transfer-out during the global reduction).
CostReport price_run(const middleware::RunResult& result, cluster::Platform& platform,
                     const storage::DataLayout& layout,
                     const middleware::RunOptions& options, const CloudPricing& pricing);

}  // namespace cloudburst::cost
