// Control-plane protocol between head, masters, and slaves (paper Fig. 2).
//
//   slave  -> master : SlaveJobRequest        (on-demand pooling)
//   master -> slave  : AssignJob | NoMoreJobs
//   master -> head   : BatchRequest           (cluster pool refill)
//   head   -> master : BatchAssign            (locality/consecutive batch,
//                                              exhausted flag)
//   slave  -> master : SlaveRobj              (intra-cluster reduction)
//   master -> head   : MasterRobj             (global reduction input)
//   slave  -> master : ChunkReturned | NodeVacated  (graceful drain: hand
//                                              back unstarted work, flush the
//                                              final delta-robj checkpoint)
//
// Messages ride the simulated network: control messages charge a small
// fixed size, robj messages charge the application's robj_bytes — which is
// why pagerank's global reduction is expensive across the WAN.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "api/generalized_reduction.hpp"
#include "common/serialize.hpp"
#include "middleware/app_profile.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

enum class MsgType : std::uint8_t {
  SlaveJobRequest,
  AssignJob,
  NoMoreJobs,
  BatchRequest,
  BatchAssign,
  SlaveRobj,
  MasterRobj,
  // Fault-tolerant (direct-reduction) protocol additions:
  JobDone,      ///< slave -> master: chunk finished (completion tracking)
  RobjRequest,  ///< master -> slave: ship your reduction object now
  // Node-lifecycle (graceful drain / spot reclamation) additions:
  ChunkReturned,  ///< draining slave -> master: hand an assigned chunk back unstarted
  NodeVacated,    ///< draining slave -> master: final delta-robj checkpoint + goodbye
};

struct Message {
  MsgType type = MsgType::SlaveJobRequest;

  /// Workload multiplexing: id of the job this message belongs to. Shared
  /// endpoints (a node running slave actors of several concurrent jobs)
  /// demultiplex on it; single-job runs leave it 0 throughout. Carried out
  /// of band — it adds nothing to the charged wire size.
  std::uint32_t job = 0;

  // AssignJob
  storage::ChunkId chunk = 0;

  /// AssignJob under replication: the replica store the master resolved for
  /// this chunk (kInvalidStore = read the layout primary). Out of band like
  /// `job` — the charged wire size does not change.
  storage::StoreId store = storage::kInvalidStore;

  // BatchRequest: jobs wanted. RobjRequest/SlaveRobj: checkpoint round id
  // (the slave echoes it so the master can tell a commit-round robj from a
  // periodic-checkpoint robj).
  std::uint32_t want = 0;

  // BatchAssign
  std::vector<storage::ChunkId> batch;
  bool exhausted = false;

  /// BatchAssign only: head-driven reopen after a peer master's site went
  /// dark. The batch is that master's reclaimed (uncommitted) work, pushed
  /// unsolicited at a survivor; a master that already shipped its cluster
  /// robj re-opens its commit to cover the adopted chunks. Out of band like
  /// `job` — the charged wire size does not change.
  bool reopen = false;

  // SlaveRobj / MasterRobj: payload travels by size only in the timing
  // model; when a real task is attached (RunOptions::task) the serialized
  // robj rides along here.
  std::vector<std::uint8_t> robj_payload;
};

/// Declared wire size of a control message (bytes charged to the network).
constexpr std::uint64_t kControlMessageBytes = 256;

/// Bytes a robj message charges to the network: the profile's declared
/// robj_bytes, or the serialized payload (at least 64) when it declares none.
inline std::uint64_t robj_wire_bytes(const AppProfile& profile, const Message& msg) {
  return profile.robj_bytes ? profile.robj_bytes
                            : std::max<std::uint64_t>(msg.robj_payload.size(), 64);
}

/// Time to fold the robj `msg` carries into another, at its wire size (0
/// when merges are free).
inline double robj_merge_seconds(const AppProfile& profile, const Message& msg) {
  return profile.merge_bytes_per_second > 0.0
             ? static_cast<double>(robj_wire_bytes(profile, msg)) /
                   profile.merge_bytes_per_second
             : 0.0;
}

/// Serialize `robj` into the message's payload; timing-only runs (no robj)
/// ship none.
inline void pack_robj(const api::ReductionObject* robj, Message& msg) {
  if (!robj) return;
  BufferWriter writer;
  robj->serialize(writer);
  msg.robj_payload = writer.take();
}

/// Deserialize a shipped robj and fold it into `into`, which adopts it when
/// still empty. No-op for an empty payload or a timing-only run (no task).
inline void merge_robj_payload(const api::GRTask* task,
                               const std::vector<std::uint8_t>& payload,
                               api::RobjPtr& into) {
  if (payload.empty() || !task) return;
  BufferReader reader(payload);
  api::RobjPtr incoming = task->create_robj();
  incoming->deserialize(reader);
  if (!into) {
    into = std::move(incoming);
  } else {
    into->merge_from(*incoming);
  }
}

}  // namespace cloudburst::middleware
