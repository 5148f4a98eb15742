// Dataset geometry: files -> chunks -> units, plus the data index.
//
// Mirrors the paper's three-level data organization:
//  * the data set is divided into files (file-system friendly, distributable),
//  * files are split into logical chunks sized for compute-node memory —
//    one chunk == one *job* in the middleware,
//  * chunks consist of atomic data units (elements), grouped at processing
//    time to fit the CPU cache.
//
// The DataIndex is the artifact the paper's "data organizer" produces and the
// head node reads to generate the job pool: chunk locations (file + store),
// offsets, sizes, and unit counts. It serializes to a flat buffer so tests
// can round-trip it like the on-disk index file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace cloudburst::storage {

using StoreId = std::uint32_t;
constexpr StoreId kInvalidStore = static_cast<StoreId>(-1);

using ChunkId = std::uint32_t;
using FileId = std::uint32_t;

struct ChunkInfo {
  ChunkId id = 0;
  FileId file = 0;
  std::uint32_t index_in_file = 0;  ///< ordinal within the file (sequential-read detection)
  std::uint64_t offset = 0;         ///< byte offset within the file
  std::uint64_t bytes = 0;
  std::uint64_t units = 0;          ///< atomic data elements in the chunk

  bool operator==(const ChunkInfo&) const = default;
};

/// The chunk as it moves over the wire when stored compressed at
/// `compression_ratio` (below 1 counts as uncompressed): bytes / ratio, at
/// least 1 byte. Every fetch of a chunk — slave, prefetcher, repair — sizes
/// its transfer with this.
ChunkInfo wire_chunk(const ChunkInfo& info, double compression_ratio);

struct FileInfo {
  FileId id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  StoreId store = kInvalidStore;  ///< which storage service hosts this file
  ChunkId first_chunk = 0;
  std::uint32_t chunk_count = 0;

  bool operator==(const FileInfo&) const = default;
};

/// Immutable dataset description; chunk ids are dense [0, chunk_count).
class DataLayout {
 public:
  DataLayout() = default;
  DataLayout(std::vector<FileInfo> files, std::vector<ChunkInfo> chunks);

  const std::vector<FileInfo>& files() const { return files_; }
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  const FileInfo& file(FileId id) const { return files_.at(id); }
  const ChunkInfo& chunk(ChunkId id) const { return chunks_.at(id); }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_units() const { return total_units_; }

  /// Store hosting a chunk (via its file).
  StoreId store_of(ChunkId id) const { return files_.at(chunks_.at(id).file).store; }

  /// Chunk ids hosted on `store`, in id order.
  std::vector<ChunkId> chunks_on(StoreId store) const;

  /// Bytes hosted on `store`.
  std::uint64_t bytes_on(StoreId store) const;

  /// Reassign one file to a different store.
  void move_file(FileId id, StoreId store) { files_.at(id).store = store; }

  bool operator==(const DataLayout&) const = default;

 private:
  std::vector<FileInfo> files_;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_units_ = 0;
};

/// Parameters for the data organizer.
struct LayoutSpec {
  std::uint64_t total_bytes = 0;
  std::uint32_t num_files = 1;
  std::uint32_t chunks_per_file = 1;
  std::uint64_t unit_bytes = 1;  ///< element size; units = chunk bytes / unit size
  std::string file_prefix = "data";
};

/// The "data organizer": analyze a dataset spec and emit its layout/index.
/// Bytes are spread as evenly as integer arithmetic allows; every byte is
/// accounted for (sum of chunk bytes == total_bytes).
DataLayout build_layout(const LayoutSpec& spec);

/// Unit-exact variant for real-execution runs: distributes `total_units`
/// across files x chunks so that the chunk unit counts sum to exactly
/// total_units (chunk bytes = units * unit_bytes). Required when a layout
/// must tile an in-memory dataset.
DataLayout build_layout_for_units(std::uint64_t total_units, std::uint64_t unit_bytes,
                                  std::uint32_t num_files, std::uint32_t chunks_per_file,
                                  const std::string& file_prefix = "data");

/// Split the files of `layout` between two stores so that the *byte*
/// fraction on `first` is as close to `fraction_on_first` as possible, with
/// whole files as the granularity (files are contiguous: the first k files
/// land on `first`). Returns the achieved fraction.
double assign_stores_by_fraction(DataLayout& layout, double fraction_on_first,
                                 StoreId first, StoreId second);

/// N-way generalization: split the files across `stores` so each store's
/// byte share approximates its weight (contiguous whole-file runs, in store
/// order, like the two-way version). Weights need not be normalized.
/// Returns the achieved byte fraction per store.
std::vector<double> assign_stores_by_weights(DataLayout& layout,
                                             const std::vector<double>& weights,
                                             const std::vector<StoreId>& stores);

/// Serialize / parse the index file the head node reads at startup.
void serialize_index(const DataLayout& layout, BufferWriter& out);
DataLayout parse_index(BufferReader& in);

}  // namespace cloudburst::storage
