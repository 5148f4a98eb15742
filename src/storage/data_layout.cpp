#include "storage/data_layout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cloudburst::storage {

ChunkInfo wire_chunk(const ChunkInfo& info, double compression_ratio) {
  ChunkInfo wire = info;
  wire.bytes = static_cast<std::uint64_t>(static_cast<double>(info.bytes) /
                                          std::max(1.0, compression_ratio));
  if (wire.bytes == 0) wire.bytes = 1;
  return wire;
}

DataLayout::DataLayout(std::vector<FileInfo> files, std::vector<ChunkInfo> chunks)
    : files_(std::move(files)), chunks_(std::move(chunks)) {
  for (const auto& c : chunks_) {
    total_bytes_ += c.bytes;
    total_units_ += c.units;
  }
  // Sanity: chunk ids must be dense and consistent with their files.
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].id != static_cast<ChunkId>(i)) {
      throw std::invalid_argument("DataLayout: chunk ids must be dense");
    }
    if (chunks_[i].file >= files_.size()) {
      throw std::invalid_argument("DataLayout: chunk references unknown file");
    }
  }
}

std::vector<ChunkId> DataLayout::chunks_on(StoreId store) const {
  std::vector<ChunkId> out;
  for (const auto& c : chunks_) {
    if (files_[c.file].store == store) out.push_back(c.id);
  }
  return out;
}

std::uint64_t DataLayout::bytes_on(StoreId store) const {
  std::uint64_t total = 0;
  for (const auto& c : chunks_) {
    if (files_[c.file].store == store) total += c.bytes;
  }
  return total;
}

DataLayout build_layout(const LayoutSpec& spec) {
  if (spec.num_files == 0 || spec.chunks_per_file == 0 || spec.unit_bytes == 0) {
    throw std::invalid_argument("build_layout: files, chunks_per_file, unit_bytes must be > 0");
  }
  const std::uint32_t total_chunks = spec.num_files * spec.chunks_per_file;
  if (spec.total_bytes < total_chunks) {
    throw std::invalid_argument("build_layout: dataset smaller than one byte per chunk");
  }

  std::vector<FileInfo> files;
  std::vector<ChunkInfo> chunks;
  files.reserve(spec.num_files);
  chunks.reserve(total_chunks);

  // Distribute bytes across chunks evenly; the first (total % chunks) chunks
  // take one extra byte so every byte is accounted for.
  const std::uint64_t base = spec.total_bytes / total_chunks;
  const std::uint64_t extra = spec.total_bytes % total_chunks;

  ChunkId next_chunk = 0;
  for (FileId f = 0; f < spec.num_files; ++f) {
    FileInfo fi;
    fi.id = f;
    fi.name = spec.file_prefix + "_" + std::to_string(f) + ".dat";
    fi.first_chunk = next_chunk;
    fi.chunk_count = spec.chunks_per_file;
    std::uint64_t offset = 0;
    for (std::uint32_t k = 0; k < spec.chunks_per_file; ++k) {
      ChunkInfo ci;
      ci.id = next_chunk;
      ci.file = f;
      ci.index_in_file = k;
      ci.offset = offset;
      ci.bytes = base + (next_chunk < extra ? 1 : 0);
      ci.units = ci.bytes / spec.unit_bytes;  // trailing partial unit is padding
      if (ci.units == 0) ci.units = 1;        // never a zero-work job
      offset += ci.bytes;
      chunks.push_back(ci);
      ++next_chunk;
    }
    fi.bytes = offset;
    files.push_back(std::move(fi));
  }
  return DataLayout(std::move(files), std::move(chunks));
}

DataLayout build_layout_for_units(std::uint64_t total_units, std::uint64_t unit_bytes,
                                  std::uint32_t num_files, std::uint32_t chunks_per_file,
                                  const std::string& file_prefix) {
  if (num_files == 0 || chunks_per_file == 0 || unit_bytes == 0) {
    throw std::invalid_argument(
        "build_layout_for_units: files, chunks_per_file, unit_bytes must be > 0");
  }
  const std::uint32_t total_chunks = num_files * chunks_per_file;
  if (total_units < total_chunks) {
    throw std::invalid_argument("build_layout_for_units: need at least one unit per chunk");
  }
  const std::uint64_t base = total_units / total_chunks;
  const std::uint64_t extra = total_units % total_chunks;

  std::vector<FileInfo> files;
  std::vector<ChunkInfo> chunks;
  files.reserve(num_files);
  chunks.reserve(total_chunks);
  ChunkId next_chunk = 0;
  for (FileId f = 0; f < num_files; ++f) {
    FileInfo fi;
    fi.id = f;
    fi.name = file_prefix + "_" + std::to_string(f) + ".dat";
    fi.first_chunk = next_chunk;
    fi.chunk_count = chunks_per_file;
    std::uint64_t offset = 0;
    for (std::uint32_t k = 0; k < chunks_per_file; ++k) {
      ChunkInfo ci;
      ci.id = next_chunk;
      ci.file = f;
      ci.index_in_file = k;
      ci.offset = offset;
      ci.units = base + (next_chunk < extra ? 1 : 0);
      ci.bytes = ci.units * unit_bytes;
      offset += ci.bytes;
      chunks.push_back(ci);
      ++next_chunk;
    }
    fi.bytes = offset;
    files.push_back(std::move(fi));
  }
  return DataLayout(std::move(files), std::move(chunks));
}

double assign_stores_by_fraction(DataLayout& layout, double fraction_on_first,
                                 StoreId first, StoreId second) {
  if (fraction_on_first < 0.0 || fraction_on_first > 1.0) {
    throw std::invalid_argument("fraction_on_first must be within [0,1]");
  }
  const std::uint64_t total = layout.total_bytes();
  const auto target = static_cast<std::uint64_t>(
      std::llround(fraction_on_first * static_cast<double>(total)));

  // Greedy prefix assignment: keep adding whole files to `first` while doing
  // so brings the byte count closer to the target.
  std::uint64_t assigned = 0;
  for (const auto& f : layout.files()) {
    const std::uint64_t with = assigned + f.bytes;
    const std::uint64_t err_without = assigned > target ? assigned - target : target - assigned;
    const std::uint64_t err_with = with > target ? with - target : target - with;
    if (err_with <= err_without) {
      layout.move_file(f.id, first);
      assigned = with;
    } else {
      layout.move_file(f.id, second);
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(assigned) / static_cast<double>(total);
}

std::vector<double> assign_stores_by_weights(DataLayout& layout,
                                             const std::vector<double>& weights,
                                             const std::vector<StoreId>& stores) {
  if (stores.empty() || weights.size() != stores.size()) {
    throw std::invalid_argument("assign_stores_by_weights: need one weight per store");
  }
  double weight_sum = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("assign_stores_by_weights: negative weight");
    weight_sum += w;
  }
  if (weight_sum <= 0.0) {
    throw std::invalid_argument("assign_stores_by_weights: weights sum to zero");
  }

  const std::uint64_t total = layout.total_bytes();
  std::vector<std::uint64_t> assigned(stores.size(), 0);
  // Walk the files once; a file goes to the current store until moving on to
  // the next store's run gets the cumulative split closer to the targets.
  std::size_t current = 0;
  double target_prefix = weights[0] / weight_sum * static_cast<double>(total);
  std::uint64_t prefix = 0;
  for (const auto& f : layout.files()) {
    while (current + 1 < stores.size()) {
      const double err_stay =
          std::abs(static_cast<double>(prefix + f.bytes) - target_prefix);
      const double err_advance = std::abs(static_cast<double>(prefix) - target_prefix);
      if (err_stay <= err_advance) break;
      ++current;
      target_prefix += weights[current] / weight_sum * static_cast<double>(total);
    }
    layout.move_file(f.id, stores[current]);
    assigned[current] += f.bytes;
    prefix += f.bytes;
  }

  std::vector<double> achieved(stores.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < stores.size(); ++i) {
      achieved[i] = static_cast<double>(assigned[i]) / static_cast<double>(total);
    }
  }
  return achieved;
}

namespace {
constexpr std::uint32_t kIndexMagic = 0x43424458;  // "CBDX"
constexpr std::uint32_t kIndexVersion = 1;
}  // namespace

void serialize_index(const DataLayout& layout, BufferWriter& out) {
  out.write_u32(kIndexMagic);
  out.write_u32(kIndexVersion);
  out.write_u64(layout.files().size());
  for (const auto& f : layout.files()) {
    out.write_u32(f.id);
    out.write_string(f.name);
    out.write_u64(f.bytes);
    out.write_u32(f.store);
    out.write_u32(f.first_chunk);
    out.write_u32(f.chunk_count);
  }
  out.write_u64(layout.chunks().size());
  for (const auto& c : layout.chunks()) {
    out.write_u32(c.id);
    out.write_u32(c.file);
    out.write_u32(c.index_in_file);
    out.write_u64(c.offset);
    out.write_u64(c.bytes);
    out.write_u64(c.units);
  }
}

DataLayout parse_index(BufferReader& in) {
  if (in.read_u32() != kIndexMagic) throw std::runtime_error("data index: bad magic");
  if (in.read_u32() != kIndexVersion) throw std::runtime_error("data index: bad version");
  const std::uint64_t nfiles = in.read_u64();
  std::vector<FileInfo> files(nfiles);
  for (auto& f : files) {
    f.id = in.read_u32();
    f.name = in.read_string();
    f.bytes = in.read_u64();
    f.store = in.read_u32();
    f.first_chunk = in.read_u32();
    f.chunk_count = in.read_u32();
  }
  const std::uint64_t nchunks = in.read_u64();
  std::vector<ChunkInfo> chunks(nchunks);
  for (auto& c : chunks) {
    c.id = in.read_u32();
    c.file = in.read_u32();
    c.index_in_file = in.read_u32();
    c.offset = in.read_u64();
    c.bytes = in.read_u64();
    c.units = in.read_u64();
  }
  return DataLayout(std::move(files), std::move(chunks));
}

}  // namespace cloudburst::storage
