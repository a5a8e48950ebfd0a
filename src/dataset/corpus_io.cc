#include "dataset/corpus_io.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "asm/parser.h"
#include "base/logging.h"

namespace granite::dataset {
namespace {

// Sanity bounds rejecting absurd length fields before any allocation, so
// a corrupt field raises CorpusError instead of bad_alloc.
constexpr std::uint64_t kMaxBlockTextBytes = 1ull << 20;
constexpr std::uint64_t kMaxRecordsPerShard = 1ull << 24;
constexpr std::uint64_t kMaxBlocks = 1ull << 36;

/** Fixed header size in bytes: magic + 4 u32 fields + 4 u64 fields. */
constexpr std::uint64_t kHeaderBytes = 8 + 4 * 4 + 4 * 8;

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

std::uint64_t Fnv1a(std::uint64_t hash, const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

template <typename T>
void AppendScalar(std::string& buffer, T value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ScalarAt(const std::string& buffer, std::size_t offset) {
  T value{};
  std::memcpy(&value, buffer.data() + offset, sizeof(value));
  return value;
}

/** Serialized fixed-size header. */
std::string EncodeHeader(const CorpusHeader& header) {
  std::string bytes;
  bytes.reserve(kHeaderBytes);
  bytes.append(kCorpusMagic.data(), kCorpusMagic.size());
  AppendScalar<std::uint32_t>(bytes, header.version);
  AppendScalar<std::uint32_t>(bytes,
                              static_cast<std::uint32_t>(header.tool));
  AppendScalar<std::uint32_t>(bytes, header.num_labels);
  AppendScalar<std::uint32_t>(bytes, header.import_rejected_ppm);
  AppendScalar<std::uint64_t>(bytes, header.generator_seed);
  AppendScalar<std::uint64_t>(bytes, header.num_blocks);
  AppendScalar<std::uint64_t>(bytes, header.records_per_shard);
  AppendScalar<std::uint64_t>(bytes, header.num_shards);
  GRANITE_CHECK_EQ(bytes.size(), kHeaderBytes);
  return bytes;
}

/** Parses and validates the fixed-size header bytes. */
CorpusHeader DecodeHeader(const std::string& bytes,
                          const std::string& path) {
  GRANITE_CHECK_EQ(bytes.size(), kHeaderBytes);
  if (std::memcmp(bytes.data(), kCorpusMagic.data(), kCorpusMagic.size()) !=
      0) {
    throw CorpusError("not a GRANITE corpus (bad magic): " + path);
  }
  CorpusHeader header;
  header.version = ScalarAt<std::uint32_t>(bytes, 8);
  if (header.version != kCorpusFormatVersion) {
    throw CorpusError("unsupported corpus version " +
                      std::to_string(header.version) +
                      " (this build reads version " +
                      std::to_string(kCorpusFormatVersion) + "): " + path);
  }
  const std::uint32_t tool = ScalarAt<std::uint32_t>(bytes, 12);
  if (tool >
      static_cast<std::uint32_t>(uarch::MeasurementTool::kBHiveTool)) {
    throw CorpusError("corrupt corpus (unknown measurement tool " +
                      std::to_string(tool) + "): " + path);
  }
  header.tool = static_cast<uarch::MeasurementTool>(tool);
  header.num_labels = ScalarAt<std::uint32_t>(bytes, 16);
  if (header.num_labels !=
      static_cast<std::uint32_t>(uarch::kNumMicroarchitectures)) {
    throw CorpusError(
        "corpus label count mismatch (file has " +
        std::to_string(header.num_labels) + " per record, this build has " +
        std::to_string(uarch::kNumMicroarchitectures) +
        " microarchitectures): " + path);
  }
  header.import_rejected_ppm = ScalarAt<std::uint32_t>(bytes, 20);
  if (header.import_rejected_ppm > 1000000) {
    throw CorpusError("corrupt corpus (import rejected rate " +
                      std::to_string(header.import_rejected_ppm) +
                      " ppm exceeds one million): " + path);
  }
  header.generator_seed = ScalarAt<std::uint64_t>(bytes, 24);
  header.num_blocks = ScalarAt<std::uint64_t>(bytes, 32);
  header.records_per_shard = ScalarAt<std::uint64_t>(bytes, 40);
  header.num_shards = ScalarAt<std::uint64_t>(bytes, 48);
  if (header.num_blocks > kMaxBlocks) {
    throw CorpusError("corrupt corpus (absurd block count " +
                      std::to_string(header.num_blocks) + "): " + path);
  }
  if (header.records_per_shard == 0 ||
      header.records_per_shard > kMaxRecordsPerShard) {
    throw CorpusError("corrupt corpus (bad records-per-shard " +
                      std::to_string(header.records_per_shard) +
                      "): " + path);
  }
  const std::uint64_t expected_shards =
      (header.num_blocks + header.records_per_shard - 1) /
      header.records_per_shard;
  if (header.num_shards != expected_shards) {
    throw CorpusError(
        "corrupt corpus (shard count " + std::to_string(header.num_shards) +
        " does not match " + std::to_string(header.num_blocks) +
        " blocks at " + std::to_string(header.records_per_shard) +
        " records/shard): " + path);
  }
  return header;
}

/** Encoded byte size of one record's fixed part (text length field plus
 * the label doubles). */
std::uint64_t RecordOverheadBytes(std::uint32_t num_labels) {
  return 4 + 8ull * num_labels;
}

/** Reads exactly `size` bytes or throws. */
void ReadExact(std::ifstream& file, char* data, std::uint64_t size,
               const char* what, const std::string& path) {
  file.read(data, static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(file.gcount()) != size) {
    throw CorpusError("truncated corpus (" + std::string(what) +
                      "): " + path);
  }
}

/** The record count shard `index` must hold. */
std::uint64_t ExpectedShardRecords(const CorpusHeader& header,
                                   std::uint64_t index) {
  const std::uint64_t begin = index * header.records_per_shard;
  return std::min(header.records_per_shard, header.num_blocks - begin);
}

/** Validates one shard prelude (count, payload length) against the
 * header and the remaining file size. */
void CheckShardPrelude(const CorpusHeader& header, std::uint64_t index,
                       std::uint64_t count, std::uint64_t bytes,
                       std::uint64_t remaining_payload_bytes,
                       const std::string& path) {
  if (count != ExpectedShardRecords(header, index)) {
    throw CorpusError("corrupt corpus (shard " + std::to_string(index) +
                      " holds " + std::to_string(count) + " records, " +
                      std::to_string(ExpectedShardRecords(header, index)) +
                      " expected): " + path);
  }
  const std::uint64_t min_bytes =
      count * RecordOverheadBytes(header.num_labels);
  const std::uint64_t max_bytes =
      count * (RecordOverheadBytes(header.num_labels) + kMaxBlockTextBytes);
  if (bytes < min_bytes || bytes > max_bytes ||
      bytes > remaining_payload_bytes) {
    throw CorpusError("corrupt corpus (shard " + std::to_string(index) +
                      " payload length " + std::to_string(bytes) +
                      " inconsistent): " + path);
  }
}

/** Decodes one shard payload into samples. */
std::vector<Sample> ParseShardPayload(const std::string& buffer,
                                      std::uint64_t count,
                                      std::uint32_t num_labels,
                                      const std::string& path) {
  std::vector<Sample> samples;
  samples.reserve(count);
  std::size_t cursor = 0;
  const auto need = [&](std::uint64_t bytes, const char* what) {
    if (buffer.size() - cursor < bytes) {
      throw CorpusError("corrupt corpus (truncated " + std::string(what) +
                        " in shard payload): " + path);
    }
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    need(4, "block text length");
    std::uint32_t text_length = 0;
    std::memcpy(&text_length, buffer.data() + cursor, 4);
    cursor += 4;
    if (text_length > kMaxBlockTextBytes) {
      throw CorpusError("corrupt corpus (oversized block text): " + path);
    }
    need(text_length, "block text");
    const std::string_view text(buffer.data() + cursor, text_length);
    cursor += text_length;
    auto parsed = assembly::ParseBasicBlock(text);
    if (!parsed.ok()) {
      throw CorpusError("corrupt corpus (unparseable block: " +
                        parsed.error + "): " + path);
    }
    Sample sample;
    sample.block = std::move(*parsed.value);
    need(8ull * num_labels, "labels");
    for (std::uint32_t label = 0; label < num_labels; ++label) {
      double value = 0.0;
      std::memcpy(&value, buffer.data() + cursor, 8);
      cursor += 8;
      sample.throughput[label] = value;
    }
    samples.push_back(std::move(sample));
  }
  if (cursor != buffer.size()) {
    throw CorpusError("corrupt corpus (trailing bytes in shard payload): " +
                      path);
  }
  return samples;
}

/** Opens `path` and returns (validated header, file size). */
std::pair<CorpusHeader, std::uint64_t> OpenAndReadHeader(
    std::ifstream& file, const std::string& path) {
  if (!file.is_open()) {
    throw CorpusError("cannot read corpus: " + path);
  }
  file.seekg(0, std::ios::end);
  const std::uint64_t file_size =
      static_cast<std::uint64_t>(file.tellg());
  file.seekg(0);
  if (file_size < kHeaderBytes + 8) {
    throw CorpusError("truncated corpus (no room for header): " + path);
  }
  std::string header_bytes(kHeaderBytes, '\0');
  ReadExact(file, header_bytes.data(), kHeaderBytes, "header", path);
  return {DecodeHeader(header_bytes, path), file_size};
}

/** Encoded bytes of one shard prelude (record count, payload length). */
constexpr std::uint64_t kPreludeBytes = 16;

/** A shard prelude, validated by ReadShardPrelude. */
struct ShardPrelude {
  char raw[kPreludeBytes] = {};
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/** Reads and validates the prelude of shard `index`, which starts at the
 * stream's position `cursor` in a `file_size`-byte file. */
ShardPrelude ReadShardPrelude(std::ifstream& file, const CorpusHeader& header,
                              std::uint64_t index, std::uint64_t cursor,
                              std::uint64_t file_size,
                              const std::string& path) {
  if (file_size - cursor < kPreludeBytes + 8) {
    throw CorpusError("truncated corpus (shard " + std::to_string(index) +
                      " prelude): " + path);
  }
  ShardPrelude prelude;
  ReadExact(file, prelude.raw, kPreludeBytes, "shard prelude", path);
  std::memcpy(&prelude.count, prelude.raw, 8);
  std::memcpy(&prelude.bytes, prelude.raw + 8, 8);
  CheckShardPrelude(header, index, prelude.count, prelude.bytes,
                    file_size - cursor - kPreludeBytes - 8, path);
  return prelude;
}

/** Throws unless the shard table ends exactly `cursor` bytes into the
 * file, followed by the 8-byte checksum trailer. */
void CheckShardTableEnd(std::uint64_t cursor, std::uint64_t file_size,
                        const std::string& path) {
  if (cursor + 8 != file_size) {
    throw CorpusError(
        "corrupt corpus (trailing bytes after the last shard): " + path);
  }
}

/**
 * Seek-walks the shard table (no payload is read), validating structural
 * consistency: record counts, payload lengths, and that exactly the
 * 8-byte checksum trailer follows the last shard.
 */
void CheckShardTable(std::ifstream& file, const CorpusHeader& header,
                     std::uint64_t file_size, const std::string& path) {
  std::uint64_t cursor = kHeaderBytes;
  for (std::uint64_t shard = 0; shard < header.num_shards; ++shard) {
    file.seekg(static_cast<std::streamoff>(cursor));
    const ShardPrelude prelude =
        ReadShardPrelude(file, header, shard, cursor, file_size, path);
    cursor += kPreludeBytes + prelude.bytes;
  }
  CheckShardTableEnd(cursor, file_size, path);
}

/** Most records one StreamingCorpusSource page holds. */
constexpr std::uint64_t kMaxPageRecords = 64;

/** Largest divisor of `records_per_shard` that is at most
 * kMaxPageRecords: pages of this size tile every shard exactly. */
std::uint64_t PageRecordsFor(std::uint64_t records_per_shard) {
  std::uint64_t page = std::min(records_per_shard, kMaxPageRecords);
  while (records_per_shard % page != 0) --page;
  return page;
}

}  // namespace

CorpusWriter::CorpusWriter(const std::string& path,
                           uarch::MeasurementTool tool,
                           std::uint64_t generator_seed,
                           std::uint64_t records_per_shard)
    : path_(path),
      file_(path, std::ios::binary | std::ios::trunc),
      records_per_shard_(records_per_shard),
      tool_(tool),
      generator_seed_(generator_seed) {
  if (!file_.is_open()) {
    throw CorpusError("cannot write corpus: " + path);
  }
  if (records_per_shard == 0 || records_per_shard > kMaxRecordsPerShard) {
    throw CorpusError("invalid records-per-shard " +
                      std::to_string(records_per_shard) + ": " + path);
  }
  // Placeholder header; Finish() back-patches the final counts.
  CorpusHeader header;
  header.tool = tool_;
  header.generator_seed = generator_seed_;
  header.records_per_shard = records_per_shard_;
  const std::string bytes = EncodeHeader(header);
  file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CorpusWriter::~CorpusWriter() = default;

void CorpusWriter::set_import_rejected_ppm(std::uint32_t ppm) {
  if (ppm > 1000000) {
    throw CorpusError("import rejected rate " + std::to_string(ppm) +
                      " ppm exceeds one million: " + path_);
  }
  import_rejected_ppm_ = ppm;
}

void CorpusWriter::Append(const Sample& sample) {
  if (finished_) {
    throw CorpusError("append after Finish: " + path_);
  }
  const std::string text = sample.block.ToString();
  if (text.size() > kMaxBlockTextBytes) {
    throw CorpusError("block text exceeds the format limit: " + path_);
  }
  AppendScalar<std::uint32_t>(shard_buffer_,
                              static_cast<std::uint32_t>(text.size()));
  shard_buffer_.append(text);
  for (int label = 0; label < uarch::kNumMicroarchitectures; ++label) {
    AppendScalar<double>(shard_buffer_, sample.throughput[label]);
  }
  ++shard_records_;
  ++blocks_written_;
  if (shard_records_ == records_per_shard_) FlushShard();
}

void CorpusWriter::FlushShard() {
  if (shard_records_ == 0) return;
  std::string prelude;
  AppendScalar<std::uint64_t>(prelude, shard_records_);
  AppendScalar<std::uint64_t>(prelude, shard_buffer_.size());
  file_.write(prelude.data(), static_cast<std::streamsize>(prelude.size()));
  file_.write(shard_buffer_.data(),
              static_cast<std::streamsize>(shard_buffer_.size()));
  ++shards_written_;
  shard_records_ = 0;
  shard_buffer_.clear();
}

void CorpusWriter::Finish() {
  if (finished_) {
    throw CorpusError("Finish called twice: " + path_);
  }
  FlushShard();
  file_.flush();
  if (!file_.good()) {
    throw CorpusError("write failed for corpus: " + path_);
  }
  file_.close();
  finished_ = true;

  // Back-patch the header with the final counts, then append the
  // whole-file checksum: one sequential re-read pass, constant memory.
  CorpusHeader header;
  header.tool = tool_;
  header.generator_seed = generator_seed_;
  header.import_rejected_ppm = import_rejected_ppm_;
  header.num_blocks = blocks_written_;
  header.records_per_shard = records_per_shard_;
  header.num_shards = shards_written_;
  std::fstream patch(path_, std::ios::in | std::ios::out | std::ios::binary);
  if (!patch.is_open()) {
    throw CorpusError("cannot finalize corpus: " + path_);
  }
  const std::string bytes = EncodeHeader(header);
  patch.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  patch.flush();

  patch.seekg(0);
  std::uint64_t checksum = kFnvOffsetBasis;
  std::vector<char> buffer(1 << 16);
  for (;;) {
    patch.read(buffer.data(),
               static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = patch.gcount();
    if (got <= 0) break;
    checksum = Fnv1a(checksum, buffer.data(),
                     static_cast<std::size_t>(got));
    if (patch.eof()) break;
  }
  patch.clear();
  patch.seekp(0, std::ios::end);
  patch.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  patch.flush();
  if (!patch.good()) {
    throw CorpusError("write failed finalizing corpus: " + path_);
  }
}

void SaveCorpus(const BlockSource& source, const std::string& path,
                uarch::MeasurementTool tool, std::uint64_t generator_seed,
                std::uint64_t records_per_shard) {
  CorpusWriter writer(path, tool, generator_seed, records_per_shard);
  for (std::size_t i = 0; i < source.size(); ++i) {
    const SampleView view = source.Get(i);
    Sample sample;
    sample.block = *view.block;
    sample.throughput = *view.throughput;
    writer.Append(sample);
  }
  writer.Finish();
}

void SaveCorpus(const Dataset& data, const std::string& path,
                uarch::MeasurementTool tool, std::uint64_t generator_seed,
                std::uint64_t records_per_shard) {
  SaveCorpus(MaterializedBlockSource(&data), path, tool, generator_seed,
             records_per_shard);
}

CorpusHeader ReadCorpusHeader(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  const auto [header, file_size] = OpenAndReadHeader(file, path);
  // Structural validation (seeks only): a half-written file must not
  // pass for an empty or truncated-but-valid corpus.
  CheckShardTable(file, header, file_size, path);
  return header;
}

CorpusReader::CorpusReader(const std::string& path)
    : path_(path),
      file_(path, std::ios::binary),
      checksum_(kFnvOffsetBasis) {
  std::ifstream probe(path, std::ios::binary);
  const auto [header, file_size] = OpenAndReadHeader(probe, path);
  header_ = header;
  // The main stream re-reads the header so the running checksum covers
  // every byte in order.
  std::string header_bytes(kHeaderBytes, '\0');
  ReadExact(file_, header_bytes.data(), kHeaderBytes, "header", path_);
  checksum_ = Fnv1a(checksum_, header_bytes.data(), header_bytes.size());
}

bool CorpusReader::NextShard(std::vector<Sample>* shard) {
  GRANITE_CHECK(shard != nullptr);
  if (done_) return false;
  if (shards_read_ == header_.num_shards) {
    // All shards consumed: the trailer must match the running checksum
    // and end the file.
    std::uint64_t stored = 0;
    ReadExact(file_, reinterpret_cast<char*>(&stored), 8, "checksum",
              path_);
    if (stored != checksum_) {
      throw CorpusError("corrupt corpus (checksum mismatch): " + path_);
    }
    file_.peek();
    if (!file_.eof()) {
      throw CorpusError("corrupt corpus (trailing bytes after checksum): " +
                        path_);
    }
    done_ = true;
    return false;
  }
  char prelude[16];
  ReadExact(file_, prelude, sizeof(prelude), "shard prelude", path_);
  checksum_ = Fnv1a(checksum_, prelude, sizeof(prelude));
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::memcpy(&count, prelude, 8);
  std::memcpy(&bytes, prelude + 8, 8);
  const std::uint64_t position =
      static_cast<std::uint64_t>(file_.tellg());
  file_.seekg(0, std::ios::end);
  const std::uint64_t file_size =
      static_cast<std::uint64_t>(file_.tellg());
  file_.seekg(static_cast<std::streamoff>(position));
  CheckShardPrelude(header_, shards_read_, count, bytes,
                    file_size - position - 8, path_);
  std::string payload(bytes, '\0');
  ReadExact(file_, payload.data(), bytes, "shard payload", path_);
  checksum_ = Fnv1a(checksum_, payload.data(), payload.size());
  *shard = ParseShardPayload(payload, count, header_.num_labels, path_);
  ++shards_read_;
  return true;
}

Dataset LoadCorpus(const std::string& path) {
  CorpusReader reader(path);
  std::vector<Sample> samples;
  samples.reserve(reader.header().num_blocks);
  std::vector<Sample> shard;
  while (reader.NextShard(&shard)) {
    for (Sample& sample : shard) samples.push_back(std::move(sample));
  }
  return Dataset(std::move(samples));
}

StreamingCorpusSource::OpenState StreamingCorpusSource::Open(
    const std::string& path, const StreamingCorpusOptions& options) {
  OpenState state;
  state.file.open(path, std::ios::binary);
  const auto [header, file_size] = OpenAndReadHeader(state.file, path);
  state.header = header;
  state.page_records = PageRecordsFor(header.records_per_shard);
  // One sequential pass, one shard payload resident: validate each
  // prelude, walk each record-length field to find the page boundaries
  // (a length that overruns its shard fails here, not at some later
  // random read), and feed the same bytes to the checksum.
  const std::string header_bytes = EncodeHeader(header);
  std::uint64_t checksum =
      Fnv1a(kFnvOffsetBasis, header_bytes.data(), header_bytes.size());
  const std::uint64_t label_bytes = 8ull * header.num_labels;
  std::string payload;
  std::uint64_t cursor = kHeaderBytes;
  for (std::uint64_t shard = 0; shard < header.num_shards; ++shard) {
    const ShardPrelude prelude =
        ReadShardPrelude(state.file, header, shard, cursor, file_size, path);
    payload.resize(prelude.bytes);
    ReadExact(state.file, payload.data(), prelude.bytes, "shard payload",
              path);
    if (options.verify_checksum) {
      checksum = Fnv1a(checksum, prelude.raw, kPreludeBytes);
      checksum = Fnv1a(checksum, payload.data(), payload.size());
    }
    const std::uint64_t payload_offset = cursor + kPreludeBytes;
    std::uint64_t at = 0;
    for (std::uint64_t record = 0; record < prelude.count; ++record) {
      if (record % state.page_records == 0) {
        state.pages.push_back(PageSpan{payload_offset + at, 0});
      }
      std::uint32_t text_length = 0;
      const std::uint64_t left = prelude.bytes - at;
      if (left >= 4) std::memcpy(&text_length, payload.data() + at, 4);
      if (left < 4 || left - 4 < text_length + label_bytes) {
        throw CorpusError("corrupt corpus (record " + std::to_string(record) +
                          " of shard " + std::to_string(shard) +
                          " overruns its shard): " + path);
      }
      at += 4 + text_length + label_bytes;
      PageSpan& page = state.pages.back();
      page.bytes = payload_offset + at - page.offset;
    }
    if (at != prelude.bytes) {
      throw CorpusError("corrupt corpus (trailing bytes in shard " +
                        std::to_string(shard) + " payload): " + path);
    }
    cursor = payload_offset + prelude.bytes;
  }
  CheckShardTableEnd(cursor, file_size, path);
  if (options.verify_checksum) {
    std::uint64_t stored = 0;
    ReadExact(state.file, reinterpret_cast<char*>(&stored), 8, "checksum",
              path);
    if (stored != checksum) {
      throw CorpusError("corrupt corpus (checksum mismatch): " + path);
    }
  }
  return state;
}

StreamingCorpusSource::StreamingCorpusSource(
    const std::string& path, const StreamingCorpusOptions& options)
    : StreamingCorpusSource(Open(path, options), path,
                            options.cache_shards) {}

StreamingCorpusSource::StreamingCorpusSource(OpenState state,
                                             const std::string& path,
                                             std::size_t cache_shards)
    : ShardedBlockSource(
          static_cast<std::size_t>(state.page_records),
          std::max<std::size_t>(1, cache_shards) *
              static_cast<std::size_t>(state.header.records_per_shard /
                                       state.page_records)),
      path_(path),
      file_(std::move(state.file)),
      header_(state.header),
      pages_(std::move(state.pages)) {}

std::vector<Sample> StreamingCorpusSource::LoadShard(
    std::size_t page_index) const {
  GRANITE_CHECK_LT(page_index, pages_.size());
  const PageSpan& page = pages_[page_index];
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(page.offset));
  std::string payload(page.bytes, '\0');
  ReadExact(file_, payload.data(), page.bytes, "page payload", path_);
  // The walk at open fixed this page's bytes; a file changed under us no
  // longer parses to exactly the page's record count.
  const std::uint64_t first = page_index * records_per_shard();
  return ParseShardPayload(
      payload,
      std::min<std::uint64_t>(records_per_shard(), header_.num_blocks - first),
      header_.num_labels, path_);
}

}  // namespace granite::dataset
