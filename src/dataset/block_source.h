/**
 * @file
 * Streaming-capable sample sources.
 *
 * The paper trains on corpora of >1M basic blocks; materializing every
 * Sample in one std::vector caps the corpus far below that scale. A
 * BlockSource abstracts "an indexed collection of labeled blocks" away
 * from its storage: fully materialized (a Dataset), streamed from an
 * on-disk corpus file (corpus_io.h), or synthesized lazily from the
 * seeded generator. Batch preparation and the trainer sample from a
 * BlockSource, so the same seed produces bit-identical training runs
 * regardless of where the samples live.
 *
 * Streaming sources keep at most a small LRU window of shards resident;
 * Get() hands out views that pin their backing shard, so a view stays
 * valid across evictions for as long as the caller holds it.
 */
#ifndef GRANITE_DATASET_BLOCK_SOURCE_H_
#define GRANITE_DATASET_BLOCK_SOURCE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "base/lru_cache.h"
#include "dataset/dataset.h"

namespace granite::dataset {

/**
 * A pinned view of one sample. `block` and `throughput` stay valid while
 * `pin` is alive (for materialized sources they point into the backing
 * Dataset and `pin` is empty).
 */
struct SampleView {
  const assembly::BasicBlock* block = nullptr;
  const std::array<double, uarch::kNumMicroarchitectures>* throughput =
      nullptr;
  /** Keep-alive handle for the backing shard of a streaming source. */
  std::shared_ptr<const void> pin;
};

/** An indexed, possibly streaming, collection of labeled blocks. */
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /** Total number of samples. */
  virtual std::size_t size() const = 0;

  /** Returns a pinned view of sample `index`. Thread-safe. */
  virtual SampleView Get(std::size_t index) const = 0;

  bool empty() const { return size() == 0; }

  /** Ground-truth column of one microarchitecture (one full pass). */
  std::vector<double> Throughputs(uarch::Microarchitecture uarch) const;
};

/** Zero-copy view of a fully materialized Dataset (which must outlive
 * the source). */
class MaterializedBlockSource : public BlockSource {
 public:
  explicit MaterializedBlockSource(const Dataset* data);

  std::size_t size() const override { return data_->size(); }
  SampleView Get(std::size_t index) const override;

 private:
  const Dataset* data_;
};

/**
 * A re-indexed view of another source: element i is base[indices[i]].
 * Used for train/validation/test splits without copying samples; `base`
 * must outlive the subset.
 */
class SubsetBlockSource : public BlockSource {
 public:
  SubsetBlockSource(const BlockSource* base,
                    std::vector<std::size_t> indices);

  std::size_t size() const override { return indices_.size(); }
  SampleView Get(std::size_t index) const override;

 private:
  const BlockSource* base_;
  std::vector<std::size_t> indices_;
};

/** The index lists of a two-way split (parallel to
 * Dataset::SplitFraction, which copies samples instead). */
struct IndexSplit {
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
};

/**
 * Splits [0, size) into (`first_fraction`, rest) by the same seeded
 * shuffle as Dataset::SplitFraction: applying the returned index lists
 * to a source yields exactly the samples (in the same order) that
 * SplitFraction would copy into its two datasets.
 */
IndexSplit SplitIndices(std::size_t size, double first_fraction,
                        uint64_t seed);

/**
 * Base for sources that materialize fixed-size shards on demand and keep
 * an LRU window of them resident. A shard here is the source's load
 * unit, which need not be a file shard: StreamingCorpusSource loads
 * pages of a few dozen records. Get() is mutex-serialized; a shard miss
 * invokes LoadShard() while holding the lock.
 */
class ShardedBlockSource : public BlockSource {
 public:
  SampleView Get(std::size_t index) const override;

  std::size_t records_per_shard() const { return records_per_shard_; }

  /** Number of shard materializations so far (monotone; for tests and
   * the IO bench — proves cached access skips LoadShard). */
  std::size_t shard_loads() const;

 protected:
  ShardedBlockSource(std::size_t records_per_shard,
                     std::size_t cache_shards);

  /** Materializes shard `shard_index` (samples
   * [shard_index * records_per_shard, ...)). Called under the mutex. */
  virtual std::vector<Sample> LoadShard(std::size_t shard_index) const = 0;

 private:
  using ShardPtr = std::shared_ptr<const std::vector<Sample>>;

  std::size_t records_per_shard_;
  mutable std::mutex mutex_;
  mutable base::LruCache<std::size_t, ShardPtr> cache_;
  mutable std::size_t shard_loads_ = 0;
};

/** Tuning of a streaming-synthesis source. */
struct StreamingSynthesisOptions {
  /** Samples per lazily materialized shard. */
  std::size_t records_per_shard = 4096;
  /** Shards kept resident (LRU). */
  std::size_t cache_shards = 8;
};

/**
 * Synthesizes the exact sample sequence of SynthesizeDataset(config)
 * without ever materializing it: construction replays the generator once
 * (recording per-shard RNG snapshots and accept/reject decisions, but no
 * samples), and shards are regenerated — blocks and measurements — on
 * demand. Same config + seed ⇒ sample-for-sample identical to the
 * materialized dataset; peak memory is O(cache_shards * records_per_shard)
 * samples plus 8 bytes per block of dedup fingerprints.
 */
class StreamingSynthesisSource : public ShardedBlockSource {
 public:
  explicit StreamingSynthesisSource(const SynthesisConfig& config,
                                    const StreamingSynthesisOptions&
                                        options = {});

  std::size_t size() const override { return num_blocks_; }

 protected:
  std::vector<Sample> LoadShard(std::size_t shard_index) const override;

 private:
  /** Replay recipe of one shard: the generator state at the shard's
   * first attempt, plus which attempts the dedup pass accepted. */
  struct ShardPlan {
    Rng rng_state;
    std::vector<bool> accepted;
  };

  SynthesisConfig config_;
  std::size_t num_blocks_;
  std::vector<ShardPlan> plans_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_BLOCK_SOURCE_H_
