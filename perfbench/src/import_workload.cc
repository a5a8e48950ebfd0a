/**
 * @file
 * import_stream: corpus import and streaming batch draws.
 *
 * Set-up synthesizes blocks from the seed and writes them, with labels,
 * as a BHive-style CSV larger than the streaming shard window (as real
 * corpora are). The measured phase first re-imports the CSV a few times
 * with ImportBhiveCsv into a `.gbc` corpus, then opens the corpus as a
 * StreamingCorpusSource and draws 100-block batches in the trainer's
 * order (SplitIndices, SubsetBlockSource, BatchSampler, PrepareBatch).
 * The random draws over
 * more shards than the window holds make shard loads (read + re-parse)
 * the dominant cost; the parser, importer and corpus writer dominate the
 * import half.
 *
 * Checks: every written row is imported, and at sampled indices the
 * corpus returns the labels and block text the CSV holds.
 */
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "dataset/batch_pipeline.h"
#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "dataset/dataset.h"
#include "dataset/generator.h"
#include "dataset/importer.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace dataset = granite::dataset;

/** 40,000 rows: ten 4096-record shards against the default window of
 * eight, so random batches keep reloading shards. */
constexpr std::size_t kCsvRows = 40000;
constexpr std::size_t kBatchSize = 100;
/** Reference-host rates that size the two phases (OpsFor): an import
 * takes about 0.45 s and a batch draw about 0.4 s, so imports fill about
 * a quarter of the measured time. */
constexpr double kImportsPerSecond = 0.5;
constexpr double kBatchesPerSecond = 1.8;
constexpr double kTrainFraction = 0.95;
/** Corpus indices checked against the CSV after the draws. */
constexpr int kReadBackChecks = 64;
/** Blocks the traced run parses to time the parser alone. */
constexpr std::size_t kParseSamples = 2000;

struct CsvRow {
  std::string text;  // BasicBlock::ToString(): one instruction per line.
  double throughput = 0.0;
};

/** Writes `rows` as `block,throughput` CSV lines, instructions joined by
 * "; " inside a quoted field. */
void WriteCsv(const std::string& path, const std::vector<CsvRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "block,throughput\n";
  char label[64];
  for (const CsvRow& row : rows) {
    std::string field;
    for (const char c : row.text) {
      if (c == '\n') {
        field += "; ";
      } else {
        field += c;
      }
    }
    std::snprintf(label, sizeof(label), "%.17g", row.throughput);
    out << '"' << field << "\"," << label << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<CsvRow> MakeRows(std::uint64_t seed) {
  dataset::BlockGenerator generator({}, seed);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> throughput(20.0, 2000.0);
  std::vector<CsvRow> rows(kCsvRows);
  for (CsvRow& row : rows) {
    row.text = generator.Generate().ToString();
    row.throughput = throughput(rng);
  }
  return rows;
}

}  // namespace

Outcome RunImportStream(const Options& options, const TimingBackend* kernels) {
  Outcome outcome;
  const bool traced = kernels != nullptr;
  if (traced) AddLayerDefaults(outcome);
  const std::string csv_path = options.workdir + "/import.csv";
  const std::string corpus_path = options.workdir + "/import.gbc";

  std::vector<CsvRow> rows;
  const double setup_s = TimedSetup([&] {
    rows = MakeRows(options.seed);
    WriteCsv(csv_path, rows);
  });

  // Import phase: re-import the CSV.
  std::vector<double> import_s;
  std::uint64_t imported_rows = 0;
  const int imports = OpsFor(options, kImportsPerSecond);
  for (int i = 0; i < imports; ++i) {
    const Clock::time_point import_start = Clock::now();
    const dataset::ImportStats stats =
        dataset::ImportBhiveCsv(csv_path, corpus_path);
    import_s.push_back(SecondsBetween(import_start, Clock::now()));
    imported_rows += stats.imported;
    outcome.attempted += stats.rows;
    outcome.failed += stats.rejected();
    outcome.Check(stats.rows == kCsvRows && stats.imported == kCsvRows,
                  "import_stream: imported " + std::to_string(stats.imported) +
                      " of " + std::to_string(kCsvRows) + " rows");
  }

  // Draw phase: batches in the trainer's order from the imported corpus.
  std::unique_ptr<dataset::StreamingCorpusSource> source;
  const TimedCorpusSource* timed = nullptr;
  if (traced) {
    auto timed_source = std::make_unique<TimedCorpusSource>(corpus_path);
    timed = timed_source.get();
    source = std::move(timed_source);
  } else {
    source = std::make_unique<dataset::StreamingCorpusSource>(corpus_path);
  }
  const dataset::IndexSplit split =
      dataset::SplitIndices(source->size(), kTrainFraction, options.seed);
  const dataset::SubsetBlockSource train(source.get(), split.first);
  dataset::BatchSampler sampler(train.size(), kBatchSize, options.seed);
  std::vector<double> batch_ms;
  const std::uint64_t faults_before = MinorFaults();
  const int draws = OpsFor(options, kBatchesPerSecond);
  for (int i = 0; i < draws; ++i) {
    const Clock::time_point batch_start = Clock::now();
    const dataset::PreparedBatch batch =
        dataset::PrepareBatch(train, sampler.NextBatch(), 1, nullptr);
    batch_ms.push_back(MsBetween(batch_start, Clock::now()));
    ++outcome.attempted;
    if (batch.blocks.size() != kBatchSize) ++outcome.failed;
  }
  const std::uint64_t draw_faults = MinorFaults() - faults_before;
  const double shard_loads = static_cast<double>(source->shard_loads());
  const double shard_load_ms =
      traced ? timed->shard_loads_timed().ms() : 0.0;
  const double batches = static_cast<double>(batch_ms.size());
  double draw_total_ms = 0.0;
  for (const double ms : batch_ms) draw_total_ms += ms;

  // Sampled rows read back against what the CSV holds.
  std::mt19937_64 rng(options.seed ^ 0xc0ffeeULL);
  std::uniform_int_distribution<std::size_t> pick(0, kCsvRows - 1);
  for (int c = 0; c < kReadBackChecks; ++c) {
    const std::size_t index = pick(rng);
    const dataset::SampleView view = source->Get(index);
    bool labels_match = true;
    for (const double label : *view.throughput) {
      labels_match = labels_match && label == rows[index].throughput;
    }
    outcome.Check(labels_match && view.block->ToString() == rows[index].text,
                  "import_stream: row " + std::to_string(index) +
                      " does not read back as written");
  }

  if (traced) {
    std::size_t parsed = 0;
    const Clock::time_point parse_start = Clock::now();
    for (std::size_t i = 0; i < kParseSamples; ++i) {
      if (granite::assembly::ParseBasicBlock(rows[i].text).ok()) ++parsed;
    }
    const double parse_us = MsBetween(parse_start, Clock::now()) * 1e3;
    outcome.Check(parsed == kParseSamples,
                  "import_stream: written blocks fail to parse");
    AddKernelLayers(outcome, KernelTotals{}, 0.0, draw_faults, batches);
    SetLayer(outcome, "asm.parse_us",
             parse_us / static_cast<double>(kParseSamples));
    SetLayer(outcome, "dataset.prepare_ms", draw_total_ms / batches);
    SetLayer(outcome, "dataset.shard_loads", shard_loads / batches);
    SetLayer(outcome, "dataset.shard_load_ms", shard_load_ms / batches);
  }

  double import_total_s = 0.0;
  for (const double s : import_s) import_total_s += s;
  outcome.end_to_end["setup_s"] = {setup_s, "s"};
  outcome.end_to_end["blocks_per_s"] = {
      batches * kBatchSize / (draw_total_ms / 1e3), "blocks/s"};
  outcome.end_to_end["op_ms_p50"] = {Median(batch_ms), "ms"};
  outcome.end_to_end["items_per_s"] = {
      static_cast<double>(imported_rows) / import_total_s, "items/s"};
  std::fprintf(stderr,
               "import_stream: %zu imports, %.0f rows/s (median import "
               "%.3fs); %zu batches, p50 %.1f ms, %.0f blocks/s, %.2f shard "
               "loads per batch\n",
               import_s.size(),
               static_cast<double>(imported_rows) / import_total_s,
               Median(import_s), batch_ms.size(), Median(batch_ms),
               batches * kBatchSize / (draw_total_ms / 1e3),
               shard_loads / batches);
  return outcome;
}

}  // namespace perfbench
