// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Morsel-parallel table scan: one query executed by N worker threads over
// a latch-partitioned buffer pool, feeding parallel GROUP BY with
// per-morsel partial aggregates and a deterministic ordered merge.
//
// The scan range is cut into fixed-size, extent-aligned morsels. Workers
// pull morsels from a shared atomic cursor (classic morsel-driven
// scheduling), so distribution adapts to stragglers; but every morsel's
// partial aggregate is stored by its *canonical index* (ascending page
// order over the range) and the final merge folds partials in canonical
// order. The floating-point reduction tree is therefore a function of the
// range geometry alone — not of worker count, scheduling, or the SSM's
// rotation point — which is what makes jobs=1 and jobs=N produce
// bit-identical aggregates (metrics::BitIdentical over the QueryOutput).
//
// What is and is not deterministic here (DESIGN.md §12): the aggregate
// output, rows scanned/matched, and pages/tuples counters are exactly
// reproducible across any jobs value. Buffer hit/miss/eviction counts,
// disk statistics, and the virtual "time" fields are NOT — they depend on
// worker interleaving. The sequential simulator (Database::Run) remains
// the instrument for timing experiments; this runner is the throughput
// engine.
//
// This file is on the domain lint's concurrent-engine allowlist
// (scanshare-threads).

#pragma once

#include <cstdint>
#include <memory>

#include "buffer/partitioned_buffer_pool.h"
#include "exec/engine.h"
#include "exec/query.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::exec {

/// Knobs for one parallel query execution.
struct ParallelScanOptions {
  /// Worker threads. 0 = ThreadPool::HardwareConcurrency().
  size_t jobs = 1;
  /// Buffer-pool partitions. 0 = same as jobs (one shard per worker).
  size_t partitions = 0;
  /// Morsel size in prefetch extents (>= 1). One extent per morsel keeps
  /// every fetch's prefetch window inside the morsel.
  uint64_t morsel_extents = 1;
};

/// Result of one parallel query execution.
struct ParallelQueryResult {
  /// Deterministic across jobs values (the contract above).
  QueryOutput output;
  /// Merged worker counters. pages/tuples/matched are deterministic; the
  /// time-like fields (cpu, io_stall, end_time) are scheduling-dependent.
  ScanMetrics metrics;
  /// Aggregated pool counters — NOT deterministic under concurrency. Nor
  /// are the disk's counters after a jobs > 1 run: which worker takes a
  /// cold miss, and so the seek count, depends on thread order. Read disk
  /// counters from jobs = 1 runs (scanbench's parallel_fit does).
  buffer::BufferPoolStats buffer;
  /// SSM counters (zero in kBaseline mode, which bypasses the SSM).
  ssm::SsmStats ssm;
  size_t jobs = 0;        ///< Effective worker count.
  size_t partitions = 0;  ///< Effective pool partition count.
  uint64_t morsels = 0;   ///< Morsels the range was cut into.
  /// Concurrent-mode tracer when config.trace.enabled (event order is
  /// scheduling-dependent; drop accounting still exact).
  std::shared_ptr<const obs::Tracer> trace;
};

/// Executes one table-scan aggregation query with `options.jobs` workers
/// over a fresh PartitionedBufferPool, from a cold cache. Supports
/// AccessPath::kTableScan only (NotSupported otherwise). `config` supplies
/// the pool geometry, replacement policy family, cost model, SSM
/// options, and tracing — the same RunEngine Database::Run builds. In
/// kShared mode the scan registers with the SSM: placement picks the
/// rotation start, workers report aggregate progress and release pages at
/// the advised priority. RunConfig::io must stay default (InvalidArgument
/// otherwise): workers read on demand through the partitioned pool.
[[nodiscard]] StatusOr<ParallelQueryResult> RunQueryParallel(
    Database* db, const RunConfig& config, const QuerySpec& query,
    const ParallelScanOptions& options);

}  // namespace scanshare::exec
