// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The scan operators under study, behind one cursor factory:
//
//  * TableScanOp — the baseline TSCAN: scans its range front-to-back,
//    releases pages at Normal priority, knows nothing about other scans.
//  * SharedScanOp — the paper's sharing scan (the table-scan SISCAN
//    analogue): asks the Scan Sharing Manager where to start, scans
//    [startLoc, range_end) then wraps to [range_first, startLoc), reports
//    its location every extent, inserts the throttle waits the SSM
//    requests, and releases pages at the SSM-advised priority.
//  * IndexScanOp — the baseline IXSCAN over an MDC block index (extension
//    layer, after the authors' VLDB 2007 follow-up): visits the keys of
//    [key_lo, key_hi] in order and each key's blocks in BID order,
//    releasing pages at Normal priority (paper Fig. 1).
//  * SharedIndexScanOp — the SISCAN: asks the Index Scan Sharing Manager
//    where to start, traverses [startLoc → end key] then wraps to
//    [start key → startLoc] (paper Fig. 3), reports its (key, block)
//    location every block, inserts the ISM's throttle waits, and releases
//    pages at the ISM-advised priority.
//
// All are *steppable*: Step() executes roughly one unit of work — a
// prefetch extent for table scans, a block (the prefetch unit of an MDC
// scan) for index scans — and returns the virtual time it consumed, so the
// deterministic drivers can interleave scans at that granularity. Step
// cost is max(cpu, io) — sequential prefetch pipelines transfer time behind
// tuple processing, which is what makes CPU-bound queries insensitive to
// I/O savings (the paper's Q1 observation).

#pragma once

#include <memory>
#include <optional>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "exec/query.h"
#include "ssm/index_scan_sharing_manager.h"
#include "ssm/scan_sharing_manager.h"
#include "storage/block_index.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// Everything a scan operator needs from its surroundings.
struct ScanEnv {
  buffer::BufferPool* pool = nullptr;
  const storage::TableInfo* table = nullptr;
  const CostModel* cost = nullptr;
  /// Disk cost model, used for duration estimates at SSM registration.
  const sim::DiskOptions* disk_options = nullptr;
  /// Table scans: set for shared scans, null for baseline scans.
  ssm::ScanSharingManager* ssm = nullptr;
  /// Index scans: the table's block index (required).
  const storage::BlockIndex* index = nullptr;
  /// Index scans: set for shared scans, null for baseline scans.
  ssm::IndexScanSharingManager* ism = nullptr;
  /// Borrowed event tracer (null = tracing disabled). Scan operators emit
  /// throttle-release events; the SSM/pool/disk emit the rest themselves.
  obs::Tracer* tracer = nullptr;
};

/// Steppable scan-aggregate cursor.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Prepares the scan (binds predicate/aggregates, registers with the SSM
  /// for shared scans) at virtual time `now`.
  virtual Status Open(sim::Micros now) = 0;

  /// Executes the next unit of work at virtual time `now`; returns the
  /// virtual duration consumed and sets *done when the scan finished.
  virtual StatusOr<sim::Micros> Step(sim::Micros now, bool* done) = 0;

  /// Finalizes the scan (deregisters from the SSM) and returns the query
  /// output. Must be called exactly once, after Step reported done.
  virtual StatusOr<QueryOutput> Close(sim::Micros now) = 0;

  /// Counters accumulated so far.
  virtual const ScanMetrics& metrics() const = 0;

  /// Current scan position (the next page to process). Valid after Open.
  virtual sim::PageId position() const = 0;
};

/// Creates the cursor for `query`: an index scan if query.access is
/// kIndexScan (shared iff env.ism is set), else a table scan (shared iff
/// env.ssm is set).
std::unique_ptr<ScanCursor> MakeScanCursor(const ScanEnv& env, QuerySpec query);

/// Fills env.table (and env.index for index scans) from `catalog`, makes
/// the cursor with MakeScanCursor, and opens it at virtual time `now`.
[[nodiscard]] StatusOr<std::unique_ptr<ScanCursor>> OpenScanCursor(
    const storage::Catalog& catalog, ScanEnv env, const QuerySpec& query,
    sim::Micros now);

/// Computes the page range a query covers on its table (fraction bounds
/// rounded to extent boundaries; never empty for a non-empty table).
void ResolveScanRange(const storage::TableInfo& table, const QuerySpec& query,
                      uint64_t extent_pages, sim::PageId* first,
                      sim::PageId* end);

/// Clamps a query's key range to the index's key domain and returns the
/// number of blocks it covers (0 if the range misses every key).
uint64_t ResolveIndexRange(const storage::BlockIndex& index,
                           const QuerySpec& query, int64_t* key_lo,
                           int64_t* key_hi);

/// Estimated unthrottled duration of `query` under `cost` and the given
/// disk parameters — the "costing component" estimate the SSM registration
/// requires. Exposed for tests.
sim::Micros EstimateScanDuration(const storage::TableInfo& table,
                                 const QuerySpec& query, const CostModel& cost,
                                 const sim::DiskOptions& disk_options,
                                 uint64_t pages);

/// The SSM registration of a table scan of `query` over [range_first,
/// range_end) of `table`, with its EstimateScanDuration estimate.
ssm::ScanDescriptor DescribeTableScan(const storage::TableInfo& table,
                                      const QuerySpec& query,
                                      const CostModel& cost,
                                      const sim::DiskOptions& disk_options,
                                      sim::PageId range_first,
                                      sim::PageId range_end);

}  // namespace scanshare::exec
