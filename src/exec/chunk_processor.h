// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// ChunkProcessor: the page-level inner loop shared by every scan operator
// (table scans and block-index scans): fetch each page of a contiguous
// run through the buffer pool, validate it, evaluate the predicate, fold
// matches into the aggregator, release with a caller-chosen priority, and
// account virtual CPU/I/O cost under the pipelined model (sequential
// prefetch overlaps transfer with tuple processing, so a chunk costs
// max(cpu, io) plus bookkeeping).

#pragma once

#include <memory>
#include <vector>

#include "buffer/page_source.h"
#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "exec/query.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// Stateful page-run processor bound to one query execution.
class ChunkProcessor {
 public:
  /// All pointers are borrowed and must outlive the processor.
  ChunkProcessor(buffer::PageSource* pool, const storage::TableInfo* table,
                 const CostModel* cost, const Predicate* predicate,
                 Aggregator* aggregator, ScanMetrics* metrics);

  /// Binds the per-tuple cost constants from the query shape.
  void SetQueryCosts(size_t predicate_atoms, size_t num_aggs,
                     double per_tuple_extra_ns);

  /// Processes pages [first, end) starting at virtual time `now`,
  /// releasing each with `priority`. Returns elapsed virtual micros and
  /// updates the bound ScanMetrics once per call (per extent chunk), not
  /// per page. The first call compiles the predicate and aggregates and
  /// returns that step's error (e.g. an unbound query) if it fails.
  StatusOr<sim::Micros> ProcessRange(sim::PageId first, sim::PageId end,
                                     sim::Micros now,
                                     buffer::PagePriority priority);

 private:
  /// Compiles the predicate and aggregator to their offset-hoisted forms
  /// (done lazily on the first ProcessRange). Both must already be bound
  /// to the table's schema.
  Status PrepareHot();

  buffer::PageSource* pool_;
  const storage::TableInfo* table_;
  const CostModel* cost_;
  const Predicate* predicate_;
  Aggregator* aggregator_;
  ScanMetrics* metrics_;
  double per_tuple_ns_ = 0.0;
  double per_match_ns_ = 0.0;

  // Compiled kernel (PrepareHot):
  CompiledPredicate compiled_pred_;
  bool hot_prepared_ = false;

  // Columnar kernel scratch, reused across pages: materialized tuple
  // pointers and the per-slot selection flags.
  std::vector<const uint8_t*> batch_tuples_;
  std::vector<uint8_t> batch_sel_;
};

}  // namespace scanshare::exec
