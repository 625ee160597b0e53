#include "exec/scan_ops.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "exec/chunk_processor.h"

namespace scanshare::exec {

namespace {

/// Rounds `page` down to the extent grid.
sim::PageId AlignDown(sim::PageId page, uint64_t extent) {
  return page - (page % extent);
}

/// Work shared by every scan operator: the Open/Step/Close lifecycle
/// checks, predicate/aggregate binding, and page-chunk processing with
/// pipelined cost accounting. Operators implement Start (the Open body)
/// and Advance (one Step of work, setting done_ on the last one).
class ScanOpBase : public ScanCursor {
 public:
  ScanOpBase(const ScanEnv& env, QuerySpec query, const char* name)
      : env_(env), query_(std::move(query)), name_(name) {}

  Status Open(sim::Micros now) final {
    if (open_) return Error("already open");
    SCANSHARE_RETURN_IF_ERROR(Start(now));
    open_ = true;
    return Status::OK();
  }

  StatusOr<sim::Micros> Step(sim::Micros now, bool* done) final {
    if (!open_ || closed_) return Error("not open");
    if (done_) {
      *done = true;
      return static_cast<sim::Micros>(0);
    }
    SCANSHARE_ASSIGN_OR_RETURN(const sim::Micros elapsed, Advance(now));
    *done = done_;
    return elapsed;
  }

  StatusOr<QueryOutput> Close(sim::Micros now) final {
    if (!done_) return Error("not finished");
    if (closed_) return Error("already closed");
    closed_ = true;
    if (metrics_.end_time == 0) metrics_.end_time = now;
    return agg_->Finish(metrics_.tuples_scanned);
  }

  const ScanMetrics& metrics() const final { return metrics_; }

 protected:
  virtual Status Start(sim::Micros now) = 0;
  virtual StatusOr<sim::Micros> Advance(sim::Micros now) = 0;

  Status Error(const char* what) const {
    return Status::FailedPrecondition(std::string(name_) + ": " + what);
  }

  Status BindQuery() {
    const storage::Schema& schema = env_.table->schema;
    SCANSHARE_RETURN_IF_ERROR(query_.predicate.Bind(schema));
    agg_ = std::make_unique<Aggregator>(query_.aggs, query_.group_by);
    SCANSHARE_RETURN_IF_ERROR(agg_->Bind(schema));
    chunks_ = std::make_unique<ChunkProcessor>(env_.pool, env_.table, env_.cost,
                                               &query_.predicate, agg_.get(),
                                               &metrics_);
    chunks_->SetQueryCosts(query_.predicate.size(), query_.aggs.size(),
                           query_.per_tuple_extra_ns);
    return Status::OK();
  }

  /// Processes pages [first, end) starting at virtual time `now`, releasing
  /// each with `priority`. Returns elapsed virtual micros.
  StatusOr<sim::Micros> ProcessChunk(sim::PageId first, sim::PageId end,
                                     sim::Micros now,
                                     buffer::PagePriority priority) {
    return chunks_->ProcessRange(first, end, now, priority);
  }

  /// Virtual cost of one SSM/ISM call.
  sim::Micros SsmCallCost() const {
    return static_cast<sim::Micros>(std::llround(env_.cost->ssm_call_us));
  }

  const sim::DiskOptions& disk_options() const {
    static const sim::DiskOptions kDefault;
    return env_.disk_options != nullptr ? *env_.disk_options : kDefault;
  }

  ScanEnv env_;
  QuerySpec query_;
  std::unique_ptr<Aggregator> agg_;
  std::unique_ptr<ChunkProcessor> chunks_;
  ScanMetrics metrics_;
  bool done_ = false;

 private:
  const char* name_;
  bool open_ = false;
  bool closed_ = false;
};

// ------------------------------------------------------------ table scans

/// Range resolution shared by both table scans.
class TableScanBase : public ScanOpBase {
 public:
  using ScanOpBase::ScanOpBase;

  sim::PageId position() const final { return cursor_; }

 protected:
  Status BindAll() {
    SCANSHARE_RETURN_IF_ERROR(BindQuery());
    ResolveScanRange(*env_.table, query_, env_.pool->prefetch_extent_pages(),
                     &range_first_, &range_end_);
    return Status::OK();
  }

  sim::PageId range_first_ = 0;
  sim::PageId range_end_ = 0;
  sim::PageId cursor_ = 0;
};

/// Baseline scan: front-to-back, Normal priority, no SSM interaction.
class TableScanOp final : public TableScanBase {
 public:
  TableScanOp(const ScanEnv& env, QuerySpec query)
      : TableScanBase(env, std::move(query), "TableScanOp") {}

 private:
  Status Start(sim::Micros now) override {
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    cursor_ = range_first_;
    metrics_.start_time = now;
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    const uint64_t extent = env_.pool->prefetch_extent_pages();
    const sim::PageId chunk_end =
        std::min<sim::PageId>(AlignDown(cursor_, extent) + extent, range_end_);
    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros elapsed,
        ProcessChunk(cursor_, chunk_end, now, buffer::PagePriority::kNormal));
    cursor_ = chunk_end;
    if (cursor_ >= range_end_) {
      done_ = true;
      metrics_.end_time = now + elapsed;
    }
    return elapsed;
  }
};

/// The paper's sharing scan: SSM-placed wrap-around traversal with
/// per-extent location updates, throttle waits, and advised priorities.
class SharedScanOp final : public TableScanBase {
 public:
  SharedScanOp(const ScanEnv& env, QuerySpec query)
      : TableScanBase(env, std::move(query), "SharedScanOp") {}

 private:
  Status Start(sim::Micros now) override {
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    const ssm::ScanDescriptor desc =
        DescribeTableScan(*env_.table, query_, *env_.cost, disk_options(),
                          range_first_, range_end_);
    SCANSHARE_ASSIGN_OR_RETURN(ssm::StartInfo start, env_.ssm->StartScan(desc, now));
    metrics_.overhead += SsmCallCost();
    scan_id_ = start.id;
    start_page_ = start.start_page;
    cursor_ = start_page_;
    phase2_ = false;
    metrics_.start_time = now;
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    const uint64_t extent = env_.pool->prefetch_extent_pages();
    const sim::PageId segment_end = phase2_ ? start_page_ : range_end_;
    const sim::PageId chunk_end =
        std::min<sim::PageId>(AlignDown(cursor_, extent) + extent, segment_end);

    // Report the location *before* the chunk (paper Fig. 3: update the
    // ISM, then release pages with the freshly advised ISM.pr()). Role
    // assignment must reflect the pages this scan is about to read:
    // releasing fresh pages under a stale "trailer" role would mark them
    // Low and have them evicted before the group members behind can read
    // them — exactly the thrash the fresh call avoids.
    SCANSHARE_ASSIGN_OR_RETURN(
        ssm::UpdateResult update,
        env_.ssm->UpdateLocation(scan_id_, cursor_, metrics_.pages_scanned, now));
    metrics_.overhead += SsmCallCost();
    sim::Micros elapsed = SsmCallCost();
    priority_ = update.priority;
    if (update.wait > 0) {
      // Throttle wait inserted inside the update call (the scan just sees
      // a slow call), postponing the read-ahead that widens the group.
      metrics_.throttle_wait += update.wait;
      elapsed += update.wait;
      // The wait ends when the update call returns: release is stamped at
      // the insert's far edge so insert/release pair up in the timeline.
      SCANSHARE_TRACE_EVENT(env_.tracer, obs::EventKind::kThrottleRelease,
                            now + elapsed, scan_id_, update.wait);
    }

    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros chunk_cost,
        ProcessChunk(cursor_, chunk_end, now + elapsed, priority_));
    elapsed += chunk_cost;
    cursor_ = chunk_end;

    // Segment / scan termination. Phase 2 covers [range_first, start_page).
    if (!phase2_ && cursor_ >= range_end_) {
      phase2_ = true;
      cursor_ = range_first_;
    }
    const bool finished =
        phase2_ && (cursor_ >= start_page_ || start_page_ == range_first_);

    if (finished) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      SCANSHARE_RETURN_IF_ERROR(env_.ssm->EndScan(scan_id_, metrics_.end_time));
      metrics_.overhead += SsmCallCost();
      elapsed += SsmCallCost();
    }
    return elapsed;
  }

  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  sim::PageId start_page_ = 0;
  bool phase2_ = false;
  buffer::PagePriority priority_ = buffer::PagePriority::kNormal;
};

// ------------------------------------------------------------ index scans

/// Block sequence construction and per-block page processing shared by
/// both index scans.
class IndexScanBase : public ScanOpBase {
 public:
  using ScanOpBase::ScanOpBase;

  sim::PageId position() const final {
    if (sequence_.empty()) return env_.table->first_page;
    const size_t idx = std::min(current_, sequence_.size() - 1);
    return BlockFirstPage(sequence_[idx]);
  }

 protected:
  Status BindAll() {
    if (env_.index == nullptr) {
      return Status::InvalidArgument("index scan: no block index");
    }
    SCANSHARE_RETURN_IF_ERROR(BindQuery());
    ResolveIndexRange(*env_.index, query_, &key_lo_, &key_hi_);
    sequence_ = env_.index->BlockSequence(key_lo_, key_hi_);
    locations_.clear();
    locations_.reserve(sequence_.size());
    for (int64_t key = key_lo_; key <= key_hi_; ++key) {
      const auto& bids = env_.index->BlocksFor(key);
      for (uint32_t pos = 0; pos < bids.size(); ++pos) {
        locations_.push_back(ssm::IndexScanLocation{key, pos});
      }
    }
    return Status::OK();
  }

  sim::PageId BlockFirstPage(storage::BlockId bid) const {
    return env_.table->first_page +
           static_cast<sim::PageId>(bid) * env_.index->block_pages();
  }

  /// Processes the pages of the block at sequence position `idx`.
  StatusOr<sim::Micros> ProcessBlock(size_t idx, sim::Micros now,
                                     buffer::PagePriority priority) {
    const sim::PageId first = BlockFirstPage(sequence_[idx]);
    const sim::PageId end = std::min<sim::PageId>(
        first + env_.index->block_pages(), env_.table->end_page());
    ++blocks_done_;
    return ProcessChunk(first, end, now, priority);
  }

  int64_t key_lo_ = 0;
  int64_t key_hi_ = 0;
  std::vector<storage::BlockId> sequence_;         ///< Traversal order.
  std::vector<ssm::IndexScanLocation> locations_;  ///< Parallel to sequence_.
  size_t current_ = 0;   ///< Next sequence position to process.
  uint64_t blocks_done_ = 0;
};

/// Baseline IXSCAN: keys in order, blocks in BID order, Normal releases.
class IndexScanOp final : public IndexScanBase {
 public:
  IndexScanOp(const ScanEnv& env, QuerySpec query)
      : IndexScanBase(env, std::move(query), "IndexScanOp") {}

 private:
  Status Start(sim::Micros now) override {
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    metrics_.start_time = now;
    done_ = sequence_.empty();
    if (done_) metrics_.end_time = now;
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    SCANSHARE_ASSIGN_OR_RETURN(
        sim::Micros elapsed,
        ProcessBlock(current_, now, buffer::PagePriority::kNormal));
    ++current_;
    if (current_ >= sequence_.size()) {
      done_ = true;
      metrics_.end_time = now + elapsed;
    }
    return elapsed;
  }
};

/// SISCAN: ISM-placed wrap-around traversal with per-block updates.
class SharedIndexScanOp final : public IndexScanBase {
 public:
  SharedIndexScanOp(const ScanEnv& env, QuerySpec query)
      : IndexScanBase(env, std::move(query), "SharedIndexScanOp") {}

 private:
  Status Start(sim::Micros now) override {
    SCANSHARE_RETURN_IF_ERROR(BindAll());
    metrics_.start_time = now;
    done_ = sequence_.empty();
    if (done_) {
      metrics_.end_time = now;
      return Status::OK();  // Nothing to scan; never registers.
    }

    ssm::IndexScanDescriptor desc;
    desc.index_id = env_.table->id;
    desc.start_key = key_lo_;
    desc.end_key = key_hi_;
    desc.estimated_blocks = sequence_.size();
    desc.estimated_duration =
        EstimateScanDuration(*env_.table, query_, *env_.cost, disk_options(),
                             sequence_.size() * env_.index->block_pages());
    desc.throttle_tolerance = query_.throttle_tolerance;
    SCANSHARE_ASSIGN_OR_RETURN(ssm::IndexStartInfo start,
                               env_.ism->StartIndexScan(desc, now));
    metrics_.overhead += SsmCallCost();
    scan_id_ = start.id;

    start_idx_ = 0;
    if (start.placed) {
      // Locate the assigned (key, pos) in our own traversal order.
      auto it = std::lower_bound(
          locations_.begin(), locations_.end(), start.start_location,
          [](const ssm::IndexScanLocation& a, const ssm::IndexScanLocation& b) {
            if (a.key != b.key) return a.key < b.key;
            return a.pos_in_key < b.pos_in_key;
          });
      if (it != locations_.end()) {
        start_idx_ = static_cast<size_t>(it - locations_.begin());
      }
    }
    current_ = start_idx_;
    return Status::OK();
  }

  StatusOr<sim::Micros> Advance(sim::Micros now) override {
    // Fresh ISM update before the block (see the table-scan SISCAN for
    // why the advice must be fresh): report the block about to be read.
    SCANSHARE_ASSIGN_OR_RETURN(
        ssm::IndexUpdateResult update,
        env_.ism->UpdateIndexScan(scan_id_, locations_[current_], blocks_done_,
                                  now));
    metrics_.overhead += SsmCallCost();
    sim::Micros elapsed = SsmCallCost();
    priority_ = update.priority;
    if (update.wait > 0) {
      metrics_.throttle_wait += update.wait;
      elapsed += update.wait;
    }

    SCANSHARE_ASSIGN_OR_RETURN(sim::Micros block_cost,
                               ProcessBlock(current_, now + elapsed, priority_));
    elapsed += block_cost;

    // Advance with wrap-around: [start_idx, n) then [0, start_idx).
    ++current_;
    if (!phase2_ && current_ >= sequence_.size()) {
      phase2_ = true;
      current_ = 0;
    }
    const bool finished =
        blocks_done_ >= sequence_.size() ||
        (phase2_ && current_ >= start_idx_);
    if (finished) {
      done_ = true;
      metrics_.end_time = now + elapsed;
      SCANSHARE_RETURN_IF_ERROR(env_.ism->EndIndexScan(scan_id_, metrics_.end_time));
      metrics_.overhead += SsmCallCost();
      elapsed += SsmCallCost();
    }
    return elapsed;
  }

  ssm::ScanId scan_id_ = ssm::kInvalidScanId;
  size_t start_idx_ = 0;
  bool phase2_ = false;
  buffer::PagePriority priority_ = buffer::PagePriority::kNormal;
};

}  // namespace

std::unique_ptr<ScanCursor> MakeScanCursor(const ScanEnv& env,
                                           QuerySpec query) {
  if (query.access == AccessPath::kIndexScan) {
    if (env.ism != nullptr) {
      return std::make_unique<SharedIndexScanOp>(env, std::move(query));
    }
    return std::make_unique<IndexScanOp>(env, std::move(query));
  }
  if (env.ssm != nullptr) {
    return std::make_unique<SharedScanOp>(env, std::move(query));
  }
  return std::make_unique<TableScanOp>(env, std::move(query));
}

StatusOr<std::unique_ptr<ScanCursor>> OpenScanCursor(
    const storage::Catalog& catalog, ScanEnv env, const QuerySpec& query,
    sim::Micros now) {
  SCANSHARE_ASSIGN_OR_RETURN(env.table, catalog.GetTable(query.table));
  if (query.access == AccessPath::kIndexScan) {
    SCANSHARE_ASSIGN_OR_RETURN(env.index, catalog.GetBlockIndex(query.table));
  }
  std::unique_ptr<ScanCursor> cursor = MakeScanCursor(env, query);
  SCANSHARE_RETURN_IF_ERROR(cursor->Open(now));
  return cursor;
}

void ResolveScanRange(const storage::TableInfo& table, const QuerySpec& query,
                      uint64_t extent_pages, sim::PageId* first,
                      sim::PageId* end) {
  const uint64_t n = table.num_pages;
  const double lo = std::clamp(query.range_start_frac, 0.0, 1.0);
  const double hi = std::clamp(query.range_end_frac, lo, 1.0);
  uint64_t first_off = static_cast<uint64_t>(lo * static_cast<double>(n));
  uint64_t end_off = static_cast<uint64_t>(std::ceil(hi * static_cast<double>(n)));
  // Snap to extent boundaries so placement/prefetch align.
  if (extent_pages > 0) {
    first_off -= first_off % extent_pages;
    const uint64_t rem = end_off % extent_pages;
    if (rem != 0) end_off += extent_pages - rem;
  }
  end_off = std::min(end_off, n);
  if (end_off <= first_off) end_off = std::min(first_off + 1, n);
  if (first_off >= n) first_off = n - 1;
  *first = table.first_page + first_off;
  *end = table.first_page + end_off;
}

uint64_t ResolveIndexRange(const storage::BlockIndex& index,
                           const QuerySpec& query, int64_t* key_lo,
                           int64_t* key_hi) {
  *key_lo = std::max(query.key_lo, index.min_key());
  *key_hi = std::min(query.key_hi, index.max_key());
  if (*key_hi < *key_lo) return 0;
  return index.BlockCountInRange(*key_lo, *key_hi);
}

sim::Micros EstimateScanDuration(const storage::TableInfo& table,
                                 const QuerySpec& query, const CostModel& cost,
                                 const sim::DiskOptions& disk_options,
                                 uint64_t pages) {
  const double tuples_per_page =
      table.num_pages > 0
          ? static_cast<double>(table.num_tuples) / static_cast<double>(table.num_pages)
          : 0.0;
  const double per_tuple_ns =
      cost.tuple_base_ns +
      static_cast<double>(query.predicate.size()) * cost.predicate_atom_ns +
      query.per_tuple_extra_ns +
      static_cast<double>(query.aggs.size()) * cost.agg_ns;
  const double cpu_per_page_us =
      cost.page_cpu_us + tuples_per_page * per_tuple_ns / 1000.0;
  const double io_per_page_us =
      static_cast<double>(disk_options.transfer_micros_per_page) +
      static_cast<double>(disk_options.seek_micros) / 16.0;  // Amortized seek.
  const double per_page_us = std::max(cpu_per_page_us, io_per_page_us);
  return static_cast<sim::Micros>(
      std::llround(per_page_us * static_cast<double>(pages)));
}

ssm::ScanDescriptor DescribeTableScan(const storage::TableInfo& table,
                                      const QuerySpec& query,
                                      const CostModel& cost,
                                      const sim::DiskOptions& disk_options,
                                      sim::PageId range_first,
                                      sim::PageId range_end) {
  ssm::ScanDescriptor desc;
  desc.table_id = table.id;
  desc.table_first = table.first_page;
  desc.table_end = table.end_page();
  desc.range_first = range_first;
  desc.range_end = range_end;
  desc.estimated_pages = range_end - range_first;
  desc.estimated_duration = EstimateScanDuration(
      table, query, cost, disk_options, desc.estimated_pages);
  desc.throttle_tolerance = query.throttle_tolerance;
  return desc;
}

}  // namespace scanshare::exec
