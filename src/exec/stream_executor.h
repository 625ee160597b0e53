// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Deterministic multi-stream execution. Streams are sequences of queries
// (the TPC-H throughput-run shape); the executor interleaves their scans at
// extent granularity by always advancing the stream with the smallest
// virtual ready-time. This replaces the paper's wall-clock concurrency
// with an exactly reproducible discrete-event schedule while preserving
// the phenomena under study: concurrent position drift, buffer-pool
// competition, and disk queueing between streams.
// StreamExecutor::Run and service::ScanService::Run both run on ScanLoop.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/stats.h"
#include "common/status.h"
#include "exec/event_heap.h"
#include "exec/query.h"
#include "exec/scan_ops.h"
#include "io/prefetcher.h"
#include "obs/trace.h"
#include "sim/env.h"
#include "ssm/index_scan_sharing_manager.h"
#include "ssm/scan_sharing_manager.h"
#include "storage/catalog.h"

namespace scanshare::exec {

/// One stream: an optional start delay (for staggered-start experiments)
/// followed by queries executed back to back.
struct StreamSpec {
  sim::Micros start_delay = 0;          ///< Virtual delay before query 1.
  sim::Micros inter_query_delay = 0;    ///< Think time between queries.
  std::vector<QuerySpec> queries;       ///< Executed in order.
};

/// One sampled (virtual time, scan position) point of a running scan —
/// the raw material of the paper's time/location plots.
struct LocationSample {
  sim::Micros time = 0;
  sim::PageId position = 0;

  bool operator==(const LocationSample&) const = default;
};

/// Outcome of one query execution.
struct QueryRecord {
  std::string name;         ///< Template name from the QuerySpec.
  size_t stream = 0;        ///< Stream index.
  size_t index = 0;         ///< Position within the stream.
  ScanMetrics metrics{};    ///< Timing/counter breakdown.
  QueryOutput output{};     ///< Aggregate results (for correctness checks).
  std::vector<LocationSample> trace{};  ///< Filled iff trace recording is on.
};

/// Outcome of one stream.
struct StreamRecord {
  sim::Micros start = 0;    ///< When the first query began.
  sim::Micros end = 0;      ///< When the last query finished.
  std::vector<QueryRecord> queries;

  sim::Micros Elapsed() const { return end - start; }
};

/// Whole-run outcome: per-stream records plus system-level series/counters.
struct RunResult {
  std::vector<StreamRecord> streams;
  sim::Micros makespan = 0;             ///< End of the last stream.
  sim::DiskStats disk;                  ///< Disk counters for the run.
  buffer::BufferPoolStats buffer;       ///< Pool counters for the run.
  ssm::SsmStats ssm;                    ///< SSM counters (zero for baseline).
  ssm::IsmStats ism;                    ///< ISM counters (index scans).
  TimeSeries reads_over_time{1};        ///< Pages read per time bucket (Fig 17).
  TimeSeries seeks_over_time{1};        ///< Seeks per time bucket (Fig 18).
  /// Event trace of the run (null unless tracing was enabled). Shared so
  /// RunResult stays copyable; the tracer itself is immutable once the run
  /// finishes.
  std::shared_ptr<const obs::Tracer> trace;
  /// Push I/O pipeline counters. All-zero unless the run attached a
  /// pipeline (RunConfig::io.prefetch_depth > 0).
  io::IoPipelineStats io;
  /// Real-file backend counters (pread/seek accounting against the table
  /// image). All-zero for the sim backend and for pull-mode runs.
  io::RealIoStats real_io;

  /// Sums a ScanMetrics field over every query of every stream.
  template <typename F>
  uint64_t SumOverQueries(F field) const {
    uint64_t total = 0;
    for (const StreamRecord& s : streams) {
      for (const QueryRecord& q : s.queries) total += field(q.metrics);
    }
    return total;
  }
};

/// Execution mode: which scan operator (and implicitly which buffer
/// replacement policy the caller configured) drives the run.
enum class ScanMode {
  kBaseline,  ///< TableScanOp; scans in isolation (vanilla engine).
  kShared,    ///< SharedScanOp through the Scan Sharing Manager.
};

/// The one virtual-time event loop under both sequential drivers; DESIGN.md
/// §7.2 states its two tie rules. It owns all per-step work: the (time,
/// actor) EventHeap, cursor open / Step / Close, the audits, the prefetcher
/// pump, the reads/seeks series and the query spans. Driver hooks run per
/// arrival and per close, never per step.
class ScanLoop {
 public:
  struct Hooks {
    /// Takes the arrival SetNextArrival announced (the clock is at it).
    /// An arrival at t is taken before any heap event at t.
    std::function<Status()> arrival;
    /// `record` (stream = actor, index = tag) closed at `end`.
    std::function<Status(sim::Micros end, QueryRecord record)> close;
  };

  /// Cursors open against `scan_env`, whose pool and managers are also the
  /// ones audited and reported. `prefetcher` may be null (pull path).
  /// `audit_every_n_steps` > 0 audits every N steps outside
  /// SCANSHARE_AUDIT builds, which audit every step.
  ScanLoop(sim::Env* env, const storage::Catalog* catalog,
           const ScanEnv& scan_env, io::Prefetcher* prefetcher,
           uint64_t audit_every_n_steps)
      : env_(env), catalog_(catalog), scan_env_(scan_env),
        prefetcher_(prefetcher), audit_every_n_steps_(audit_every_n_steps) {}

  /// Schedules `actor`'s next query to open at `at`, and to step on the
  /// pop after that. `query` must outlive the open; `tag` is the query's
  /// kQueryBegin/kQueryEnd arg0.
  void ScheduleOpen(size_t actor, sim::Micros at, const QuerySpec* query,
                    uint64_t tag);

  /// Opens `actor`'s cursor now, stamped `at`, and schedules its first step
  /// at `at`.
  [[nodiscard]] Status Open(size_t actor, sim::Micros at,
                            const QuerySpec& query, uint64_t tag);

  void SetNextArrival(std::optional<sim::Micros> at) { next_arrival_ = at; }

  /// Runs until no arrival and no actor is pending; the result has all
  /// but `streams` and `trace`.
  [[nodiscard]] StatusOr<RunResult> Run(const Hooks& hooks,
                                        sim::Micros series_bucket,
                                        bool record_traces);

  uint64_t steps() const { return steps_; }

 private:
  struct Actor {
    std::unique_ptr<ScanCursor> cursor;  ///< Null between queries.
    const QuerySpec* pending = nullptr;  ///< Set by ScheduleOpen.
    sim::Micros ready_at = 0;
    QueryRecord record;                  ///< Of the open (or pending) query.
  };

  sim::Env* env_;
  const storage::Catalog* catalog_;
  ScanEnv scan_env_;
  io::Prefetcher* prefetcher_;
  uint64_t audit_every_n_steps_;
  std::vector<Actor> actors_;
  EventHeap events_;
  std::optional<sim::Micros> next_arrival_;
  uint64_t steps_ = 0;
};

/// Drives a set of streams to completion over one buffer pool.
class StreamExecutor {
 public:
  /// `ssm` may be null iff `mode` is kBaseline; kShared runs index-scan
  /// queries through `ism` when it is set (unshared otherwise). All
  /// pointers are borrowed.
  StreamExecutor(sim::Env* env, buffer::BufferPool* pool,
                 const storage::Catalog* catalog, ssm::ScanSharingManager* ssm,
                 ssm::IndexScanSharingManager* ism, const CostModel& cost,
                 ScanMode mode,
                 // Unused: kept only because scanbench/ passes it.
                 KernelMode = KernelMode::kColumnar,
                 obs::Tracer* tracer = nullptr);

  /// Runs every stream to completion; the virtual clock starts at its
  /// current value. `series_bucket` sets the reads/seeks-over-time
  /// granularity; `record_traces` additionally samples every scan's
  /// position after each step into QueryRecord::trace (for the
  /// time/location plots). Returns the full run record.
  [[nodiscard]] StatusOr<RunResult> Run(const std::vector<StreamSpec>& streams,
                          sim::Micros series_bucket = sim::Seconds(1),
                          bool record_traces = false);

  /// Attaches a borrowed push I/O prefetcher: the run's ScanLoop pumps it
  /// after every step and folds its counters into RunResult::io /
  /// RunResult::real_io. Null (the default) skips both.
  void SetIoPipeline(io::Prefetcher* prefetcher) { prefetcher_ = prefetcher; }

 private:
  sim::Env* env_;
  buffer::BufferPool* pool_;
  const storage::Catalog* catalog_;
  ssm::ScanSharingManager* ssm_;
  ssm::IndexScanSharingManager* ism_;
  CostModel cost_;
  ScanMode mode_;
  obs::Tracer* tracer_;  // Borrowed; null when tracing is off.
  io::Prefetcher* prefetcher_ = nullptr;  // Borrowed; null in pull mode.
};

}  // namespace scanshare::exec
