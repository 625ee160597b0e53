#include "exec/stream_executor.h"

#include <algorithm>

#include "exec/event_heap.h"

namespace scanshare::exec {

StreamExecutor::StreamExecutor(sim::Env* env, buffer::BufferPool* pool,
                               const storage::Catalog* catalog,
                               ssm::ScanSharingManager* ssm,
                               ssm::IndexScanSharingManager* ism,
                               const CostModel& cost, ScanMode mode,
                               KernelMode, obs::Tracer* tracer)
    : env_(env),
      pool_(pool),
      catalog_(catalog),
      ssm_(ssm),
      ism_(ism),
      cost_(cost),
      mode_(mode),
      tracer_(tracer) {}

StatusOr<RunResult> StreamExecutor::Run(const std::vector<StreamSpec>& streams,
                                        sim::Micros series_bucket,
                                        bool record_traces) {
  if (mode_ == ScanMode::kShared && ssm_ == nullptr) {
    return Status::InvalidArgument("StreamExecutor: shared mode needs an SSM");
  }
  if (streams.empty()) {
    return Status::InvalidArgument("StreamExecutor: no streams");
  }

  struct StreamState {
    size_t next_query = 0;
    std::unique_ptr<ScanCursor> cursor;
    sim::Micros ready_at = 0;
    bool started = false;
    std::vector<LocationSample> trace;
  };

  RunResult result;
  result.streams.resize(streams.size());
  result.reads_over_time = TimeSeries(series_bucket);
  result.seeks_over_time = TimeSeries(series_bucket);

  const sim::Micros t0 = env_->clock().Now();
  std::vector<StreamState> states(streams.size());

  // One event per unfinished stream, keyed on (ready_time, stream_index).
  // Ties break toward the lowest stream index — the same selection order
  // the linear minimum scan this heap replaced produced.
  EventHeap events;
  events.Reserve(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    states[i].ready_at = t0 + streams[i].start_delay;
    if (!streams[i].queries.empty()) events.Push(states[i].ready_at, i);
  }

  // Baselines for per-step (one extent chunk) delta-attribution into the
  // time series: counters are snapshotted once per step, not per page.
  sim::DiskStats last = env_->disk().stats();

  while (!events.empty()) {
    const size_t pick = events.Pop().index;
    StreamState& s = states[pick];
    env_->clock().AdvanceTo(s.ready_at);
    const sim::Micros now = env_->clock().Now();

    if (s.cursor == nullptr) {
      // Open the next query of this stream.
      const QuerySpec& spec = streams[pick].queries[s.next_query];
      SCANSHARE_ASSIGN_OR_RETURN(const storage::TableInfo* table,
                                 catalog_->GetTable(spec.table));
      ScanEnv scan_env;
      scan_env.pool = pool_;
      scan_env.table = table;
      scan_env.cost = &cost_;
      scan_env.disk_options = &env_->disk().options();
      scan_env.ssm = mode_ == ScanMode::kShared ? ssm_ : nullptr;
      scan_env.tracer = tracer_;
      if (spec.access == AccessPath::kIndexScan) {
        SCANSHARE_ASSIGN_OR_RETURN(const storage::BlockIndex* block_index,
                                   catalog_->GetBlockIndex(spec.table));
        IndexScanEnv index_env;
        index_env.base = scan_env;
        index_env.index = block_index;
        index_env.ism = mode_ == ScanMode::kShared ? ism_ : nullptr;
        s.cursor = mode_ == ScanMode::kShared
                       ? MakeSharedIndexScan(index_env, spec)
                       : MakeIndexScan(index_env, spec);
      } else {
        s.cursor = mode_ == ScanMode::kShared ? MakeSharedScan(scan_env, spec)
                                              : MakeTableScan(scan_env, spec);
      }
      SCANSHARE_RETURN_IF_ERROR(s.cursor->Open(now));
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kQueryBegin, now,
                            /*actor=*/pick, /*arg0=*/s.next_query);
      if (!s.started) {
        result.streams[pick].start = now;
        s.started = true;
      }
      // Stepping starts on the next pop (still at `now`).
      events.Push(s.ready_at, pick);
      continue;
    }

    bool done = false;
    SCANSHARE_ASSIGN_OR_RETURN(sim::Micros elapsed, s.cursor->Step(now, &done));
#ifdef SCANSHARE_AUDIT
    // Audit builds re-verify the whole engine state after every executor
    // step: a cursor bug that corrupts the pool or the SSM surfaces at the
    // step that caused it, not at some later symptom. Violations propagate
    // as Internal so tests can observe them.
    SCANSHARE_RETURN_IF_ERROR(pool_->CheckInvariants());
    if (ssm_ != nullptr) SCANSHARE_RETURN_IF_ERROR(ssm_->CheckInvariants());
#endif
    s.ready_at = now + elapsed;
    if (record_traces) {
      s.trace.push_back(LocationSample{s.ready_at, s.cursor->position()});
    }

    // Push pipeline: pump once per step, stamped at the step's finish time.
    // This is the ONLY pump site — frontier order and virtual charge times
    // are then a pure function of the event schedule, which keeps push-mode
    // runs bit-reproducible. Pumping before the series snapshot below folds
    // prefetch I/O into the stepping stream's time bucket.
    if (prefetcher_ != nullptr) prefetcher_->Pump(s.ready_at);

    // Attribute this step's physical I/O (at most one extent read plus
    // queueing) to the time bucket it finished in — one batched update per
    // step instead of per-page accounting.
    const sim::DiskStats& ds = env_->disk().stats();
    const sim::DiskStats delta = ds.Since(last);
    if (delta.pages_read > 0) {
      result.reads_over_time.Add(s.ready_at - t0,
                                 static_cast<double>(delta.pages_read));
    }
    if (delta.seeks > 0) {
      result.seeks_over_time.Add(s.ready_at - t0,
                                 static_cast<double>(delta.seeks));
    }
    last = ds;

    if (done) {
      SCANSHARE_ASSIGN_OR_RETURN(QueryOutput output, s.cursor->Close(s.ready_at));
      QueryRecord record;
      const QuerySpec& spec = streams[pick].queries[s.next_query];
      record.name = spec.name;
      record.stream = pick;
      record.index = s.next_query;
      record.metrics = s.cursor->metrics();
      // Whole-query span, stamped from the cursor's own clock so the span
      // covers Open→Close even when steps straddled throttle waits.
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kQueryEnd,
                            record.metrics.start_time, /*actor=*/pick,
                            /*arg0=*/s.next_query, /*arg1=*/0,
                            record.metrics.end_time - record.metrics.start_time);
      record.output = std::move(output);
      record.trace = std::move(s.trace);
      s.trace.clear();
      result.streams[pick].queries.push_back(std::move(record));
      s.cursor.reset();

      ++s.next_query;
      if (s.next_query >= streams[pick].queries.size()) {
        result.streams[pick].end = s.ready_at;
        continue;  // Finished: the stream leaves the heap for good.
      }
      s.ready_at += streams[pick].inter_query_delay;
    }
    events.Push(s.ready_at, pick);
  }

  result.makespan = 0;
  for (const StreamRecord& rec : result.streams) {
    result.makespan = std::max(result.makespan, rec.end);
  }
  result.makespan = result.makespan > t0 ? result.makespan - t0 : 0;
  result.disk = env_->disk().stats();
  result.buffer = pool_->stats();
  if (ssm_ != nullptr) result.ssm = ssm_->stats();
  if (ism_ != nullptr) result.ism = ism_->stats();
  if (prefetcher_ != nullptr) {
    result.io = prefetcher_->stats();
    result.real_io = prefetcher_->backend().real_stats();
  }
  return result;
}

}  // namespace scanshare::exec
