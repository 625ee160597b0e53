#include "exec/stream_executor.h"

#include <algorithm>
#include <utility>

namespace scanshare::exec {

void ScanLoop::ScheduleOpen(size_t actor, sim::Micros at,
                            const QuerySpec* query, uint64_t tag) {
  if (actor >= actors_.size()) actors_.resize(actor + 1);
  Actor& a = actors_[actor];
  a.pending = query;
  a.ready_at = at;
  a.record.index = tag;
  events_.Push(at, actor);
}

Status ScanLoop::Open(size_t actor, sim::Micros at, const QuerySpec& query,
                      uint64_t tag) {
  if (actor >= actors_.size()) actors_.resize(actor + 1);
  Actor& a = actors_[actor];
  SCANSHARE_ASSIGN_OR_RETURN(a.cursor,
                             OpenScanCursor(*catalog_, scan_env_, query, at));
  SCANSHARE_TRACE_EVENT(scan_env_.tracer, obs::EventKind::kQueryBegin, at,
                        actor, /*arg0=*/tag);
  a.record = QueryRecord{.name = query.name, .stream = actor, .index = tag};
  a.ready_at = at;
  events_.Push(at, actor);
  return Status::OK();
}

StatusOr<RunResult> ScanLoop::Run(const Hooks& hooks,
                                  sim::Micros series_bucket,
                                  bool record_traces) {
  RunResult result;
  result.reads_over_time = TimeSeries(series_bucket);
  result.seeks_over_time = TimeSeries(series_bucket);
  const sim::Micros t0 = env_->clock().Now();
  sim::Micros last_end = t0;
  // Disk counters are snapshotted once per step, not per page.
  sim::DiskStats last = env_->disk().stats();

  // Event times are nondecreasing, so the clock stays monotonic.
  while (true) {
    if (next_arrival_.has_value() &&
        (events_.empty() || *next_arrival_ <= events_.Peek().time)) {
      env_->clock().AdvanceTo(*next_arrival_);
      SCANSHARE_RETURN_IF_ERROR(hooks.arrival());
      continue;
    }
    if (events_.empty()) break;

    const size_t id = events_.Pop().index;
    Actor& a = actors_[id];
    env_->clock().AdvanceTo(a.ready_at);
    const sim::Micros now = env_->clock().Now();
    if (a.cursor == nullptr) {
      // A scheduled open: stepping starts on the next pop (still at `now`).
      SCANSHARE_RETURN_IF_ERROR(Open(id, now, *a.pending, a.record.index));
      continue;
    }

    bool done = false;
    StatusOr<sim::Micros> step = a.cursor->Step(now, &done);
    ++steps_;
    // A fault may end the run but must not leave the pool or the SSM
    // inconsistent, so the failed step is audited too: after every step in
    // SCANSHARE_AUDIT builds, every N steps when the driver asks.
#ifndef SCANSHARE_AUDIT
    if (audit_every_n_steps_ > 0 && steps_ % audit_every_n_steps_ == 0)
#endif
    {
      SCANSHARE_RETURN_IF_ERROR(scan_env_.pool->CheckInvariants());
      if (scan_env_.ssm != nullptr) {
        SCANSHARE_RETURN_IF_ERROR(scan_env_.ssm->CheckInvariants());
      }
    }
    SCANSHARE_ASSIGN_OR_RETURN(const sim::Micros elapsed, std::move(step));
    a.ready_at = now + elapsed;
    if (record_traces) {
      a.record.trace.push_back(LocationSample{a.ready_at, a.cursor->position()});
    }

    // The only pump site, so push runs are a pure function of the event
    // schedule. Pumping before the series snapshot below folds prefetch
    // I/O into the stepping actor's time bucket.
    if (prefetcher_ != nullptr) prefetcher_->Pump(a.ready_at);

    const sim::DiskStats& ds = env_->disk().stats();
    const sim::DiskStats delta = ds.Since(last);
    if (delta.pages_read > 0) {
      result.reads_over_time.Add(a.ready_at - t0,
                                 static_cast<double>(delta.pages_read));
    }
    if (delta.seeks > 0) {
      result.seeks_over_time.Add(a.ready_at - t0,
                                 static_cast<double>(delta.seeks));
    }
    last = ds;

    if (!done) {
      events_.Push(a.ready_at, id);
      continue;
    }

    const sim::Micros end = a.ready_at;
    SCANSHARE_ASSIGN_OR_RETURN(a.record.output, a.cursor->Close(end));
    a.record.metrics = a.cursor->metrics();
    // Stamped from the cursor's own clock: the span covers Open→Close.
    const ScanMetrics& m = a.record.metrics;
    SCANSHARE_TRACE_EVENT(scan_env_.tracer, obs::EventKind::kQueryEnd,
                          m.start_time, id, /*arg0=*/a.record.index,
                          /*arg1=*/0, m.end_time - m.start_time);
    a.cursor.reset();
    last_end = std::max(last_end, end);
    // The hook may add actors, which can move `a`.
    SCANSHARE_RETURN_IF_ERROR(hooks.close(end, std::move(a.record)));
  }

  result.makespan = last_end - t0;
  result.disk = env_->disk().stats();
  result.buffer = scan_env_.pool->stats();
  if (scan_env_.ssm != nullptr) result.ssm = scan_env_.ssm->stats();
  if (scan_env_.ism != nullptr) result.ism = scan_env_.ism->stats();
  if (prefetcher_ != nullptr) {
    result.io = prefetcher_->stats();
    result.real_io = prefetcher_->backend().real_stats();
  }
  return result;
}

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

  const bool shared = mode_ == ScanMode::kShared;
  ScanLoop loop(env_, catalog_,
                ScanEnv{.pool = pool_,
                        .cost = &cost_,
                        .disk_options = &env_->disk().options(),
                        .ssm = shared ? ssm_ : nullptr,
                        .ism = shared ? ism_ : nullptr,
                        .tracer = tracer_},
                prefetcher_, /*audit_every_n_steps=*/0);

  // A close records the query and schedules the stream's next open.
  std::vector<StreamRecord> records(streams.size());
  const sim::Micros t0 = env_->clock().Now();
  for (size_t i = 0; i < streams.size(); ++i) {
    if (streams[i].queries.empty()) continue;
    records[i].start = t0 + streams[i].start_delay;
    loop.ScheduleOpen(i, records[i].start, &streams[i].queries[0], 0);
  }
  ScanLoop::Hooks hooks;
  hooks.close = [&](sim::Micros end, QueryRecord record) {
    const size_t s = record.stream;
    const size_t next = record.index + 1;
    records[s].queries.push_back(std::move(record));
    if (next < streams[s].queries.size()) {
      loop.ScheduleOpen(s, end + streams[s].inter_query_delay,
                        &streams[s].queries[next], next);
    } else {
      records[s].end = end;
    }
    return Status::OK();
  };
  SCANSHARE_ASSIGN_OR_RETURN(RunResult result,
                             loop.Run(hooks, series_bucket, record_traces));
  result.streams = std::move(records);
  return result;
}

}  // namespace scanshare::exec
