#include "service/scan_service.h"

#include <algorithm>
#include <utility>

#include "buffer/alternative_replacers.h"
#include "buffer/page_policy.h"
#include "buffer/policies/scan_position_board.h"
#include "exec/event_heap.h"
#include "exec/index_scan_ops.h"
#include "exec/scan_ops.h"
#include "ssm/index_scan_sharing_manager.h"
#include "ssm/sharing_policy.h"

namespace scanshare::service {

namespace {

/// Per-running-job executor state, parallel to ServiceResult::jobs.
struct JobState {
  exec::QuerySpec spec;                      ///< Kept for queued jobs.
  std::unique_ptr<exec::ScanCursor> cursor;  ///< Null until admitted.
  sim::Micros ready_at = 0;
};

}  // namespace

StatusOr<ServiceResult> ScanService::Run(
    const ServiceOptions& options, const std::vector<ServiceTable>& tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("ScanService: no tables");
  }
  if (options.arrival.num_jobs == 0) {
    return Status::InvalidArgument("ScanService: num_jobs must be > 0");
  }
  if (options.run.io.prefetch_depth > 0 ||
      options.run.io.backend == exec::IoOptions::Backend::kFile) {
    // The service loop owns event ordering end to end; the push pipeline's
    // pump schedule is an executor contract this loop does not implement.
    return Status::InvalidArgument(
        "ScanService: the push I/O pipeline is not supported (RunConfig::io "
        "must stay default)");
  }

  const exec::RunConfig& config = options.run;
  sim::Env* env = db_->env();
  storage::Catalog* catalog = db_->catalog();

  // Cold, reproducible start — the same fresh-engine recipe as
  // Database::Run, minus the push pipeline.
  env->clock().Reset();
  env->disk().Reset();

  std::shared_ptr<buffer::ScanPositionBoard> board;
  std::shared_ptr<const buffer::PagePolicy> page_policy;
  std::unique_ptr<buffer::ReplacementPolicy> policy;
  const bool shared = config.mode == exec::ScanMode::kShared;
  if (shared) {
    if (config.policy == PolicyKind::kPbmPredictive) {
      board = std::make_shared<buffer::ScanPositionBoard>();
    }
    page_policy = buffer::MakePagePolicy(config.policy, board);
    policy = page_policy->MakeReplacer(config.buffer.num_frames);
  } else {
    switch (config.baseline_policy) {
      case exec::BaselinePolicy::kLru:
        policy =
            std::make_unique<buffer::LruReplacer>(config.buffer.num_frames);
        break;
      case exec::BaselinePolicy::kClock:
        policy =
            std::make_unique<buffer::ClockReplacer>(config.buffer.num_frames);
        break;
      case exec::BaselinePolicy::kTwoQ:
        policy =
            std::make_unique<buffer::TwoQReplacer>(config.buffer.num_frames);
        break;
    }
  }
  buffer::BufferPool pool(db_->disk_manager(), std::move(policy),
                          config.buffer);

  ssm::SsmOptions ssm_options = config.ssm;
  ssm_options.bufferpool_pages = config.buffer.num_frames;
  ssm_options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
  std::shared_ptr<ssm::SharingPolicy> sharing;
  if (shared) {
    sharing = ssm::MakeSharingPolicy(config.policy, ssm_options, board);
  }
  ssm::ScanSharingManager ssm(ssm_options, std::move(sharing), page_policy);

  ssm::IsmOptions ism_options = config.ism;
  if (ism_options.bufferpool_blocks == 0) {
    const uint64_t block_pages =
        std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
    ism_options.bufferpool_blocks =
        std::max<uint64_t>(1, config.buffer.num_frames / block_pages);
  }
  ssm::IndexScanSharingManager ism(ism_options);

  std::shared_ptr<obs::Tracer> tracer;
  if (config.trace.enabled) {
    tracer = std::make_shared<obs::Tracer>(config.trace);
    pool.SetTracer(tracer.get());
    ssm.SetTracer(tracer.get());
    env->disk().SetTracer(tracer.get());
  }
  struct DiskTracerDetach {
    sim::Disk* disk;
    ~DiskTracerDetach() { disk->SetTracer(nullptr); }
  } detach{&env->disk()};

  ArrivalProcess arrivals(options.arrival, options.workload, &tables);
  AdmissionController admission(options.admission);

  ServiceResult result;
  std::vector<JobState> states;
  exec::EventHeap steps;  // One event per RUNNING job, keyed (time, job id).
  LatencyRecorder sojourn;
  LatencyRecorder queue_wait;

  // Opens job `id`'s cursor at virtual time `now` and schedules its first
  // step. Called at admission (immediate or from the queue).
  auto start_job = [&](uint64_t id, sim::Micros now) -> Status {
    JobState& s = states[id];
    SCANSHARE_ASSIGN_OR_RETURN(const storage::TableInfo* table,
                               catalog->GetTable(s.spec.table));
    exec::ScanEnv scan_env;
    scan_env.pool = &pool;
    scan_env.table = table;
    scan_env.cost = &config.cost;
    scan_env.disk_options = &env->disk().options();
    scan_env.ssm = shared ? &ssm : nullptr;
    scan_env.tracer = tracer.get();
    if (s.spec.access == exec::AccessPath::kIndexScan) {
      SCANSHARE_ASSIGN_OR_RETURN(const storage::BlockIndex* block_index,
                                 catalog->GetBlockIndex(s.spec.table));
      exec::IndexScanEnv index_env;
      index_env.base = scan_env;
      index_env.index = block_index;
      index_env.ism = shared ? &ism : nullptr;
      s.cursor = shared ? exec::MakeSharedIndexScan(index_env, s.spec)
                        : exec::MakeIndexScan(index_env, s.spec);
    } else {
      s.cursor = shared ? exec::MakeSharedScan(scan_env, s.spec)
                        : exec::MakeTableScan(scan_env, s.spec);
    }
    SCANSHARE_RETURN_IF_ERROR(s.cursor->Open(now));
    SCANSHARE_TRACE_EVENT(tracer.get(), obs::EventKind::kQueryBegin, now,
                          /*actor=*/id, /*arg0=*/result.jobs[id].table);
    s.ready_at = now;
    steps.Push(now, id);
    return Status::OK();
  };

  // The merge loop: among all pending events — the next arrival and every
  // running job's next step — the earliest virtual time wins; an arrival
  // at time t beats a step at t (see the header's ordering contract).
  // Event times are nondecreasing, so the clock stays monotonic.
  while (true) {
    const std::optional<sim::Micros> next_arrival = arrivals.PeekTime();
    if (!next_arrival.has_value() && steps.empty()) break;
    const bool take_arrival =
        next_arrival.has_value() &&
        (steps.empty() || *next_arrival <= steps.Peek().time);

    if (take_arrival) {
      JobArrival a = arrivals.Take();
      env->clock().AdvanceTo(a.at);
      const uint64_t id = result.jobs.size();
      JobRecord rec;
      rec.id = id;
      rec.table = a.table;
      rec.client = a.client;
      rec.query = a.query.name;
      rec.arrival = a.at;
      result.jobs.push_back(std::move(rec));
      states.emplace_back();
      states[id].spec = std::move(a.query);

      const AdmissionDecision decision = admission.Offer(id, a.table);
      switch (decision.outcome) {
        case AdmissionDecision::Outcome::kAdmit:
          SCANSHARE_TRACE_EVENT(tracer.get(), obs::EventKind::kAdmit, a.at,
                                /*actor=*/id, /*arg0=*/a.table,
                                /*arg1=*/0);  // Zero queue wait.
          result.jobs[id].admit_at = a.at;
          SCANSHARE_RETURN_IF_ERROR(start_job(id, a.at));
          break;
        case AdmissionDecision::Outcome::kQueue:
          SCANSHARE_TRACE_EVENT(tracer.get(), obs::EventKind::kQueue, a.at,
                                /*actor=*/id, /*arg0=*/a.table,
                                /*arg1=*/decision.queue_depth);
          break;
        case AdmissionDecision::Outcome::kShed:
          SCANSHARE_TRACE_EVENT(
              tracer.get(), obs::EventKind::kShed, a.at,
              /*actor=*/id, /*arg0=*/a.table,
              /*arg1=*/static_cast<uint64_t>(decision.reason));
          result.jobs[id].shed = true;
          result.jobs[id].shed_reason = decision.reason;
          // A shed closed-loop client goes straight back to thinking —
          // shedding must not shrink the offered load.
          if (arrivals.closed_loop()) arrivals.OnJobFinished(a.client, a.at);
          break;
      }
      continue;
    }

    const size_t id = steps.Pop().index;
    JobState& s = states[id];
    env->clock().AdvanceTo(s.ready_at);
    const sim::Micros now = env->clock().Now();
    bool done = false;
    SCANSHARE_ASSIGN_OR_RETURN(const sim::Micros elapsed,
                               s.cursor->Step(now, &done));
    ++result.steps;
#ifdef SCANSHARE_AUDIT
    SCANSHARE_RETURN_IF_ERROR(pool.CheckInvariants());
    if (shared) SCANSHARE_RETURN_IF_ERROR(ssm.CheckInvariants());
#endif
    if (options.audit_every_n_steps > 0 &&
        result.steps % options.audit_every_n_steps == 0) {
      SCANSHARE_RETURN_IF_ERROR(pool.CheckInvariants());
      if (shared) SCANSHARE_RETURN_IF_ERROR(ssm.CheckInvariants());
      SCANSHARE_RETURN_IF_ERROR(admission.CheckInvariants());
    }
    s.ready_at = now + elapsed;

    if (!done) {
      steps.Push(s.ready_at, id);
      continue;
    }

    SCANSHARE_ASSIGN_OR_RETURN(exec::QueryOutput output,
                               s.cursor->Close(s.ready_at));
    JobRecord& rec = result.jobs[id];
    rec.metrics = s.cursor->metrics();
    rec.output = std::move(output);
    rec.end = s.ready_at;
    // Whole-query span stamped from the cursor's own clock, matching the
    // executor's convention.
    SCANSHARE_TRACE_EVENT(tracer.get(), obs::EventKind::kQueryEnd,
                          rec.metrics.start_time, /*actor=*/id,
                          /*arg0=*/rec.table, /*arg1=*/0,
                          rec.metrics.end_time - rec.metrics.start_time);
    s.cursor.reset();
    sojourn.Add(rec.Sojourn());
    queue_wait.Add(rec.QueueWait());
    result.makespan = std::max(result.makespan, s.ready_at);

    admission.Release(rec.table);
    if (arrivals.closed_loop()) arrivals.OnJobFinished(rec.client, s.ready_at);
    // The freed slots may admit queued waiters; they start at the
    // completion time that freed them (queue wait is exact).
    for (const uint64_t waiter : admission.DrainAdmissible()) {
      JobRecord& w = result.jobs[waiter];
      w.from_queue = true;
      w.admit_at = s.ready_at;
      SCANSHARE_TRACE_EVENT(tracer.get(), obs::EventKind::kAdmit, s.ready_at,
                            /*actor=*/waiter, /*arg0=*/w.table,
                            /*arg1=*/s.ready_at - w.arrival);
      SCANSHARE_RETURN_IF_ERROR(start_job(waiter, s.ready_at));
    }
  }

  // End-of-run audit, always: the loop terminated, so the queue must have
  // drained and nothing may still count as running.
  SCANSHARE_RETURN_IF_ERROR(admission.CheckInvariants());
  if (admission.queue_depth() != 0 || admission.running() != 0) {
    return Status::Internal("ScanService: run ended with queued/running jobs");
  }
  SCANSHARE_RETURN_IF_ERROR(pool.CheckInvariants());
  if (shared) SCANSHARE_RETURN_IF_ERROR(ssm.CheckInvariants());

  result.admission = admission.stats();
  result.sojourn = sojourn.Summarize();
  result.queue_wait = queue_wait.Summarize();
  result.disk = env->disk().stats();
  result.buffer = pool.stats();
  if (shared) {
    result.ssm = ssm.stats();
    result.ism = ism.stats();
  }
  result.trace = std::move(tracer);
  return result;
}

}  // namespace scanshare::service
