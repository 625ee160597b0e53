#include "service/scan_service.h"

#include <utility>

#include "exec/scan_ops.h"

namespace scanshare::service {

StatusOr<ServiceResult> ScanService::Run(
    const ServiceOptions& options, const std::vector<ServiceTable>& tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("ScanService: no tables");
  }
  if (options.arrival.num_jobs == 0) {
    return Status::InvalidArgument("ScanService: num_jobs must be > 0");
  }

  const exec::RunConfig& config = options.run;
  sim::Env* env = db_->env();

  // The same fresh engine, pool and push pipeline as Database::Run, and
  // the same loop.
  exec::RunEngine engine(env, config);
  SCANSHARE_ASSIGN_OR_RETURN(buffer::BufferPool * pool,
                             engine.MakePool(db_->disk_manager(), config));
  obs::Tracer* tracer = engine.tracer().get();
  ssm::ScanSharingManager* ssm = engine.ssm();
  exec::ScanLoop loop(env, db_->catalog(),
                      exec::ScanEnv{.pool = pool,
                                    .cost = &config.cost,
                                    .disk_options = &env->disk().options(),
                                    .ssm = ssm,
                                    .ism = engine.ism(),
                                    .tracer = tracer},
                      engine.prefetcher(), options.audit_every_n_steps);

  ArrivalProcess arrivals(options.arrival, options.workload, &tables);
  AdmissionController admission(options.admission);

  ServiceResult result;
  std::vector<exec::QuerySpec> specs;  // Per job id.
  LatencyRecorder sojourn;
  LatencyRecorder queue_wait;

  // Admission opens the job's cursor at once; kQueryBegin/kQueryEnd carry
  // its table as arg0.
  auto admit = [&](uint64_t id, sim::Micros at) {
    JobRecord& job = result.jobs[id];
    job.admit_at = at;
    SCANSHARE_TRACE_EVENT(tracer, obs::EventKind::kAdmit, at, /*actor=*/id,
                          /*arg0=*/job.table, /*arg1=*/at - job.arrival);
    return loop.Open(id, at, specs[id], job.table);
  };
  // Both hooks end here: admission only changes in them, and a shed or
  // finished closed-loop client may have scheduled its next arrival.
  auto settle = [&]() -> Status {
    if (options.audit_every_n_steps > 0) {
      SCANSHARE_RETURN_IF_ERROR(admission.CheckInvariants());
    }
    loop.SetNextArrival(arrivals.PeekTime());
    return Status::OK();
  };

  exec::ScanLoop::Hooks hooks;
  hooks.arrival = [&]() -> Status {
    JobArrival a = arrivals.Take();
    const uint64_t id = result.jobs.size();
    result.jobs.push_back(JobRecord{.id = id, .table = a.table,
                                    .client = a.client,
                                    .query = a.query.name, .arrival = a.at});
    specs.push_back(std::move(a.query));

    const AdmissionDecision decision = admission.Offer(id, a.table);
    switch (decision.outcome) {
      case AdmissionDecision::Outcome::kAdmit:
        SCANSHARE_RETURN_IF_ERROR(admit(id, a.at));
        break;
      case AdmissionDecision::Outcome::kQueue:
        SCANSHARE_TRACE_EVENT(tracer, obs::EventKind::kQueue, a.at,
                              /*actor=*/id, /*arg0=*/a.table,
                              /*arg1=*/decision.queue_depth);
        break;
      case AdmissionDecision::Outcome::kShed:
        SCANSHARE_TRACE_EVENT(
            tracer, obs::EventKind::kShed, a.at,
            /*actor=*/id, /*arg0=*/a.table,
            /*arg1=*/static_cast<uint64_t>(decision.reason));
        result.jobs[id].shed = true;
        result.jobs[id].shed_reason = decision.reason;
        // Shedding must not shrink a closed loop's offered load.
        arrivals.OnJobFinished(a.client, a.at);
        break;
    }
    return settle();
  };
  hooks.close = [&](sim::Micros end, exec::QueryRecord record) -> Status {
    JobRecord& job = result.jobs[record.stream];
    job.metrics = record.metrics;
    job.output = std::move(record.output);
    job.end = end;
    sojourn.Add(job.Sojourn());
    queue_wait.Add(job.QueueWait());
    admission.Release(job.table);
    arrivals.OnJobFinished(job.client, end);
    // Freed slots admit queued waiters at the completion time that freed
    // them (queue wait is exact).
    for (const uint64_t waiter : admission.DrainAdmissible()) {
      result.jobs[waiter].from_queue = true;
      SCANSHARE_RETURN_IF_ERROR(admit(waiter, end));
    }
    return settle();
  };
  loop.SetNextArrival(arrivals.PeekTime());
  SCANSHARE_ASSIGN_OR_RETURN(
      exec::RunResult run,
      loop.Run(hooks, config.series_bucket, /*record_traces=*/false));

  // End-of-run audit, always: the loop terminated, so the queue must have
  // drained and nothing may still count as running.
  SCANSHARE_RETURN_IF_ERROR(admission.CheckInvariants());
  if (admission.queue_depth() != 0 || admission.running() != 0) {
    return Status::Internal("ScanService: run ended with queued/running jobs");
  }
  SCANSHARE_RETURN_IF_ERROR(pool->CheckInvariants());
  if (ssm != nullptr) SCANSHARE_RETURN_IF_ERROR(ssm->CheckInvariants());

  result.admission = admission.stats();
  result.sojourn = sojourn.Summarize();
  result.queue_wait = queue_wait.Summarize();
  result.makespan = run.makespan;
  result.steps = loop.steps();
  result.disk = run.disk;
  result.buffer = run.buffer;
  result.ssm = run.ssm;
  result.ism = run.ism;
  result.io = run.io;
  result.real_io = run.real_io;
  result.trace = engine.tracer();
  return result;
}

}  // namespace scanshare::service
