// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "metrics/report.h"
#include "spans.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanbench {

namespace {

using scanshare::Status;
using scanshare::StatusOr;

constexpr uint64_t kTablePages = 2048;   // 64 MiB per table (32 KiB pages).
constexpr uint64_t kExtentPages = 16;
constexpr int kMinCalls = 3;
constexpr uint64_t kPaperStreamSeed = 2024;  // bench_e1's default.
constexpr size_t kServiceJobs = 1000;
constexpr uint64_t kServiceDataSeed = 2024;
constexpr size_t kPaperVariants = 40;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "scanbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Loads a lineitem-like table of kTablePages pages generated from `seed`.
/// The seed also drops up to 255 rows from the last page, which moves the
/// CPU-bound queries' virtual times by microseconds. (Changing the page
/// count instead would change the extent alignment, which regroups scans.)
void LoadLineitem(exec::Database* db, const std::string& name, uint64_t seed) {
  const uint64_t dropped = scanshare::Rng(seed).Uniform(256);
  auto info = scanshare::workload::GenerateLineitem(
      db->catalog(), name,
      scanshare::workload::LineitemRowsForPages(kTablePages) - dropped, seed);
  if (!info.ok()) Die("generate " + name, info.status());
}

exec::RunConfig SharedConfig(const exec::Database& db, double pool_fraction) {
  exec::RunConfig c;
  c.mode = exec::ScanMode::kShared;
  c.buffer.num_frames = db.FramesForFraction(pool_fraction, kExtentPages);
  c.buffer.prefetch_extent_pages = kExtentPages;
  return c;
}

/// Virtual time of one I/O-bound scan of a whole table.
scanshare::sim::Micros ScanMicros() {
  const scanshare::sim::DiskOptions disk;
  return static_cast<scanshare::sim::Micros>(kTablePages) *
         disk.transfer_micros_per_page;
}

/// printf-style formatting of up to two doubles.
std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

uint64_t TablePages(const exec::Database& db) {
  return db.catalog()->TotalTablePages();
}

/// Builds `repeats` times with `build`, timing each, and keeps the last.
template <typename W>
W BuildTimed(const std::function<W()>& build, const std::function<uint64_t(const W&)>& pages,
             int repeats, SetupTiming* timing) {
  std::vector<double> times;
  W kept;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    W w = build();
    times.push_back(SecondsSince(start));
    if (i + 1 == repeats) kept = std::move(w);
  }
  timing->setup_s = Median(times);
  timing->pages = pages(kept);
  return kept;
}

SimWorkload BuildSim(const std::string& name, uint64_t seed, int repeats,
                     SetupTiming* t) {
  const std::function<SimWorkload()> build = [&] {
    return name == "paper_tput" ? BuildPaperTput(seed) : BuildPush2Tbl(seed);
  };
  return BuildTimed<SimWorkload>(
      build, [](const SimWorkload& w) { return TablePages(*w.db); }, repeats,
      t);
}

void AddCommon(Report* r, const SetupTiming& setup) {
  r->Add("setup_s", setup.setup_s, "s");
  r->Add("peak_rss_mib", PeakRssMiB(), "MiB");
}

/// Adds rows_per_s and the query_wall metrics from the measured calls.
void AddWall(Report* r, double rows, const std::vector<double>& walls_s,
             const char* what) {
  std::vector<double> ms;
  double busy = 0.0;
  for (double w : walls_s) {
    ms.push_back(w * 1e3);
    busy += w;
  }
  std::string label;
  const double tail = TailValue(ms, &label);
  r->Add("rows_per_s", rows / busy, "rows/s");
  r->Add("query_wall_p50_ms", Median(ms), "ms");
  r->Add("query_wall_tail_ms", tail, "ms");
  r->Note(std::string("query_wall: one sample per ") + what + "; tail is " +
          label);
  if (walls_s.size() <= 50) {
    std::string all = "call walls (ms):";
    for (double m : ms) all += " " + std::to_string(static_cast<long>(m));
    r->Note(all);
  }
}

void AddVirtualLatency(Report* r, const std::vector<double>& latencies_s,
                       const char* what) {
  std::string label;
  const double tail = TailValue(latencies_s, &label);
  r->Add("vlatency_p50_s", Median(latencies_s), "s");
  r->Add("vlatency_tail_s", tail, "s");
  r->Note(std::string("vlatency: ") + what + "; tail is " + label);
}

/// Runs `fn(worker, workers)` on workers = min(4, nproc) threads and joins
/// them all.
void OnWorkers(const std::function<void(size_t, size_t)>& fn) {
  const size_t workers =
      std::min<size_t>(4, scanshare::ThreadPool::HardwareConcurrency());
  std::vector<std::thread> threads;
  for (size_t j = 0; j < workers; ++j) threads.emplace_back(fn, j, workers);
  for (std::thread& t : threads) t.join();
}

/// Folds a worker's answer checks into the run's report.
void Merge(const Report& from, Report* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wrong += from.wrong;
  into->exact += from.exact;
  for (const std::string& note : from.notes) into->Note(note);
}

/// The virtual metrics of one simulator run.
struct SimVirtual {
  double makespan_s = 0.0;
  double p50_s = 0.0;
  double tail_s = 0.0;
  double pages = 0.0;
  double seeks = 0.0;
  double capacity = 0.0;
  std::string tail_label;
};

SimVirtual VirtualOf(const exec::RunResult& run) {
  SimVirtual v;
  std::vector<double> latencies;
  for (const auto& st : run.streams) {
    for (const auto& q : st.queries) {
      latencies.push_back(static_cast<double>(q.metrics.Elapsed()) / 1e6);
    }
  }
  v.makespan_s = static_cast<double>(run.makespan) / 1e6;
  v.p50_s = Median(latencies);
  v.tail_s = TailValue(latencies, &v.tail_label);
  v.pages = static_cast<double>(run.disk.pages_read);
  v.seeks = static_cast<double>(run.disk.seeks);
  v.capacity = static_cast<double>(latencies.size()) / v.makespan_s;
  return v;
}

// ---------------------------------------------------------------------------
// paper_tput and push_2tbl.

Report MeasureSim(const std::string& name, uint64_t seed, double seconds) {
  Report report;
  SetupTiming setup;
  SimWorkload w = BuildSim(name, seed, kSetupRepeats, &setup);
  auto refs = ComputeSimReferences(&w);
  if (!refs.ok()) Die("reference runs", refs.status());

  // Wall phase: the seed's stream set, run back to back on one thread.
  // Every call is checked; repeats must be bit-identical to the first.
  exec::RunResult first;
  std::vector<double> walls;
  double rows = 0.0;
  const Clock::time_point start = Clock::now();
  while (walls.size() < static_cast<size_t>(kMinCalls) ||
         SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    auto run = w.db->Run(w.config, w.streams);
    const double wall = SecondsSince(t0);
    if (!run.ok()) Die("Database::Run", run.status());
    CheckSimRun(*run, *refs, &report);
    if (walls.empty()) {
      first = *run;
    } else {
      std::string diff;
      const bool same = scanshare::metrics::BitIdentical(*run, first, &diff);
      if (!same) report.Note("repeat run diverged: " + diff);
      report.Check(same, !same);
    }
    walls.push_back(wall);
    rows += static_cast<double>(run->SumOverQueries(
        [](const exec::ScanMetrics& m) { return m.tuples_scanned; }));
  }
  const double wall_phase_s = SecondsSince(start);

  // Virtual phase. paper_tput is chaotic in its stream start times (see
  // SimStreams), so its virtual metrics are means over kPaperVariants
  // start-time variants, simulated on worker threads after the wall phase.
  // push_2tbl is not: its one stream set is the only variant.
  std::vector<SimVirtual> virtuals;
  if (name == "paper_tput") {
    virtuals.resize(kPaperVariants);
    std::vector<Report> checks(kPaperVariants);
    OnWorkers([&](size_t worker, size_t workers) {
      SimWorkload copy = BuildPaperTput(seed);
      for (size_t v = worker; v < kPaperVariants; v += workers) {
        auto run = copy.db->Run(copy.config, SimStreams(name, seed, v));
        if (!run.ok()) Die("Database::Run variant", run.status());
        CheckSimRun(*run, *refs, &checks[v]);
        virtuals[v] = VirtualOf(*run);
      }
    });
    for (const Report& c : checks) Merge(c, &report);
  } else {
    virtuals.push_back(VirtualOf(first));
  }
  const auto mean_of = [&](double SimVirtual::*field) {
    double sum = 0.0;
    for (const SimVirtual& v : virtuals) sum += v.*field;
    return sum / static_cast<double>(virtuals.size());
  };

  AddWall(&report, rows, walls, "Database::Run call (whole stream set)");
  report.Add("vmakespan_s", mean_of(&SimVirtual::makespan_s), "s");
  report.Add("vlatency_p50_s", mean_of(&SimVirtual::p50_s), "s");
  report.Add("vlatency_tail_s", mean_of(&SimVirtual::tail_s), "s");
  report.Add("disk_pages_read", mean_of(&SimVirtual::pages), "count");
  report.Add("disk_seeks", mean_of(&SimVirtual::seeks), "count");
  report.Add("capacity_jobs_per_s", mean_of(&SimVirtual::capacity), "jobs/s");
  AddCommon(&report, setup);
  report.Note("vlatency: query end - start, tail is " + virtuals[0].tail_label +
              "; virtual metrics are means over " +
              std::to_string(virtuals.size()) + " start-time variant(s)");
  report.Note(Fmt("calls: %.0f Database::Run in %.2f s wall",
                  static_cast<double>(walls.size()), wall_phase_s));
  report.Note("capacity_jobs_per_s: closed loop at saturation, queries per "
              "virtual second of makespan");
  return report;
}

// ---------------------------------------------------------------------------
// service_open.

/// The capacity rule: nothing shed, p99 sojourn within the limit, and no
/// growing backlog (the last quarter of arrivals waits no longer at the
/// median than twice the first quarter, plus one second).
constexpr double kSojournLimitS = 10.0;

struct ServiceOutcome {
  bool meets = false;
  double p99_s = 0.0;
  uint64_t shed = 0;
};

ServiceOutcome Judge(const service::ServiceResult& r) {
  ServiceOutcome o;
  o.shed = r.admission.shed;
  std::vector<double> sojourn;
  for (const auto& j : r.jobs) {
    if (!j.shed) sojourn.push_back(static_cast<double>(j.Sojourn()) / 1e6);
  }
  if (sojourn.empty()) return o;
  std::vector<double> sorted = sojourn;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size())));
  o.p99_s = sorted[std::max<size_t>(rank, 1) - 1];
  const auto quarter = static_cast<long>(sojourn.size() / 4);
  const std::vector<double> head(sojourn.begin(), sojourn.begin() + quarter);
  const std::vector<double> tail(sojourn.end() - quarter, sojourn.end());
  const bool backlog_flat =
      quarter == 0 || Median(tail) <= 2.0 * Median(head) + 1.0;
  o.meets = o.shed == 0 && o.p99_s <= kSojournLimitS && backlog_flat;
  return o;
}

/// One arrival-process variant of the service: its nominal-rate run and its
/// capacity on the ladder.
struct ServiceVirtual {
  double makespan_s = 0.0;
  double p50_s = 0.0;
  double tail_s = 0.0;
  double pages = 0.0;
  double seeks = 0.0;
  double capacity = 0.0;
  std::string tail_label;
  std::vector<std::string> ladder;  ///< One line per probe.
};

/// Capacity of the service under `options` (already scaled to a variant):
/// the highest rate that meets the rule. A fixed ladder of rates, scaled
/// like the variant, is bisected, taking meeting to be monotone in the rate;
/// between the last rate that meets and the first that misses, the p99
/// sojourn is interpolated linearly to the limit. `nominal` is the
/// variant's run at the nominal rate, which is one of the probes.
double Capacity(service::ScanService* svc, const ServiceWorkload& w,
                const service::ServiceResult& nominal, ServiceVirtual* out) {
  const double k = w.options.arrival.rate_per_sec / kServiceNominalRate;
  std::vector<double> ladder;
  for (double rate = 0.5; rate <= 4.0 + 1e-9; rate += 0.25) ladder.push_back(rate);
  std::vector<ServiceOutcome> probed(ladder.size());
  std::vector<bool> done(ladder.size(), false);
  const auto meets = [&](size_t i) {
    if (!done[i]) {
      if (std::fabs(ladder[i] - kServiceNominalRate) < 1e-9) {
        probed[i] = Judge(nominal);
      } else {
        service::ServiceOptions probe = w.options;
        probe.arrival.rate_per_sec = ladder[i] * k;
        auto run = svc->Run(probe, w.tables);
        if (!run.ok()) Die("capacity probe", run.status());
        probed[i] = Judge(*run);
      }
      done[i] = true;
      out->ladder.push_back(
          Fmt("capacity ladder: %.3f jobs/s -> p99 sojourn %.3f s",
              ladder[i] * k, probed[i].p99_s) +
          (probed[i].meets ? " (meets)" : " (misses)"));
    }
    return probed[i].meets;
  };
  long lo = -1;
  long hi = static_cast<long>(ladder.size());
  while (hi - lo > 1) {
    const long mid = lo + (hi - lo) / 2;
    if (meets(static_cast<size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (lo < 0) return ladder[0] * k / 2.0;  // Below the ladder.
  double capacity = ladder[static_cast<size_t>(lo)] * k;
  if (hi < static_cast<long>(ladder.size())) {
    const ServiceOutcome& a = probed[static_cast<size_t>(lo)];
    const ServiceOutcome& b = probed[static_cast<size_t>(hi)];
    if (b.p99_s > kSojournLimitS && b.p99_s > a.p99_s) {
      const double f = std::clamp(
          (kSojournLimitS - a.p99_s) / (b.p99_s - a.p99_s), 0.0, 1.0);
      capacity += f * (ladder[static_cast<size_t>(hi)] -
                       ladder[static_cast<size_t>(lo)]) * k;
    }
  }
  return capacity;
}

Report MeasureService(uint64_t seed, double seconds) {
  Report report;
  SetupTiming setup;
  const std::function<ServiceWorkload()> build = [&] {
    return BuildServiceOpen(seed, 0);
  };
  ServiceWorkload w = BuildTimed<ServiceWorkload>(
      build, [](const ServiceWorkload& s) { return TablePages(*s.db); },
      kSetupRepeats, &setup);
  auto refs = ComputeServiceReferences(&w);
  if (!refs.ok()) Die("service reference runs", refs.status());

  // Wall phase: variant 0 of the arrival process, back to back.
  service::ScanService svc(w.db.get());
  std::vector<double> walls;
  double rows = 0.0;
  uint64_t shed = 0, arrived = 0;
  const Clock::time_point start = Clock::now();
  while (walls.size() < static_cast<size_t>(kMinCalls) ||
         SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    auto run = svc.Run(w.options, w.tables);
    const double wall = SecondsSince(t0);
    if (!run.ok()) Die("ScanService::Run", run.status());
    CheckServiceRun(*run, *refs, &report);
    walls.push_back(wall);
    for (const auto& j : run->jobs) {
      rows += static_cast<double>(j.metrics.tuples_scanned);
    }
    shed += run->admission.shed;
    arrived += run->admission.arrived;
  }
  const double wall_phase_s = SecondsSince(start);

  // Virtual phase: one arrival-process variant per worker thread (the
  // service is chaotic in its arrival times like paper_tput is in its start
  // times); each runs at the nominal rate and then bisects the capacity
  // ladder. Virtual metrics are means over the variants.
  const size_t variants =
      std::min<size_t>(4, scanshare::ThreadPool::HardwareConcurrency());
  std::vector<ServiceVirtual> virtuals(variants);
  std::vector<Report> checks(variants);
  OnWorkers([&](size_t worker, size_t workers) {
    for (size_t v = worker; v < variants; v += workers) {
      ServiceWorkload copy = BuildServiceOpen(seed, v);
      service::ScanService local(copy.db.get());
      auto run = local.Run(copy.options, copy.tables);
      if (!run.ok()) Die("ScanService::Run variant", run.status());
      CheckServiceRun(*run, *refs, &checks[v]);
      ServiceVirtual& out = virtuals[v];
      std::vector<double> sojourn;
      for (const auto& j : run->jobs) {
        if (!j.shed) sojourn.push_back(static_cast<double>(j.Sojourn()) / 1e6);
      }
      out.makespan_s = static_cast<double>(run->makespan) / 1e6;
      out.p50_s = Median(sojourn);
      out.tail_s = TailValue(sojourn, &out.tail_label);
      out.pages = static_cast<double>(run->disk.pages_read);
      out.seeks = static_cast<double>(run->disk.seeks);
      out.capacity = Capacity(&local, copy, *run, &out);
    }
  });
  for (const Report& c : checks) Merge(c, &report);
  const auto mean_of = [&](double ServiceVirtual::*field) {
    double sum = 0.0;
    for (const ServiceVirtual& v : virtuals) sum += v.*field;
    return sum / static_cast<double>(virtuals.size());
  };

  AddWall(&report, rows, walls,
          "ScanService::Run call (whole arrival schedule)");
  report.Add("vmakespan_s", mean_of(&ServiceVirtual::makespan_s), "s");
  report.Add("vlatency_p50_s", mean_of(&ServiceVirtual::p50_s), "s");
  report.Add("vlatency_tail_s", mean_of(&ServiceVirtual::tail_s), "s");
  report.Add("disk_pages_read", mean_of(&ServiceVirtual::pages), "count");
  report.Add("disk_seeks", mean_of(&ServiceVirtual::seeks), "count");
  report.Add("capacity_jobs_per_s", mean_of(&ServiceVirtual::capacity), "jobs/s");
  AddCommon(&report, setup);
  report.Note("vlatency: job sojourn from its scheduled arrival (the generator "
              "is never late: arrivals are precomputed in virtual time); tail "
              "is " + virtuals[0].tail_label + "; virtual metrics are means "
              "over " + std::to_string(variants) + " arrival-process variants");
  for (const ServiceVirtual& v : virtuals) {
    for (const std::string& line : v.ladder) report.Note(line);
  }
  report.Note(Fmt("service: %.0f jobs per run at %.3f jobs/s offered "
                  "(Poisson bursts x8)",
                  static_cast<double>(kServiceJobs), w.options.arrival.rate_per_sec));
  report.Note(Fmt("shed %.0f of %.0f arrived in the wall phase (shed jobs count "
                  "as failed)",
                  static_cast<double>(shed), static_cast<double>(arrived)));
  report.Note(Fmt("calls: %.0f ScanService::Run in %.2f s wall",
                  static_cast<double>(walls.size()), wall_phase_s));
  return report;
}

// ---------------------------------------------------------------------------
// parallel_fit.

Report MeasureParallel(uint64_t seed, double seconds) {
  Report report;
  SetupTiming setup;
  const std::function<ParallelWorkload()> build = [&] {
    return BuildParallelFit(seed);
  };
  ParallelWorkload w = BuildTimed<ParallelWorkload>(
      build, [](const ParallelWorkload& p) { return TablePages(*p.db); },
      kSetupRepeats, &setup);

  // References: the isolated baseline run, and the same query at jobs=1.
  // The disk metrics come from the jobs=1 runs: at jobs=N the simulated
  // disk sees the workers' extents in whatever order the threads ran, so its
  // seek count is scheduling noise (a pair's seeks spread 0-30 within one
  // run, and their mean by a fifth between runs).
  std::vector<exec::QueryOutput> refs;
  double pair_pages = 0.0, pair_seeks = 0.0;
  for (const exec::QuerySpec& q : w.queries) {
    auto ref = ReferenceOutput(w.db.get(), w.config, q);
    if (!ref.ok()) Die("reference run", ref.status());
    exec::ParallelScanOptions one = w.options;
    one.jobs = 1;
    one.partitions = 0;
    auto single = exec::RunQueryParallel(w.db.get(), w.config, q, one);
    if (!single.ok()) Die("jobs=1 run", single.status());
    pair_pages += static_cast<double>(w.db->env()->disk().stats().pages_read);
    pair_seeks += static_cast<double>(w.db->env()->disk().stats().seeks);
    std::string diff;
    bool exact = false;
    const bool same = AnswersMatch(single->output, *ref, &diff, &exact);
    if (!same) report.Note(q.name + " at jobs=1 differs from baseline: " + diff);
    report.exact += exact ? 1 : 0;
    report.Check(same, !same);
    refs.push_back(single->output);
  }

  std::vector<double> walls;
  std::vector<double> latencies;
  std::vector<double> pair_virtual;
  double pair_v = 0.0;
  double rows = 0.0;
  const Clock::time_point start = Clock::now();
  size_t i = 0;
  while (walls.size() < 20 || i % w.queries.size() != 0 ||
         SecondsSince(start) < seconds) {
    const size_t k = i % w.queries.size();
    const Clock::time_point t0 = Clock::now();
    auto run = exec::RunQueryParallel(w.db.get(), w.config, w.queries[k],
                                      w.options);
    const double wall = SecondsSince(t0);
    if (!run.ok()) Die("RunQueryParallel", run.status());
    std::string diff;
    const bool same = scanshare::metrics::BitIdentical(run->output, refs[k], &diff);
    if (!same) report.Note(w.queries[k].name + " jobs=N differs: " + diff);
    report.Check(same, !same);
    walls.push_back(wall);
    rows += static_cast<double>(run->output.rows_scanned);
    // RunQueryParallel's end_time is a logical tick, not virtual time, so
    // the query's virtual time is its workers' summed virtual work (cpu,
    // unoverlapped I/O stall, bookkeeping) spread over the jobs.
    const exec::ScanMetrics& m = run->metrics;
    const double v = static_cast<double>(m.cpu + m.io_stall + m.overhead) /
                     1e6 / static_cast<double>(run->jobs);
    latencies.push_back(v);
    pair_v += v;
    if (k + 1 == w.queries.size()) {
      pair_virtual.push_back(pair_v);
      pair_v = 0.0;
    }
    ++i;
  }

  const double pair_makespan = Median(pair_virtual);
  AddWall(&report, rows, walls, "RunQueryParallel call (one query)");
  report.Add("vmakespan_s", pair_makespan, "s");
  AddVirtualLatency(&report, latencies,
                    "query virtual work (cpu + I/O stall + bookkeeping) / jobs");
  report.Add("disk_pages_read", pair_pages, "count");
  report.Add("disk_seeks", pair_seeks, "count");
  report.Add("capacity_jobs_per_s",
             static_cast<double>(w.queries.size()) / pair_makespan, "jobs/s");
  AddCommon(&report, setup);
  report.Note(Fmt("parallel: jobs=%.0f, %.0f queries", static_cast<double>(w.options.jobs),
                  static_cast<double>(walls.size())));
  report.Note("per Q1+Q6 pair: vmakespan_s (median over pairs), disk_* (the "
              "jobs=1 runs); capacity_jobs_per_s: queries per virtual second "
              "of a pair");
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_tput", "push_2tbl",
                                                 "service_open", "parallel_fit"};
  return names;
}

SimWorkload BuildPaperTput(uint64_t seed) {
  SimWorkload w;
  w.db = std::make_unique<exec::Database>();
  LoadLineitem(w.db.get(), "lineitem", seed);
  w.config = SharedConfig(*w.db, 0.05);
  w.streams = SimStreams("paper_tput", seed, 0);
  return w;
}

SimWorkload BuildPush2Tbl(uint64_t seed) {
  SimWorkload w;
  w.db = std::make_unique<exec::Database>();
  LoadLineitem(w.db.get(), "lineitem", seed);
  LoadLineitem(w.db.get(), "orders_like", seed + 1);
  w.config = SharedConfig(*w.db, 0.05);
  w.config.io.prefetch_depth = 8;
  w.streams = SimStreams("push_2tbl", seed, 0);
  return w;
}

std::vector<exec::StreamSpec> SimStreams(const std::string& name, uint64_t seed,
                                         uint64_t variant) {
  // Stream start times are the one input the simulator is chaotic in: a
  // shift of a few microseconds regroups the scans and moves the makespan by
  // tenths and the seeks by half. Each variant draws its own shifts, up to
  // 1 % of one I/O-bound scan, and the end-to-end run reports means over
  // its variants.
  scanshare::Rng rng(seed * 1'000'003ULL + variant);
  const uint64_t jitter = static_cast<uint64_t>(ScanMicros()) / 100;
  std::vector<exec::StreamSpec> streams;
  if (name == "paper_tput") {
    // The paper's Table 1 run: the query permutations bench_e1 uses.
    streams = scanshare::workload::MakeThroughputStreams(
        scanshare::workload::DefaultQueryMix("lineitem"), 5, 10, kPaperStreamSeed);
    for (exec::StreamSpec& st : streams) {
      st.start_delay = static_cast<scanshare::sim::Micros>(rng.Uniform(jitter));
    }
    return streams;
  }
  // push_2tbl, the A10 shape: one batch Q1 stream on lineitem; two Q6
  // streams on the second table, staggered by 10 % of one I/O-bound scan,
  // which form one sharing group. Each stream start takes the variant's
  // shift on top.
  const size_t queries = 10;
  streams.resize(3);
  streams[0].start_delay = static_cast<scanshare::sim::Micros>(rng.Uniform(jitter));
  const auto stagger = ScanMicros() / 10 +
                       static_cast<scanshare::sim::Micros>(rng.Uniform(jitter));
  streams[0].queries.assign(queries, scanshare::workload::MakeQ1Like("lineitem"));
  streams[1].queries.assign(
      queries, scanshare::workload::MakeQ6Like("orders_like", /*year=*/5));
  streams[1].start_delay = stagger / 2;
  exec::QuerySpec q6b = scanshare::workload::MakeQ6Like("orders_like", 3);
  q6b.name = "Q6y3";
  streams[2].queries.assign(queries, q6b);
  streams[2].start_delay = stagger;
  return streams;
}

ServiceWorkload BuildServiceOpen(uint64_t seed, uint64_t variant) {
  ServiceWorkload w;
  w.db = std::make_unique<exec::Database>();
  service::WorkloadSpec& spec = w.options.workload;
  spec.num_tables = 8;
  spec.mdc_every = 4;
  spec.pages_per_table = 256;
  spec.zipf_theta = 0.99;
  // Table contents, job mix and arrival pattern come from fixed seeds: over
  // different arrival seeds the p99 sojourn of one run spreads by half and
  // the capacity by a third, far wider than any usable regression bound.
  // The run's seed only rescales the arrival time axis (below).
  spec.seed = kServiceDataSeed;
  auto tables = service::BuildServiceTables(w.db->catalog(), spec);
  if (!tables.ok()) Die("service tables", tables.status());
  w.tables = *std::move(tables);
  w.options.arrival.kind = service::ArrivalKind::kPoissonBurst;
  w.options.arrival.seed = kServiceDataSeed + 2;
  w.options.arrival.burst_factor = 8.0;
  w.options.arrival.num_jobs = kServiceJobs;
  // Each (seed, variant) speeds the whole arrival process up or down by up
  // to 1 %: the rate and the burst windows scale together, so the schedule
  // is the same sequence of jobs on a slightly compressed or stretched time
  // axis.
  scanshare::Rng rng(seed * 1'000'003ULL + variant);
  const double k = 0.99 + 0.02 * rng.NextDouble();
  service::ArrivalSpec& arrival = w.options.arrival;
  arrival.rate_per_sec = kServiceNominalRate * k;
  arrival.burst_period = static_cast<scanshare::sim::Micros>(
      static_cast<double>(arrival.burst_period) / k);
  arrival.burst_len = static_cast<scanshare::sim::Micros>(
      static_cast<double>(arrival.burst_len) / k);
  w.options.admission.global_cap = 48;
  w.options.admission.per_table_cap = 12;
  w.options.admission.queue_bound = 64;
  w.options.run.buffer.num_frames = 128;
  w.options.run.buffer.prefetch_extent_pages = kExtentPages;
  w.options.run.ssm.adaptive_regroup = true;
  return w;
}

ParallelWorkload BuildParallelFit(uint64_t seed) {
  ParallelWorkload w;
  w.db = std::make_unique<exec::Database>();
  // A small table ahead of lineitem, so that lineitem does not start where
  // the disk head parks: each cold scan of it costs one seek.
  auto history = scanshare::workload::GenerateLineitem(
      w.db->catalog(), "history", scanshare::workload::LineitemRowsForPages(64),
      seed + 1);
  if (!history.ok()) Die("generate history", history.status());
  LoadLineitem(w.db.get(), "lineitem", seed);
  w.config = SharedConfig(*w.db, 1.0);
  w.config.buffer.num_frames = TablePages(*w.db) + 2 * kExtentPages;
  w.queries = {scanshare::workload::MakeQ1Like("lineitem"),
               scanshare::workload::MakeQ6Like("lineitem", 5)};
  w.options.jobs = std::min<size_t>(4, scanshare::ThreadPool::HardwareConcurrency());
  return w;
}

StatusOr<exec::QueryOutput> ReferenceOutput(exec::Database* db,
                                            const exec::RunConfig& like,
                                            const exec::QuerySpec& query) {
  exec::RunConfig config;
  config.mode = exec::ScanMode::kBaseline;
  config.buffer = like.buffer;
  exec::StreamSpec stream;
  stream.queries.push_back(query);
  SCANSHARE_ASSIGN_OR_RETURN(exec::RunResult run, db->Run(config, {stream}));
  return run.streams.at(0).queries.at(0).output;
}

StatusOr<SimReferences> ComputeSimReferences(SimWorkload* w) {
  SimReferences refs;
  std::vector<std::pair<std::string, exec::QueryOutput>> cache;
  for (const exec::StreamSpec& s : w->streams) {
    refs.outputs.emplace_back();
    for (const exec::QuerySpec& q : s.queries) {
      const std::string key = q.table + "/" + q.name;
      auto hit = std::find_if(cache.begin(), cache.end(),
                              [&](const auto& e) { return e.first == key; });
      if (hit == cache.end()) {
        SCANSHARE_ASSIGN_OR_RETURN(exec::QueryOutput out,
                                   ReferenceOutput(w->db.get(), w->config, q));
        cache.emplace_back(key, std::move(out));
        hit = cache.end() - 1;
      }
      refs.outputs.back().push_back(hit->second);
    }
  }
  return refs;
}

void CheckSimRun(const exec::RunResult& run, const SimReferences& refs,
                 Report* report) {
  for (size_t s = 0; s < run.streams.size(); ++s) {
    const auto& queries = run.streams[s].queries;
    for (size_t q = 0; q < queries.size(); ++q) {
      std::string diff;
      bool exact = false;
      const bool same = AnswersMatch(queries[q].output,
                                     refs.outputs.at(s).at(q), &diff, &exact);
      report->exact += exact ? 1 : 0;
      if (!same) {
        report->Note("stream " + std::to_string(s) + " query " +
                     queries[q].name + " differs from its reference: " + diff);
      }
      report->Check(same, !same);
    }
  }
}

StatusOr<std::vector<exec::QueryOutput>> ComputeServiceReferences(
    ServiceWorkload* w) {
  const std::vector<service::JobArrival> schedule =
      service::GenerateArrivalSchedule(w->options.arrival, w->options.workload,
                                       w->tables);
  std::vector<exec::QueryOutput> refs;
  refs.reserve(schedule.size());
  for (const service::JobArrival& job : schedule) {
    SCANSHARE_ASSIGN_OR_RETURN(
        exec::QueryOutput out,
        ReferenceOutput(w->db.get(), w->options.run, job.query));
    refs.push_back(std::move(out));
  }
  return refs;
}

void CheckServiceRun(const service::ServiceResult& run,
                     const std::vector<exec::QueryOutput>& refs,
                     Report* report) {
  for (const service::JobRecord& job : run.jobs) {
    if (job.shed) {
      report->Check(false);
      continue;
    }
    std::string diff;
    bool exact = false;
    const bool same = job.id < refs.size() &&
                      AnswersMatch(job.output, refs[job.id], &diff, &exact);
    report->exact += exact ? 1 : 0;
    if (!same) {
      report->Note("job " + std::to_string(job.id) + " (" + job.query +
                   ") differs from its reference: " + diff);
    }
    report->Check(same, !same);
  }
}

bool AnswersMatch(const exec::QueryOutput& got, const exec::QueryOutput& want,
                  std::string* diff, bool* bit_identical) {
  if (bit_identical != nullptr) *bit_identical = false;
  if (scanshare::metrics::BitIdentical(got, want, diff)) {
    if (bit_identical != nullptr) *bit_identical = true;
    return true;
  }
  if (got.rows_scanned != want.rows_scanned ||
      got.rows_matched != want.rows_matched ||
      got.groups.size() != want.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < got.groups.size(); ++g) {
    const exec::GroupResult& a = got.groups[g];
    const exec::GroupResult& b = want.groups[g];
    if (a.key != b.key || a.rows != b.rows ||
        a.values.size() != b.values.size()) {
      *diff = "group " + b.key + " key, rows or arity";
      return false;
    }
    for (size_t v = 0; v < a.values.size(); ++v) {
      const double scale = std::max(std::fabs(a.values[v]), std::fabs(b.values[v]));
      if (!(std::fabs(a.values[v] - b.values[v]) <= 1e-9 * scale)) {
        *diff = "group " + b.key + " value " + std::to_string(v) + ": " +
                std::to_string(a.values[v]) + " vs " + std::to_string(b.values[v]);
        return false;
      }
    }
  }
  return true;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double TailValue(std::vector<double> samples, std::string* label) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  static const double kPercentiles[] = {99.9, 99.0, 95.0, 90.0, 80.0};
  for (const double p : kPercentiles) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "p%g of %zu", p, n);
      *label = buf;
      return samples[rank - 1];
    }
  }
  *label = "max of " + std::to_string(n) +
           " (fewer than 50 samples: no percentile from p80 up has ten "
           "beyond it)";
  return samples.back();
}

Report MeasureEndToEnd(const std::string& name, uint64_t seed, double seconds) {
  if (name == "service_open") return MeasureService(seed, seconds);
  if (name == "parallel_fit") return MeasureParallel(seed, seconds);
  return MeasureSim(name, seed, seconds);
}

SetupTiming TimeSetup(const std::string& name, uint64_t seed, int repeats) {
  SetupTiming t;
  if (name == "service_open") {
    const std::function<ServiceWorkload()> b = [&] {
      return BuildServiceOpen(seed, 0);
    };
    BuildTimed<ServiceWorkload>(
        b, [](const ServiceWorkload& s) { return TablePages(*s.db); }, repeats, &t);
  } else if (name == "parallel_fit") {
    const std::function<ParallelWorkload()> b = [&] { return BuildParallelFit(seed); };
    BuildTimed<ParallelWorkload>(
        b, [](const ParallelWorkload& p) { return TablePages(*p.db); }, repeats, &t);
  } else {
    BuildSim(name, seed, repeats, &t);
  }
  return t;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace scanbench
