// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The traced run: per-layer metrics measured from the benchmark's own code.
// Nothing in the engine is instrumented; the spans come from three places.
//
//  1. Assembled run (paper_tput, push_2tbl). The engine is built from the
//     same public constructors exec::Database::Run uses, with forwarding
//     decorators in the virtual seams: ssm::SharingPolicy,
//     buffer::PagePolicy / ReplacementPolicy and io::IoBackend. Each
//     decorator times the call it forwards. The engine never downcasts
//     these, so the run must reproduce the untraced Database::Run exactly;
//     that is the non-perturbation gate.
//  2. Kernel replay. BufferPool is final and ChunkProcessor lives inside the
//     executor, so pool, predicate, aggregate and chunk times come from
//     replaying the workload's queries front to back: once through
//     ChunkProcessor::ProcessRange over a timed buffer::PageSource, once
//     through CompiledPredicate::MatchBatch and Aggregator::ConsumeBatch on
//     the same pages. Both replays must produce the query's reference answer
//     bit for bit.
//  3. Spans around ScanService::Run and RunQueryParallel, which assemble
//     their engines internally, plus their result counters.
//
// All times are per workload unit: one Database::Run, one ScanService::Run,
// or one Q1+Q6 pair for parallel_fit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

#include "buffer/alternative_replacers.h"
#include "buffer/buffer_pool.h"
#include "buffer/page_policy.h"
#include "exec/chunk_processor.h"
#include "exec/scan_ops.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"
#include "metrics/report.h"
#include "spans.h"
#include "ssm/sharing_policy.h"
#include "storage/page.h"
#include "workloads.h"

namespace scanbench {

namespace {

namespace buffer = scanshare::buffer;
namespace io = scanshare::io;
namespace sim = scanshare::sim;
namespace ssm = scanshare::ssm;
using scanshare::Status;
using scanshare::StatusOr;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "scanbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Forwarding decorators. Each holds the recorder and the span id it opens.

class TimedSharingPolicy final : public ssm::SharingPolicy {
 public:
  TimedSharingPolicy(std::shared_ptr<ssm::SharingPolicy> inner,
                     SpanRecorder* rec, int span)
      : inner_(std::move(inner)), rec_(rec), span_(span) {}

  const char* name() const override { return inner_->name(); }
  ssm::Placement Place(const ssm::ScanDescriptor& desc, double est_speed_pps,
                       const std::vector<const ssm::ScanState*>& active,
                       size_t total_active_scans,
                       std::optional<sim::PageId> last_finished_pos,
                       const ssm::ScanCircle& circle) const override {
    ScopedSpan s(rec_, span_);
    return inner_->Place(desc, est_speed_pps, active, total_active_scans,
                         last_finished_pos, circle);
  }
  std::vector<ssm::ScanGroup> Group(const std::vector<ssm::ScanPoint>& points,
                                    const ssm::ScanCircle& circle) const override {
    ScopedSpan s(rec_, span_);
    return inner_->Group(points, circle);
  }
  ssm::ThrottleDecision Throttle(const ssm::ScanState& scan,
                                 const ssm::ScanGroup& group,
                                 const ssm::ScanState& trailer,
                                 const ssm::ScanCircle& circle) const override {
    ScopedSpan s(rec_, span_);
    return inner_->Throttle(scan, group, trailer, circle);
  }
  void OnScanStarted(const ssm::ScanState& scan) override {
    ScopedSpan s(rec_, span_);
    inner_->OnScanStarted(scan);
  }
  void OnLocationUpdate(const ssm::ScanState& scan) override {
    ScopedSpan s(rec_, span_);
    inner_->OnLocationUpdate(scan);
  }
  void OnScanEnded(ssm::ScanId id, sim::PageId final_pos) override {
    ScopedSpan s(rec_, span_);
    inner_->OnScanEnded(id, final_pos);
  }

 private:
  std::shared_ptr<ssm::SharingPolicy> inner_;
  SpanRecorder* rec_;
  int span_;
};

class TimedReplacer final : public buffer::ReplacementPolicy {
 public:
  TimedReplacer(std::unique_ptr<buffer::ReplacementPolicy> inner,
                SpanRecorder* rec, int span)
      : inner_(std::move(inner)), rec_(rec), span_(span) {}

  void RecordAccess(buffer::FrameId f) override {
    ScopedSpan s(rec_, span_);
    inner_->RecordAccess(f);
  }
  void SetPriority(buffer::FrameId f, buffer::PagePriority p) override {
    ScopedSpan s(rec_, span_);
    inner_->SetPriority(f, p);
  }
  void Pin(buffer::FrameId f) override {
    ScopedSpan s(rec_, span_);
    inner_->Pin(f);
  }
  void Unpin(buffer::FrameId f) override {
    ScopedSpan s(rec_, span_);
    inner_->Unpin(f);
  }
  void Remove(buffer::FrameId f) override {
    ScopedSpan s(rec_, span_);
    inner_->Remove(f);
  }
  void NotePage(buffer::FrameId f, uint64_t page) override {
    ScopedSpan s(rec_, span_);
    inner_->NotePage(f, page);
  }
  StatusOr<buffer::FrameId> Evict() override {
    ScopedSpan s(rec_, span_);
    return inner_->Evict();
  }
  size_t EvictableCount() const override { return inner_->EvictableCount(); }
  bool IsTracked(buffer::FrameId f) const override { return inner_->IsTracked(f); }
  bool IsEvictable(buffer::FrameId f) const override {
    return inner_->IsEvictable(f);
  }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<buffer::ReplacementPolicy> inner_;
  SpanRecorder* rec_;
  int span_;
};

class TimedPagePolicy final : public buffer::PagePolicy {
 public:
  TimedPagePolicy(std::shared_ptr<const buffer::PagePolicy> inner,
                  SpanRecorder* rec, int span)
      : inner_(std::move(inner)), rec_(rec), span_(span) {}

  const char* name() const override { return inner_->name(); }
  std::unique_ptr<buffer::ReplacementPolicy> MakeReplacer(
      size_t num_frames) const override {
    return std::make_unique<TimedReplacer>(inner_->MakeReplacer(num_frames),
                                           rec_, span_);
  }
  buffer::PagePriority ReleasePriority(
      const buffer::ReleaseContext& ctx) const override {
    ScopedSpan s(rec_, span_);
    return inner_->ReleasePriority(ctx);
  }

 private:
  std::shared_ptr<const buffer::PagePolicy> inner_;
  SpanRecorder* rec_;
  int span_;
};

class TimedIoBackend final : public io::IoBackend {
 public:
  TimedIoBackend(std::unique_ptr<io::IoBackend> inner, SpanRecorder* rec,
                 int charge_span, int bytes_span)
      : inner_(std::move(inner)),
        rec_(rec),
        charge_span_(charge_span),
        bytes_span_(bytes_span) {}

  uint32_t page_size() const override { return inner_->page_size(); }
  const char* name() const override { return inner_->name(); }
  StatusOr<sim::IoResult> Charge(sim::PageId first, uint64_t count,
                                 sim::Micros now) override {
    ScopedSpan s(rec_, charge_span_);
    return inner_->Charge(first, count, now);
  }
  Status StartBytes(sim::PageId first, uint64_t count, uint8_t* dest,
                    io::ReadToken* token) override {
    ScopedSpan s(rec_, bytes_span_);
    bytes_moved_ += count * inner_->page_size();
    return inner_->StartBytes(first, count, dest, token);
  }
  Status Join(io::ReadToken token) override {
    ScopedSpan s(rec_, bytes_span_);
    return inner_->Join(token);
  }
  io::RealIoStats real_stats() const override { return inner_->real_stats(); }

  uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  std::unique_ptr<io::IoBackend> inner_;
  SpanRecorder* rec_;
  int charge_span_;
  int bytes_span_;
  uint64_t bytes_moved_ = 0;
};

class TimedPageSource final : public buffer::PageSource {
 public:
  TimedPageSource(buffer::PageSource* inner, SpanRecorder* rec, int span)
      : inner_(inner), rec_(rec), span_(span) {}

  StatusOr<buffer::FetchResult> FetchPage(sim::PageId page, sim::Micros now,
                                          sim::PageId clip_first,
                                          sim::PageId clip_end) override {
    ScopedSpan s(rec_, span_);
    return inner_->FetchPage(page, now, clip_first, clip_end);
  }
  Status UnpinPage(sim::PageId page, buffer::PagePriority priority) override {
    ScopedSpan s(rec_, span_);
    return inner_->UnpinPage(page, priority);
  }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint64_t prefetch_extent_pages() const override {
    return inner_->prefetch_extent_pages();
  }

 private:
  buffer::PageSource* inner_;
  SpanRecorder* rec_;
  int span_;
};

// ---------------------------------------------------------------------------
// Span names.

struct Spans {
  explicit Spans(SpanRecorder* r)
      : call(r->Intern("traced.call")),
        policy(r->Intern("ssm.policy")),
        replacer(r->Intern("buffer.replacer")),
        io_charge(r->Intern("io.charge")),
        io_bytes(r->Intern("io.bytes")),
        replay_chunk(r->Intern("replay.chunk")),
        replay_kernel(r->Intern("replay.kernel")),
        replay_merge(r->Intern("replay.merge")),
        replay_cold(r->Intern("replay.cold")),
        fetch(r->Intern("buffer.fetch")),
        pred(r->Intern("exec.pred")),
        agg(r->Intern("exec.agg")),
        merge(r->Intern("exec.agg.merge")),
        scaling(r->Intern("parallel.jobs1")) {}
  int call, policy, replacer, io_charge, io_bytes;
  int replay_chunk, replay_kernel, replay_merge, replay_cold, fetch;
  int pred, agg, merge, scaling;
};

/// Every per-layer metric, in BENCHMARK.json order, with its unit. All are
/// reported on every workload; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"exec.pred.s", "s"},           {"exec.pred.tuples", "count"},
      {"exec.pred.selectivity", "ratio"},
      {"exec.agg.s", "s"},            {"exec.agg.rows", "count"},
      {"exec.agg.groups", "count"},   {"exec.agg.merge_s", "s"},
      {"exec.chunk.self_s", "s"},     {"exec.sched.steps", "count"},
      {"exec.sched.self_s", "s"},
      {"buffer.fetches", "count"},    {"buffer.hit_ratio", "ratio"},
      {"buffer.evictions", "count"},  {"buffer.fetch_s", "s"},
      {"buffer.replacer_s", "s"},
      {"ssm.policy_s", "s"},          {"ssm.regroups", "count"},
      {"ssm.scans_started", "count"}, {"ssm.join_ratio", "ratio"},
      {"ssm.throttle_events", "count"}, {"ssm.throttle_wait_s", "s"},
      {"ssm.cap_suppressions", "count"},
      {"io.submitted", "count"},      {"io.prefetch_hits", "count"},
      {"io.useful_ratio", "ratio"},   {"io.dropped_stale", "count"},
      {"io.reissue_suppressed", "count"}, {"io.sync_reads", "count"},
      {"io.charge_s", "s"},           {"io.bytes_s", "s"},
      {"io.bytes_moved", "bytes"},
      {"disk.requests", "count"},     {"disk.seek_ratio", "ratio"},
      {"disk.busy_s", "s"},          {"disk.queue_wait_s", "s"},
      {"service.admitted", "count"},  {"service.queued", "count"},
      {"service.shed", "count"},      {"service.max_running", "count"},
      {"service.queue_wait_p50_s", "s"}, {"service.queue_wait_tail_s", "s"},
      {"parallel.morsels", "count"},  {"parallel.scaling", "ratio"},
      {"setup.generate_s", "s"},      {"setup.pages", "count"},
      {"obs.trace_overhead_frac", "ratio"}, {"obs.events", "count"},
      {"obs.dropped", "count"},       {"obs.unattributed_s", "s"},
  };
  return m;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values keyed by metric name; Emit writes them in list order.
class Layers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void Emit(Report* report) const {
    for (const auto& [name, unit] : LayerMetrics()) {
      report->Add(name, Get(name), unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Kernel replay.

struct ReplayTotals {
  double tuples = 0.0;
  double matched = 0.0;
  double groups = 0.0;
  double fetches = 0.0;
  uint64_t replayed = 0;
  uint64_t skipped = 0;  ///< Index scans (not replayed).
};

/// One query of a replay round and the answer it must reproduce.
struct ReplayItem {
  const exec::QuerySpec* query = nullptr;
  const exec::QueryOutput* reference = nullptr;
};

/// Per-query replay state; ChunkProcessor keeps pointers into it, so it
/// lives behind a unique_ptr.
struct ReplayScan {
  const ReplayItem* item = nullptr;
  const scanshare::storage::TableInfo* table = nullptr;
  exec::QuerySpec spec;
  sim::PageId first = 0, end = 0, cursor = 0;
  std::unique_ptr<exec::Aggregator> agg;
  exec::ScanMetrics metrics;
  std::unique_ptr<exec::ChunkProcessor> chunks;
  scanshare::exec::CompiledPredicate pred;
  uint64_t scanned = 0;
};

/// Replays a round of concurrently running queries twice over `pool`, front
/// to back and interleaved extent by extent (so pages are shared in CPU
/// cache the way a group of shared scans shares them): through
/// ChunkProcessor (span replay.chunk), then through MatchBatch / ConsumeBatch
/// directly (span replay.kernel, with exec.pred and exec.agg children).
/// Both answers of every query must equal its reference bit for bit.
void ReplayRound(const exec::Database& db, buffer::PageSource* pool,
                 const std::vector<ReplayItem>& items, SpanRecorder* rec,
                 const Spans& ids, ReplayTotals* totals, Report* report) {
  const uint64_t extent = pool->prefetch_extent_pages();
  const exec::CostModel cost;
  const auto make_scans = [&](bool chunked) {
    std::vector<std::unique_ptr<ReplayScan>> scans;
    for (const ReplayItem& item : items) {
      if (item.query->access != exec::AccessPath::kTableScan) continue;
      auto scan = std::make_unique<ReplayScan>();
      scan->item = &item;
      auto table = db.catalog()->GetTable(item.query->table);
      if (!table.ok()) Die("replay table", table.status());
      scan->table = *table;
      scan->spec = *item.query;
      const scanshare::storage::Schema& schema = scan->table->schema;
      if (Status st = scan->spec.predicate.Bind(schema); !st.ok()) Die("bind", st);
      exec::ResolveScanRange(*scan->table, scan->spec, extent, &scan->first,
                             &scan->end);
      scan->cursor = scan->first;
      scan->agg = std::make_unique<exec::Aggregator>(scan->spec.aggs,
                                                     scan->spec.group_by);
      if (Status st = scan->agg->Bind(schema); !st.ok()) Die("bind", st);
      if (chunked) {
        scan->chunks = std::make_unique<exec::ChunkProcessor>(
            pool, scan->table, &cost, &scan->spec.predicate, scan->agg.get(),
            &scan->metrics);
        scan->chunks->SetQueryCosts(scan->spec.predicate.size(),
                                    scan->spec.aggs.size(),
                                    scan->spec.per_tuple_extra_ns);
      } else {
        if (Status st = scan->agg->PrepareHot(schema); !st.ok()) Die("hot", st);
        if (!scan->spec.predicate.empty()) {
          auto compiled = scan->spec.predicate.Compile(schema);
          if (!compiled.ok()) Die("compile", compiled.status());
          scan->pred = *std::move(compiled);
        }
      }
      scans.push_back(std::move(scan));
    }
    return scans;
  };
  // Advances every unfinished scan by one extent chunk; false when all done.
  const auto round_robin = [&](std::vector<std::unique_ptr<ReplayScan>>& scans,
                               const std::function<void(ReplayScan*, sim::PageId,
                                                        sim::PageId)>& step) {
    bool any = true;
    while (any) {
      any = false;
      for (auto& scan : scans) {
        if (scan->cursor >= scan->end) continue;
        const sim::PageId stop =
            std::min<sim::PageId>((scan->cursor / extent + 1) * extent, scan->end);
        step(scan.get(), scan->cursor, stop);
        scan->cursor = stop;
        any = true;
      }
    }
  };

  std::vector<std::unique_ptr<ReplayScan>> chunked = make_scans(true);
  totals->skipped += items.size() - chunked.size();
  {
    ScopedSpan span(rec, ids.replay_chunk);
    round_robin(chunked, [](ReplayScan* scan, sim::PageId first, sim::PageId stop) {
      auto elapsed =
          scan->chunks->ProcessRange(first, stop, 0, buffer::PagePriority::kNormal);
      if (!elapsed.ok()) Die("replay ProcessRange", elapsed.status());
    });
  }

  std::vector<std::unique_ptr<ReplayScan>> kernel = make_scans(false);
  std::vector<const uint8_t*> tuples;
  std::vector<uint8_t> sel;
  {
    ScopedSpan span(rec, ids.replay_kernel);
    round_robin(kernel, [&](ReplayScan* scan, sim::PageId first, sim::PageId stop) {
      for (sim::PageId p = first; p < stop; ++p) {
        auto fetched = pool->FetchPage(p, 0, scan->table->first_page,
                                       scan->table->end_page());
        if (!fetched.ok()) Die("replay fetch", fetched.status());
        scanshare::storage::Page view(const_cast<uint8_t*>(fetched->data),
                                      pool->page_size());
        const uint16_t count = view.tuple_count();
        tuples.resize(count);
        for (uint16_t slot = 0; slot < count; ++slot) {
          tuples[slot] = view.TupleDataUnchecked(slot);
        }
        sel.assign(count, uint8_t{1});
        if (!scan->pred.empty()) {
          ScopedSpan s(rec, ids.pred);
          scan->pred.MatchBatch(tuples.data(), count, sel.data());
        }
        uint64_t matched = 0;
        for (uint16_t slot = 0; slot < count; ++slot) matched += sel[slot];
        {
          ScopedSpan s(rec, ids.agg);
          scan->agg->ConsumeBatch(tuples.data(), sel.data(), count);
        }
        if (Status st = pool->UnpinPage(p, buffer::PagePriority::kNormal); !st.ok()) {
          Die("replay unpin", st);
        }
        scan->scanned += count;
        totals->tuples += static_cast<double>(count);
        totals->matched += static_cast<double>(matched);
        totals->fetches += 1.0;
      }
    });
  }

  for (size_t i = 0; i < kernel.size(); ++i) {
    const ReplayItem& item = *kernel[i]->item;
    const exec::QueryOutput chunk_out =
        chunked[i]->agg->Finish(chunked[i]->metrics.tuples_scanned);
    const exec::QueryOutput kernel_out = kernel[i]->agg->Finish(kernel[i]->scanned);
    totals->groups += static_cast<double>(kernel_out.groups.size());
    ++totals->replayed;
    std::string diff;
    const bool chunk_ok =
        scanshare::metrics::BitIdentical(chunk_out, *item.reference, &diff);
    if (!chunk_ok) report->Note("chunk replay of " + item.query->name + " differs: " + diff);
    report->Check(chunk_ok, !chunk_ok);
    const bool kernel_ok =
        scanshare::metrics::BitIdentical(kernel_out, *item.reference, &diff);
    if (!kernel_ok) report->Note("kernel replay of " + item.query->name + " differs: " + diff);
    report->Check(kernel_ok, !kernel_ok);
    report->exact += (chunk_ok ? 1 : 0) + (kernel_ok ? 1 : 0);
  }
}

/// A replay pool over `db`'s storage, large enough to hold every table, so
/// that after one warm-up pass every replay fetch is a hit. Its fetch/unpin
/// calls are spanned. The cost of a physical read is measured
/// apart (span replay.cold), on a pool of two extents whose frames are
/// already faulted in, so that every fetch there is a miss into a reused
/// frame, as in a run.
struct ReplayPool {
  ReplayPool(exec::Database* db, SpanRecorder* rec, const Spans& ids)
      : pool(db->disk_manager(),
             std::make_unique<buffer::LruReplacer>(Frames(*db)),
             Options(Frames(*db))),
        timed(&pool, rec, ids.fetch) {
    Scan(db, &pool);  // Warm-up: every table becomes resident.
    buffer::BufferPool small(db->disk_manager(),
                             std::make_unique<buffer::LruReplacer>(2 * kExtent),
                             Options(2 * kExtent));
    Scan(db, &small);  // Faults the small pool's frames in.
    ScopedSpan span(rec, ids.replay_cold);
    cold_pages = Scan(db, &small);
  }
  /// Fetches and unpins every page of every table once; returns the count.
  static double Scan(exec::Database* db, buffer::PageSource* source) {
    double pages = 0.0;
    for (const auto& name : db->catalog()->TableNames()) {
      const auto* table = *db->catalog()->GetTable(name);
      for (sim::PageId p = table->first_page; p < table->end_page(); ++p) {
        auto fetched = source->FetchPage(p, 0, table->first_page, table->end_page());
        if (!fetched.ok()) Die("replay warm-up", fetched.status());
        if (Status st = source->UnpinPage(p, buffer::PagePriority::kNormal); !st.ok()) {
          Die("replay warm-up", st);
        }
        pages += 1.0;
      }
    }
    return pages;
  }
  static constexpr size_t kExtent = 16;
  static size_t Frames(const exec::Database& db) {
    return static_cast<size_t>(db.catalog()->TotalTablePages()) + 64;
  }
  static buffer::BufferPoolOptions Options(size_t frames) {
    buffer::BufferPoolOptions o;
    o.num_frames = frames;
    o.prefetch_extent_pages = kExtent;
    return o;
  }
  buffer::BufferPool pool;
  TimedPageSource timed;
  double cold_pages = 0.0;
};

/// Fills the replay-derived layers. The replay covers one workload unit;
/// `fetches` and `physical_pages` are one unit's pool counters from the
/// measured run. Fetch cost is modelled from the
/// replay: hit-path cost per fetch times the run's fetches, plus cold-read
/// cost per page times the pages the run read from disk.
void SetReplayLayers(const SpanRecorder& rec, const ReplayPool& pool,
                     const ReplayTotals& t, double fetches,
                     double physical_pages, Layers* layers) {
  const double chunk = rec.Get("replay.chunk").total_s;
  const double pred = rec.Get("exec.pred").total_s;
  const double agg = rec.Get("exec.agg").total_s;
  const double cold = rec.Get("replay.cold").total_s;
  // Hit-path fetch + unpin time (pool and replacer) over both passes, each
  // of which fetches every replayed page once.
  const double hit_total = rec.Get("buffer.fetch").total_s;
  const double hit_per_fetch = hit_total / std::max(1.0, 2.0 * t.fetches);
  const double cold_per_page = cold / std::max(1.0, pool.cold_pages);
  layers->Set("exec.pred.s", pred);
  layers->Set("exec.pred.tuples", t.tuples);
  layers->Set("exec.pred.selectivity", Ratio(t.matched, t.tuples));
  layers->Set("exec.agg.s", agg);
  layers->Set("exec.agg.rows", t.matched);
  layers->Set("exec.agg.groups", t.groups);
  layers->Set("buffer.fetch_s",
              hit_per_fetch * fetches + cold_per_page * physical_pages);
  // The chunk loop's own time: the ChunkProcessor pass minus its fetches
  // and minus the kernel time the second pass measured on the same pages.
  layers->Set("exec.chunk.self_s",
              std::max(0.0, chunk - hit_per_fetch * t.fetches - pred - agg));
}

// ---------------------------------------------------------------------------
// paper_tput and push_2tbl: assembled run + replay.

struct Assembled {
  exec::RunResult result;
  uint64_t bytes_moved = 0;
};

/// Database::Run for a kShared, sim-backend configuration, assembled from
/// the same public parts with timed decorators in every virtual seam.
Assembled AssembledRun(SimWorkload* w, SpanRecorder* rec, const Spans& ids) {
  exec::Database* db = w->db.get();
  const exec::RunConfig& config = w->config;
  db->env()->clock().Reset();
  db->env()->disk().Reset();

  auto page_policy = std::make_shared<TimedPagePolicy>(
      buffer::MakePagePolicy(config.policy, nullptr), rec, ids.replacer);
  buffer::BufferPool pool(db->disk_manager(),
                          page_policy->MakeReplacer(config.buffer.num_frames),
                          config.buffer);
  ssm::SsmOptions ssm_options = config.ssm;
  ssm_options.bufferpool_pages = config.buffer.num_frames;
  ssm_options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
  auto sharing = std::make_shared<TimedSharingPolicy>(
      ssm::MakeSharingPolicy(config.policy, ssm_options, nullptr), rec,
      ids.policy);
  ssm::ScanSharingManager manager(ssm_options, sharing, page_policy);
  ssm::IsmOptions ism_options = config.ism;
  if (ism_options.bufferpool_blocks == 0) {
    const uint64_t block_pages =
        std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
    ism_options.bufferpool_blocks =
        std::max<uint64_t>(1, config.buffer.num_frames / block_pages);
  }
  ssm::IndexScanSharingManager ism(ism_options);

  TimedIoBackend* backend_view = nullptr;
  std::unique_ptr<io::IoBackend> backend;
  std::unique_ptr<io::Prefetcher> prefetcher;
  if (config.io.prefetch_depth > 0) {
    auto timed = std::make_unique<TimedIoBackend>(
        std::make_unique<io::SimIoBackend>(db->disk_manager()), rec,
        ids.io_charge, ids.io_bytes);
    backend_view = timed.get();
    backend = std::move(timed);
    io::PrefetchOptions prefetch_options;
    prefetch_options.depth = config.io.prefetch_depth;
    prefetch_options.queue_bound = config.io.queue_bound;
    prefetcher = std::make_unique<io::Prefetcher>(
        backend.get(), &manager, &pool, config.buffer.prefetch_extent_pages,
        prefetch_options);
    pool.SetIoPipeline(prefetcher.get());
  }
  exec::StreamExecutor executor(db->env(), &pool, db->catalog(), &manager,
                                &ism, config.cost, config.mode, config.kernel,
                                nullptr);
  if (prefetcher != nullptr) executor.SetIoPipeline(prefetcher.get());
  auto run = executor.Run(w->streams, config.series_bucket, config.record_traces);
  if (!run.ok()) Die("assembled run", run.status());
  Assembled out;
  out.result = *std::move(run);
  out.bytes_moved = backend_view != nullptr ? backend_view->bytes_moved() : 0;
  return out;
}

/// The non-perturbation gate: the decorated run must reproduce the
/// untraced one in every counter and every answer.
bool SameRun(const exec::RunResult& a, const exec::RunResult& b,
             std::string* diff) {
  if (!scanshare::metrics::BitIdentical(a, b, diff)) return false;
  const auto& x = a.io;
  const auto& y = b.io;
  if (x.submitted != y.submitted || x.prefetch_hits != y.prefetch_hits ||
      x.sync_reads != y.sync_reads || x.queue_full != y.queue_full ||
      x.dropped_stale != y.dropped_stale ||
      x.reissue_suppressed != y.reissue_suppressed ||
      a.buffer.prefetch_hits != b.buffer.prefetch_hits) {
    *diff = "io pipeline stats";
    return false;
  }
  if (a.streams.size() != b.streams.size()) {
    *diff = "stream count";
    return false;
  }
  for (size_t s = 0; s < a.streams.size(); ++s) {
    const auto& qa = a.streams[s].queries;
    const auto& qb = b.streams[s].queries;
    if (qa.size() != qb.size()) {
      *diff = "query count";
      return false;
    }
    for (size_t q = 0; q < qa.size(); ++q) {
      if (!scanshare::metrics::BitIdentical(qa[q].output, qb[q].output, diff)) {
        return false;
      }
    }
  }
  return true;
}

void SetDiskLayers(const sim::DiskStats& d, double units, Layers* layers) {
  layers->Set("disk.requests", static_cast<double>(d.requests) / units);
  layers->Set("disk.seek_ratio", Ratio(static_cast<double>(d.seeks),
                                       static_cast<double>(d.requests)));
  layers->Set("disk.busy_s", static_cast<double>(d.busy_micros) / 1e6 / units);
  layers->Set("disk.queue_wait_s",
              static_cast<double>(d.queue_wait_micros) / 1e6 / units);
}

void SetBufferCounters(const buffer::BufferPoolStats& b, double units,
                       Layers* layers) {
  layers->Set("buffer.fetches", static_cast<double>(b.logical_reads) / units);
  layers->Set("buffer.hit_ratio", Ratio(static_cast<double>(b.hits),
                                        static_cast<double>(b.logical_reads)));
  layers->Set("buffer.evictions", static_cast<double>(b.evictions) / units);
}

void SetSsmCounters(const ssm::SsmStats& s, double units, Layers* layers) {
  layers->Set("ssm.regroups", static_cast<double>(s.regroups) / units);
  layers->Set("ssm.scans_started", static_cast<double>(s.scans_started) / units);
  layers->Set("ssm.join_ratio", Ratio(static_cast<double>(s.scans_joined),
                                      static_cast<double>(s.scans_started)));
  layers->Set("ssm.throttle_events",
              static_cast<double>(s.throttle_events) / units);
  layers->Set("ssm.throttle_wait_s",
              static_cast<double>(s.total_wait) / 1e6 / units);
  layers->Set("ssm.cap_suppressions",
              static_cast<double>(s.cap_suppressions) / units);
}

/// Alternates untraced Database::Run and the assembled, decorated run
/// until `seconds` pass (at least twice each); returns median walls.
void MeasureSimLayers(SimWorkload* w, double seconds, SpanRecorder* rec,
                      const Spans& ids, Layers* layers, Report* report,
                      double* untraced_s, double* traced_s) {
  std::vector<double> untraced, traced;
  exec::RunResult reference;
  Assembled last;
  const Clock::time_point start = Clock::now();
  while (traced.size() < 2 || SecondsSince(start) < seconds) {
    {
      const Clock::time_point t0 = Clock::now();
      auto run = w->db->Run(w->config, w->streams);
      untraced.push_back(SecondsSince(t0));
      if (!run.ok()) Die("Database::Run", run.status());
      reference = *std::move(run);
    }
    {
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(rec, ids.call);
        last = AssembledRun(w, rec, ids);
      }
      traced.push_back(SecondsSince(t0));
    }
    std::string diff;
    const bool same = SameRun(last.result, reference, &diff);
    if (!same) report->Note("non-perturbation gate FAILED: " + diff);
    report->Check(same, !same);
  }
  report->Note("non-perturbation gate: " + std::to_string(traced.size()) +
               " decorated runs vs Database::Run, makespan, DiskStats, "
               "BufferPoolStats, SsmStats, IoPipelineStats and outputs compared");

  const double units = static_cast<double>(traced.size());
  const exec::RunResult& r = last.result;
  const double run_total = rec->Get("traced.call").total_s / units;
  const double policy = rec->Get("ssm.policy").total_s / units;
  const double replacer = rec->Get("buffer.replacer").total_s / units;
  const double charge = rec->Get("io.charge").total_s / units;
  const double bytes = rec->Get("io.bytes").total_s / units;
  layers->Set("ssm.policy_s", policy);
  layers->Set("buffer.replacer_s", replacer);
  layers->Set("io.charge_s", charge);
  layers->Set("io.bytes_s", bytes);
  layers->Set("io.bytes_moved", static_cast<double>(last.bytes_moved));
  layers->Set("exec.sched.steps", static_cast<double>(r.ssm.updates));
  SetBufferCounters(r.buffer, 1.0, layers);
  layers->Set("run.physical_pages", static_cast<double>(r.buffer.physical_pages));
  SetSsmCounters(r.ssm, 1.0, layers);
  SetDiskLayers(r.disk, 1.0, layers);
  layers->Set("io.submitted", static_cast<double>(r.io.submitted));
  layers->Set("io.prefetch_hits", static_cast<double>(r.io.prefetch_hits));
  layers->Set("io.useful_ratio", Ratio(static_cast<double>(r.io.prefetch_hits),
                                       static_cast<double>(r.io.submitted)));
  layers->Set("io.dropped_stale", static_cast<double>(r.io.dropped_stale));
  layers->Set("io.reissue_suppressed",
              static_cast<double>(r.io.reissue_suppressed));
  layers->Set("io.sync_reads", static_cast<double>(r.io.sync_reads));
  // What the spans inside the run did not cover: executor, pool, kernels.
  layers->Set("run.wall_s", run_total);
  layers->Set("run.unspanned_s", run_total - policy - replacer - charge - bytes);
  *untraced_s = Median(untraced);
  *traced_s = Median(traced);
}

// ---------------------------------------------------------------------------
// Assembling the report.

/// Fits the replay estimates into `unspanned`, the part of one traced unit
/// no span inside the call covered. The replay runs the kernels outside the
/// engine's interleaving, so it can cost more than they did in the run; it
/// is then scaled down to fit, keeping its proportions. What the replay does
/// not account for is the scheduler's: the executor or service event loop
/// and, where the engine assembles itself, the SSM and admission.
void FitReplay(double unspanned, Layers* layers, Report* report) {
  static const char* kReplayed[] = {"exec.pred.s", "exec.agg.s",
                                    "exec.chunk.self_s", "buffer.fetch_s"};
  double sum = 0.0;
  for (const char* name : kReplayed) sum += layers->Get(name);
  if (sum > unspanned && sum > 0.0) {
    const double f = std::max(0.0, unspanned) / sum;
    for (const char* name : kReplayed) layers->Set(name, layers->Get(name) * f);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "replay estimates (%.6f s) exceed the run's unspanned time "
                  "(%.6f s): scaled by %.3f",
                  sum, unspanned, f);
    report->Note(line);
    sum = std::max(0.0, unspanned);
  }
  layers->Set("exec.sched.self_s", std::max(0.0, unspanned - sum));
}

void SetOverhead(double untraced_s, double traced_s, SpanRecorder* rec,
                 Layers* layers) {
  layers->Set("obs.trace_overhead_frac", Ratio(traced_s - untraced_s, untraced_s));
  layers->Set("obs.events", static_cast<double>(rec->events()));
  layers->Set("obs.dropped", static_cast<double>(rec->dropped()));
}

/// The unattributed remainder of one traced unit: its wall time minus every
/// layer's self time. Printed, and reported as obs.unattributed_s.
void Attribute(double traced_s, Layers* layers, Report* report) {
  static const char* kSelf[] = {"exec.pred.s",      "exec.agg.s",
                                "exec.agg.merge_s", "exec.chunk.self_s",
                                "exec.sched.self_s", "buffer.fetch_s",
                                "buffer.replacer_s", "ssm.policy_s",
                                "io.charge_s",       "io.bytes_s"};
  double sum = 0.0;
  char line[160];
  report->Note("self time per unit (traced wall " + std::to_string(traced_s) + " s):");
  for (const char* name : kSelf) {
    const double v = layers->Get(name);
    sum += v;
    std::snprintf(line, sizeof(line), "  %-20s %10.6f s  %5.1f %%", name, v,
                  100.0 * Ratio(v, traced_s));
    report->Note(line);
  }
  const double rest = traced_s - sum;
  std::snprintf(line, sizeof(line), "  %-20s %10.6f s  %5.1f %%", "unattributed",
                rest, 100.0 * Ratio(rest, traced_s));
  report->Note(line);
  if (rest < 0.0) {
    report->Note("  (negative: the replay estimates exceed the traced run's "
                 "unspanned time)");
  }
  layers->Set("obs.unattributed_s", rest);
}

Report SimPerLayer(const std::string& name, uint64_t seed, double seconds,
                   SpanRecorder* rec, const Spans& ids) {
  Report report;
  Layers layers;
  const SetupTiming setup = TimeSetup(name, seed, kSetupRepeats);
  layers.Set("setup.generate_s", setup.setup_s);
  layers.Set("setup.pages", static_cast<double>(setup.pages));
  SimWorkload w = name == "paper_tput" ? BuildPaperTput(seed) : BuildPush2Tbl(seed);
  auto refs = ComputeSimReferences(&w);
  if (!refs.ok()) Die("reference runs", refs.status());

  double untraced_s = 0.0, traced_s = 0.0;
  MeasureSimLayers(&w, seconds, rec, ids, &layers, &report, &untraced_s,
                   &traced_s);

  // One replay of every query of the stream set: one unit's worth of work.
  ReplayPool replay(w.db.get(), rec, ids);
  ReplayTotals totals;
  // Round j: the j-th query of every stream, run side by side.
  for (size_t j = 0;; ++j) {
    std::vector<ReplayItem> round;
    for (size_t s = 0; s < w.streams.size(); ++s) {
      if (j < w.streams[s].queries.size()) {
        round.push_back({&w.streams[s].queries[j], &refs->outputs[s][j]});
      }
    }
    if (round.empty()) break;
    ReplayRound(*w.db, &replay.timed, round, rec, ids, &totals, &report);
  }
  SetReplayLayers(*rec, replay, totals, layers.Get("buffer.fetches"),
                  layers.Get("run.physical_pages"), &layers);
  FitReplay(layers.Get("run.unspanned_s"), &layers, &report);
  SetOverhead(untraced_s, traced_s, rec, &layers);
  Attribute(layers.Get("run.wall_s"), &layers, &report);
  layers.Emit(&report);
  return report;
}

// ---------------------------------------------------------------------------
// service_open: spans around ScanService::Run, its counters, and a replay of
// its job mix.

Report ServicePerLayer(uint64_t seed, double seconds, SpanRecorder* rec,
                       const Spans& ids) {
  Report report;
  Layers layers;
  const SetupTiming setup = TimeSetup("service_open", seed, kSetupRepeats);
  layers.Set("setup.generate_s", setup.setup_s);
  layers.Set("setup.pages", static_cast<double>(setup.pages));
  ServiceWorkload w = BuildServiceOpen(seed, 0);
  auto refs = ComputeServiceReferences(&w);
  if (!refs.ok()) Die("service reference runs", refs.status());

  service::ScanService svc(w.db.get());
  std::vector<double> untraced, traced;
  service::ServiceResult last;
  const Clock::time_point start = Clock::now();
  while (traced.empty() || SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    auto plain = svc.Run(w.options, w.tables);
    untraced.push_back(SecondsSince(t0));
    if (!plain.ok()) Die("ScanService::Run", plain.status());
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(rec, ids.call);
      auto run = svc.Run(w.options, w.tables);
      if (!run.ok()) Die("ScanService::Run", run.status());
      last = *std::move(run);
    }
    traced.push_back(SecondsSince(t1));
    CheckServiceRun(last, *refs, &report);
  }
  const service::ServiceResult& r = last;
  layers.Set("exec.sched.steps", static_cast<double>(r.steps));
  SetBufferCounters(r.buffer, 1.0, &layers);
  SetSsmCounters(r.ssm, 1.0, &layers);
  SetDiskLayers(r.disk, 1.0, &layers);
  layers.Set("service.admitted", static_cast<double>(r.admission.admitted));
  layers.Set("service.queued", static_cast<double>(r.admission.queued));
  layers.Set("service.shed", static_cast<double>(r.admission.shed));
  layers.Set("service.max_running", static_cast<double>(r.admission.max_running));
  std::vector<double> waits;
  for (const auto& j : r.jobs) {
    if (!j.shed) waits.push_back(static_cast<double>(j.QueueWait()) / 1e6);
  }
  std::string label;
  layers.Set("service.queue_wait_p50_s", Median(waits));
  layers.Set("service.queue_wait_tail_s", TailValue(waits, &label));
  report.Note("service.queue_wait_tail_s is " + label);

  // Replay of the job mix (table-scan jobs; index scans are not replayed).
  const std::vector<service::JobArrival> schedule = service::GenerateArrivalSchedule(
      w.options.arrival, w.options.workload, w.tables);
  ReplayPool replay(w.db.get(), rec, ids);
  ReplayTotals totals;
  // Jobs in arrival order, as many side by side as ran at once at most.
  const size_t width = std::max<size_t>(1, r.admission.max_running);
  for (size_t i = 0; i < schedule.size(); i += width) {
    std::vector<ReplayItem> round;
    for (size_t k = i; k < std::min(schedule.size(), i + width); ++k) {
      round.push_back({&schedule[k].query, &(*refs)[k]});
    }
    ReplayRound(*w.db, &replay.timed, round, rec, ids, &totals, &report);
  }
  report.Note("replayed " + std::to_string(totals.replayed) + " table-scan jobs; " +
              std::to_string(totals.skipped) + " index-scan jobs not replayed");
  SetReplayLayers(*rec, replay, totals,
                  static_cast<double>(r.buffer.logical_reads),
                  static_cast<double>(r.buffer.physical_pages), &layers);
  // ScanService builds its SSM and pool internally: SSM, admission and the
  // event loop stay together in the scheduler's remainder.
  const double unit_s = rec->Get("traced.call").total_s /
                        static_cast<double>(traced.size());
  FitReplay(unit_s, &layers, &report);
  report.Note("ssm.policy_s is inside exec.sched.self_s and buffer.replacer_s "
              "inside buffer.fetch_s here: ScanService assembles its SSM and "
              "pool internally");
  SetOverhead(Median(untraced), Median(traced), rec, &layers);
  Attribute(unit_s, &layers, &report);
  layers.Emit(&report);
  return report;
}

// ---------------------------------------------------------------------------
// parallel_fit: spans around RunQueryParallel, counters, the morsel merge
// replay and the jobs=1 scaling baseline.

Report ParallelPerLayer(uint64_t seed, double seconds, SpanRecorder* rec,
                        const Spans& ids) {
  Report report;
  Layers layers;
  const SetupTiming setup = TimeSetup("parallel_fit", seed, kSetupRepeats);
  layers.Set("setup.generate_s", setup.setup_s);
  layers.Set("setup.pages", static_cast<double>(setup.pages));
  ParallelWorkload w = BuildParallelFit(seed);

  std::vector<exec::QueryOutput> outputs;
  exec::ParallelScanOptions one = w.options;
  one.jobs = 1;
  one.partitions = 0;
  std::vector<double> pair_untraced, pair_traced, pair_single;
  buffer::BufferPoolStats buf;
  ssm::SsmStats ssm_stats;
  sim::DiskStats disk;
  double morsels = 0.0;
  double pairs = 0.0;
  const Clock::time_point start = Clock::now();
  while (pairs < 5.0 || SecondsSince(start) < seconds) {
    double u = 0.0, t = 0.0, s1 = 0.0;
    for (size_t k = 0; k < w.queries.size(); ++k) {
      Clock::time_point t0 = Clock::now();
      auto plain = exec::RunQueryParallel(w.db.get(), w.config, w.queries[k], w.options);
      u += SecondsSince(t0);
      if (!plain.ok()) Die("RunQueryParallel", plain.status());
      const auto spanned = [&](const exec::ParallelScanOptions& o, int span) {
        ScopedSpan scope(rec, span);
        return exec::RunQueryParallel(w.db.get(), w.config, w.queries[k], o);
      };
      t0 = Clock::now();
      auto run = spanned(w.options, ids.call);
      t += SecondsSince(t0);
      if (!run.ok()) Die("RunQueryParallel", run.status());
      t0 = Clock::now();
      auto single = spanned(one, ids.scaling);
      s1 += SecondsSince(t0);
      if (!single.ok()) Die("RunQueryParallel jobs=1", single.status());
      std::string diff;
      const bool same = scanshare::metrics::BitIdentical(run->output, single->output, &diff);
      if (!same) report.Note(w.queries[k].name + " jobs=N vs jobs=1: " + diff);
      report.Check(same, !same);
      report.exact += same ? 1 : 0;
      if (outputs.size() < w.queries.size()) outputs.push_back(run->output);
      const auto& b = run->buffer;
      buf.logical_reads += b.logical_reads;
      buf.hits += b.hits;
      buf.evictions += b.evictions;
      buf.physical_pages += b.physical_pages;
      ssm_stats.regroups += run->ssm.regroups;
      ssm_stats.scans_started += run->ssm.scans_started;
      ssm_stats.scans_joined += run->ssm.scans_joined;
      ssm_stats.throttle_events += run->ssm.throttle_events;
      ssm_stats.total_wait += run->ssm.total_wait;
      ssm_stats.cap_suppressions += run->ssm.cap_suppressions;
      ssm_stats.updates += run->ssm.updates;
      const auto& d = w.db->env()->disk().stats();
      disk.requests += d.requests;
      disk.seeks += d.seeks;
      disk.busy_micros += d.busy_micros;
      disk.queue_wait_micros += d.queue_wait_micros;
      morsels += static_cast<double>(run->morsels);
    }
    pair_untraced.push_back(u);
    pair_traced.push_back(t);
    pair_single.push_back(s1);
    pairs += 1.0;
  }
  SetBufferCounters(buf, pairs, &layers);
  SetSsmCounters(ssm_stats, pairs, &layers);
  SetDiskLayers(disk, pairs, &layers);
  layers.Set("exec.sched.steps", static_cast<double>(ssm_stats.updates) / pairs);
  layers.Set("parallel.morsels", morsels / pairs);
  const double traced_s = Median(pair_traced);
  layers.Set("parallel.scaling", Ratio(Median(pair_single), traced_s));

  // Kernel replay of the pair, then the morsel merge replay: per-morsel
  // partials folded in canonical order must rebuild the parallel answer.
  ReplayPool replay(w.db.get(), rec, ids);
  ReplayTotals totals;
  std::vector<exec::QueryOutput> refs;
  for (const exec::QuerySpec& q : w.queries) {
    auto ref = ReferenceOutput(w.db.get(), w.config, q);
    if (!ref.ok()) Die("reference run", ref.status());
    refs.push_back(*std::move(ref));
  }
  for (size_t k = 0; k < w.queries.size(); ++k) {
    ReplayRound(*w.db, &replay.timed, {{&w.queries[k], &refs[k]}}, rec, ids,
                &totals, &report);
  }
  SetReplayLayers(*rec, replay, totals, static_cast<double>(buf.logical_reads) / pairs,
                  static_cast<double>(buf.physical_pages) / pairs, &layers);
  for (size_t k = 0; k < w.queries.size(); ++k) {
    exec::QuerySpec spec = w.queries[k];
    const auto* table = *w.db->catalog()->GetTable(spec.table);
    if (Status s = spec.predicate.Bind(table->schema); !s.ok()) Die("bind", s);
    exec::Aggregator prototype(spec.aggs, spec.group_by);
    if (Status s = prototype.Bind(table->schema); !s.ok()) Die("bind", s);
    sim::PageId first = 0, end = 0;
    const uint64_t extent = w.config.buffer.prefetch_extent_pages;
    exec::ResolveScanRange(*table, spec, extent, &first, &end);
    const uint64_t morsel = std::max<uint64_t>(1, w.options.morsel_extents) * extent;
    std::vector<exec::AggPartial> partials;
    exec::ScanMetrics metrics;
    const exec::CostModel cost;
    {
      ScopedSpan span(rec, ids.replay_merge);
      for (sim::PageId p = first; p < end; p += morsel) {
        exec::Aggregator agg = prototype;
        exec::ChunkProcessor chunks(&replay.timed, table, &cost, &spec.predicate,
                                    &agg, &metrics);
        auto e = chunks.ProcessRange(p, std::min<sim::PageId>(p + morsel, end), 0,
                                     buffer::PagePriority::kNormal);
        if (!e.ok()) Die("merge replay", e.status());
        partials.push_back(agg.DrainPartial());
      }
    }
    exec::Aggregator merged = prototype;
    {
      ScopedSpan span(rec, ids.merge);
      for (const exec::AggPartial& partial : partials) merged.AbsorbPartial(partial);
    }
    std::string diff;
    const bool same = scanshare::metrics::BitIdentical(
        merged.Finish(metrics.tuples_scanned), outputs[k], &diff);
    if (!same) report.Note("merge replay of " + spec.name + " differs: " + diff);
    report.Check(same, !same);
    report.exact += same ? 1 : 0;
  }
  layers.Set("exec.agg.merge_s", rec->Get("exec.agg.merge").total_s);
  // Kernel work runs on `jobs` workers at once: the wall time it takes in a
  // pair is the serial replay divided by the scaling the run achieved. The
  // merge runs on one thread after the workers join.
  const double scaling = std::max(1.0, layers.Get("parallel.scaling"));
  for (const char* name : {"exec.pred.s", "exec.agg.s", "exec.chunk.self_s",
                           "buffer.fetch_s"}) {
    layers.Set(name, layers.Get(name) / scaling);
  }
  const double unit_s = rec->Get("traced.call").total_s / pairs;
  FitReplay(unit_s - layers.Get("exec.agg.merge_s"), &layers, &report);
  SetOverhead(Median(pair_untraced), traced_s, rec, &layers);
  Attribute(unit_s, &layers, &report);
  layers.Emit(&report);
  return report;
}

}  // namespace

Report MeasurePerLayer(const std::string& name, uint64_t seed, double seconds,
                       const std::string& spans_path) {
  SpanRecorder rec;
  const Spans ids(&rec);
  Report report;
  if (name == "service_open") {
    report = ServicePerLayer(seed, seconds, &rec, ids);
  } else if (name == "parallel_fit") {
    report = ParallelPerLayer(seed, seconds, &rec, ids);
  } else {
    report = SimPerLayer(name, seed, seconds, &rec, ids);
  }
  report.Note("span totals (count, total s, self s):");
  for (const SpanRecorder::Total& t : rec.totals()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-18s %10llu %12.6f %12.6f", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    report.Note(line);
  }
  if (!spans_path.empty()) {
    if (rec.WriteCsv(spans_path)) {
      report.Note("spans written to " + spans_path);
    } else {
      report.Note("could not write spans to " + spans_path);
    }
  }
  return report;
}

}  // namespace scanbench
