#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <utility>

#include "common/thread_pool.h"
#include "exec/scan_ops.h"
#include "storage/page.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanshare::testutil {

std::unique_ptr<exec::Database> MakeLineitemDb(uint64_t pages, uint64_t seed,
                                               const std::string& table) {
  auto db = std::make_unique<exec::Database>();
  auto info = workload::GenerateLineitem(
      db->catalog(), table, workload::LineitemRowsForPages(pages), seed);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  return db;
}

exec::Database* SharedLineitemDb(uint64_t pages, uint64_t seed) {
  // One leaked instance per geometry, shared across all tests of the
  // binary. The map itself is also leaked: tests are single-threaded at
  // setup time and the process exits through gtest anyway.
  static auto* instances =
      new std::map<std::pair<uint64_t, uint64_t>, exec::Database*>();
  auto key = std::make_pair(pages, seed);
  auto it = instances->find(key);
  if (it == instances->end()) {
    it = instances->emplace(key, MakeLineitemDb(pages, seed).release()).first;
  }
  return it->second;
}

exec::RunConfig MakeRunConfig(exec::ScanMode mode, size_t frames,
                              uint64_t extent) {
  exec::RunConfig c;
  c.mode = mode;
  c.buffer.num_frames = frames;
  c.buffer.prefetch_extent_pages = extent;
  c.series_bucket = sim::Millis(250);
  return c;
}

std::vector<exec::StreamSpec> StaggeredQ1Q6(const std::string& table,
                                            sim::Micros stagger) {
  std::vector<exec::StreamSpec> streams(2);
  streams[0].queries.push_back(workload::MakeQ1Like(table));
  streams[1].queries.push_back(workload::MakeQ6Like(table));
  streams[1].start_delay = stagger;
  return streams;
}

exec::QueryOutput InterpretQuery(exec::Database* db, exec::QuerySpec query,
                                 uint64_t extent_pages) {
  auto table = db->catalog()->GetTable(query.table);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return exec::QueryOutput{};
  const storage::Schema& schema = (*table)->schema;
  exec::Aggregator agg(query.aggs, query.group_by);
  const Status bound = query.predicate.Bind(schema);
  EXPECT_TRUE(bound.ok()) << bound.ToString();
  const Status agg_bound = agg.Bind(schema);
  EXPECT_TRUE(agg_bound.ok()) << agg_bound.ToString();

  sim::PageId first = 0;
  sim::PageId end = 0;
  exec::ResolveScanRange(**table, query, extent_pages, &first, &end);
  storage::DiskManager* dm = db->disk_manager();
  uint64_t scanned = 0;
  for (sim::PageId p = first; p < end; ++p) {
    auto bytes = dm->PageData(p);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (!bytes.ok()) break;
    const storage::Page view(const_cast<uint8_t*>(*bytes), dm->page_size());
    const uint16_t count = view.tuple_count();
    for (uint16_t slot = 0; slot < count; ++slot) {
      const uint8_t* tuple = view.TupleDataUnchecked(slot);
      if (query.predicate.Eval(schema, tuple)) agg.Consume(schema, tuple);
    }
    scanned += count;
  }
  return agg.Finish(scanned);
}

int ConcurrencyWitness::Enter() {
  const int inside = current_.fetch_add(1) + 1;
  int seen = max_.load();
  while (inside > seen && !max_.compare_exchange_weak(seen, inside)) {
  }
  return inside;
}

void ConcurrencyWitness::Exit() { current_.fetch_sub(1); }

bool OverlapObservedOrSingleCoreNoted(const char* what, int max_observed) {
  if (max_observed >= 2) return true;
  if (ThreadPool::HardwareConcurrency() <= 1) {
    // Degrade *loudly*: the parallel aspect of this test did not really
    // run, and a reader of the test log must be able to see that.
    std::fprintf(stderr,
                 "[testutil] NOTICE: %s observed no thread overlap on a "
                 "hardware_concurrency==1 host; cross-thread interleaving "
                 "was NOT exercised (functional checks still ran)\n",
                 what);
    testing::Test::RecordProperty("degraded_single_core", 1);
    return true;
  }
  return false;
}

}  // namespace scanshare::testutil
