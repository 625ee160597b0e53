// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// PartitionedBufferPool under concurrency: N workers fetch/unpin disjoint
// and overlapping page sets while the pool's cross-structure invariants
// are audited, plus the partitions=1 parity contract against a plain
// BufferPool. Runs under the TSan preset in CI.

#include "buffer/partitioned_buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "testutil.h"

namespace scanshare::buffer {
namespace {

constexpr uint64_t kDiskPages = 256;
constexpr uint64_t kExtent = 4;

class ConcurrentBufferPoolTest : public ::testing::Test {
 protected:
  ConcurrentBufferPoolTest() : dm_(&env_) {
    EXPECT_TRUE(dm_.AllocateContiguous(kDiskPages).ok());
    for (sim::PageId p = 0; p < kDiskPages; ++p) {
      auto data = dm_.MutablePageData(p);
      (*data)[0] = static_cast<uint8_t>(p & 0xff);
    }
  }

  static ReplacementPolicyFactory LruFactory() {
    return [](size_t frames) -> std::unique_ptr<ReplacementPolicy> {
      return std::make_unique<PriorityLruReplacer>(frames);
    };
  }

  std::unique_ptr<PartitionedBufferPool> MakePool(size_t partitions,
                                                  size_t frames,
                                                  uint64_t extent = kExtent) {
    PartitionedBufferPoolOptions o;
    o.partitions = partitions;
    o.pool.num_frames = frames;
    o.pool.prefetch_extent_pages = extent;
    return std::make_unique<PartitionedBufferPool>(&dm_, LruFactory(), o);
  }

  sim::Env env_;
  storage::DiskManager dm_;
};

TEST_F(ConcurrentBufferPoolTest, PartitionKeyIsExtentAligned) {
  auto pool = MakePool(4, 64);
  EXPECT_EQ(pool->partitions(), 4u);
  EXPECT_EQ(pool->num_frames(), 64u);
  // All pages of one extent land in the same partition.
  for (sim::PageId base = 0; base < kDiskPages; base += kExtent) {
    const size_t owner = pool->PartitionOf(base);
    for (sim::PageId p = base; p < base + kExtent; ++p) {
      EXPECT_EQ(pool->PartitionOf(p), owner) << "page " << p;
    }
  }
  // Consecutive extents rotate over partitions.
  EXPECT_NE(pool->PartitionOf(0), pool->PartitionOf(kExtent));
}

TEST_F(ConcurrentBufferPoolTest, PartitionCountClampedToFrameBudget) {
  // 16 frames at extent 4 support at most 16 / (2*4) = 2 partitions.
  auto pool = MakePool(/*partitions=*/8, /*frames=*/16);
  EXPECT_EQ(pool->partitions(), 2u);
  EXPECT_EQ(pool->num_frames(), 16u);
  // Degenerate budget floors at one partition.
  auto tiny = MakePool(/*partitions=*/8, /*frames=*/4);
  EXPECT_EQ(tiny->partitions(), 1u);
}

TEST_F(ConcurrentBufferPoolTest, SinglePartitionMatchesPlainBufferPool) {
  // partitions=1 is the compatibility mode: same fetch sequence, same
  // stats as an unpartitioned pool with identical geometry.
  auto partitioned = MakePool(1, 16);
  BufferPoolOptions o;
  o.num_frames = 16;
  o.prefetch_extent_pages = kExtent;
  BufferPool plain(&dm_, std::make_unique<PriorityLruReplacer>(16), o);

  sim::Micros now = 0;
  for (int round = 0; round < 3; ++round) {
    for (sim::PageId p = 0; p < 96; ++p, now += 10) {
      auto a = partitioned->FetchPage(p, now, 0, kDiskPages);
      auto b = plain.FetchPage(p, now, 0, kDiskPages);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->hit, b->hit) << "page " << p;
      EXPECT_EQ(a->data[0], b->data[0]) << "page " << p;
      ASSERT_TRUE(partitioned->UnpinPage(p, PagePriority::kNormal).ok());
      ASSERT_TRUE(plain.UnpinPage(p, PagePriority::kNormal).ok());
    }
  }
  const BufferPoolStats sa = partitioned->stats();
  const BufferPoolStats& sb = plain.stats();
  EXPECT_EQ(sa.logical_reads, sb.logical_reads);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.physical_pages, sb.physical_pages);
  EXPECT_EQ(sa.io_requests, sb.io_requests);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_TRUE(partitioned->CheckInvariants().ok());
}

TEST_F(ConcurrentBufferPoolTest, ConcurrentFetchUnpinKeepsInvariants) {
  // 8 workers sweep interleaved page sequences through a pool small enough
  // to force constant eviction, with the invariant auditor run at the end
  // (and implicitly per mutation in SCANSHARE_AUDIT builds).
  constexpr size_t kWorkers = 8;
  auto pool = MakePool(4, 64);
  testutil::ConcurrencyWitness witness;

  ThreadPool workers(kWorkers);
  std::vector<uint64_t> fetched(kWorkers, 0);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    witness.Enter();
    // Each worker walks the whole disk from a different phase so extents
    // contend across partitions.
    for (uint64_t i = 0; i < kDiskPages * 2; ++i) {
      const sim::PageId p =
          (w * (kDiskPages / kWorkers) + i * kExtent + (i % kExtent)) %
          kDiskPages;
      auto r = pool->FetchPage(p, i, 0, kDiskPages);
      if (!r.ok()) continue;  // Transient frame exhaustion is legal.
      EXPECT_EQ(r->data[0], static_cast<uint8_t>(p & 0xff));
      EXPECT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
      ++fetched[w];
    }
    witness.Exit();
  });

  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "concurrent fetch/unpin", witness.max_concurrent()));
  uint64_t total = 0;
  for (uint64_t f : fetched) total += f;
  EXPECT_GT(total, 0u);
  const BufferPoolStats stats = pool->stats();
  EXPECT_EQ(stats.logical_reads, total);
  EXPECT_EQ(stats.hits + stats.misses, total);
  ASSERT_TRUE(pool->CheckInvariants().ok());
  // Everything unpinned: the pool must be flushable.
  EXPECT_TRUE(pool->FlushAll().ok());
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

TEST_F(ConcurrentBufferPoolTest, ConcurrentEvictionPressure) {
  // A pool with barely more frames than partitions*2*extent: every fetch
  // beyond the first few evicts. The point is exercising GetVictimFrame /
  // InstallFromBuffer / ReturnFrames under contention, not hit rates.
  constexpr size_t kWorkers = 4;
  auto pool = MakePool(2, 16);
  ASSERT_EQ(pool->partitions(), 2u);
  ThreadPool workers(kWorkers);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    for (uint64_t i = 0; i < kDiskPages; ++i) {
      const sim::PageId p = (i * 7 + w * 13) % kDiskPages;
      auto r = pool->FetchPage(p, i, 0, kDiskPages);
      if (!r.ok()) continue;
      EXPECT_TRUE(pool->UnpinPage(p, PagePriority::kLow).ok());
    }
  });
  const BufferPoolStats stats = pool->stats();
  EXPECT_GT(stats.evictions, 0u);
  ASSERT_TRUE(pool->CheckInvariants().ok());
}

TEST_F(ConcurrentBufferPoolTest, StatsSnapshotsAreNeverTorn) {
  // Regression: stats() used to lock shards one at a time, so a concurrent
  // extent install could land its logical_read in an already-summed shard
  // and its miss in a not-yet-summed one (or vice versa), breaking the
  // hits + misses == logical_reads identity on exactly the snapshots taken
  // mid-install. Snapshot continuously while workers hammer the pool and
  // assert the identity on EVERY snapshot.
  constexpr size_t kWorkers = 4;
  auto pool = MakePool(4, 64);
  ASSERT_EQ(pool->partitions(), 4u);
  std::atomic<size_t> running{kWorkers};
  testutil::ConcurrencyWitness witness;

  ThreadPool workers(kWorkers + 1);
  uint64_t snapshots = 0;
  workers.ParallelFor(kWorkers + 1, [&](size_t w) {
    if (w == kWorkers) {
      // Snapshotter: every aggregate cut must satisfy the identity, and
      // the cross-structure audit must hold at the same instant.
      while (running.load(std::memory_order_acquire) > 0) {
        const BufferPoolStats s = pool->stats();
        EXPECT_EQ(s.hits + s.misses, s.logical_reads)
            << "torn snapshot: hits=" << s.hits << " misses=" << s.misses
            << " logical_reads=" << s.logical_reads;
        EXPECT_TRUE(pool->CheckInvariants().ok());
        ++snapshots;
      }
      return;
    }
    witness.Enter();
    for (uint64_t i = 0; i < kDiskPages * 4; ++i) {
      const sim::PageId p = (w * 61 + i * kExtent + (i % kExtent)) % kDiskPages;
      auto r = pool->FetchPage(p, i, 0, kDiskPages);
      if (!r.ok()) continue;
      EXPECT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
    }
    witness.Exit();
    running.fetch_sub(1, std::memory_order_release);
  });

  EXPECT_GT(snapshots, 0u);
  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "stats snapshot race", witness.max_concurrent()));
  const BufferPoolStats final_stats = pool->stats();
  EXPECT_EQ(final_stats.hits + final_stats.misses, final_stats.logical_reads);
  EXPECT_EQ(final_stats.partitions, 4u);
  EXPECT_EQ(final_stats.partitions_requested, 4u);
}

TEST_F(ConcurrentBufferPoolTest, PartitionClampIsSurfaced) {
  // 16 frames at extent 4 clamp a request for 8 partitions down to 2. The
  // clamp must be visible in the accessors, the aggregated stats, and (on
  // tracer attach) as a kPartitionClamp event — never silent.
  auto pool = MakePool(/*partitions=*/8, /*frames=*/16);
  EXPECT_EQ(pool->partitions(), 2u);
  EXPECT_EQ(pool->requested_partitions(), 8u);
  EXPECT_TRUE(pool->clamped());
  const BufferPoolStats stats = pool->stats();
  EXPECT_EQ(stats.partitions, 2u);
  EXPECT_EQ(stats.partitions_requested, 8u);

  obs::Tracer tracer(/*capacity=*/64);
  pool->SetTracer(&tracer);
  ASSERT_EQ(tracer.count(obs::EventKind::kPartitionClamp), 1u);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].arg0, 2u);
  EXPECT_EQ(tracer.events()[0].arg1, 8u);
  pool->SetTracer(nullptr);

  // An unclamped pool emits nothing.
  auto fits = MakePool(/*partitions=*/2, /*frames=*/64);
  EXPECT_FALSE(fits->clamped());
  EXPECT_EQ(fits->requested_partitions(), 2u);
  obs::Tracer quiet(/*capacity=*/64);
  fits->SetTracer(&quiet);
  EXPECT_EQ(quiet.count(obs::EventKind::kPartitionClamp), 0u);
  fits->SetTracer(nullptr);

  // A plain (unpartitioned) BufferPool reports the 1/1 defaults.
  BufferPoolOptions o;
  o.num_frames = 16;
  o.prefetch_extent_pages = kExtent;
  BufferPool plain(&dm_, std::make_unique<PriorityLruReplacer>(16), o);
  EXPECT_EQ(plain.stats().partitions, 1u);
  EXPECT_EQ(plain.stats().partitions_requested, 1u);
}

}  // namespace
}  // namespace scanshare::buffer
