#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "buffer/page_guard.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"

namespace scanshare::buffer {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : dm_(&env_) {
    // 64 disk pages to play with.
    EXPECT_TRUE(dm_.AllocateContiguous(64).ok());
    // Tag each page's first byte with its id for content checks.
    for (sim::PageId p = 0; p < 64; ++p) {
      auto data = dm_.MutablePageData(p);
      (*data)[0] = static_cast<uint8_t>(p);
    }
  }

  std::unique_ptr<BufferPool> MakePool(size_t frames, uint64_t extent = 4,
                                       bool priority_policy = false) {
    BufferPoolOptions o;
    o.num_frames = frames;
    o.prefetch_extent_pages = extent;
    std::unique_ptr<ReplacementPolicy> policy;
    if (priority_policy) {
      policy = std::make_unique<PriorityLruReplacer>(frames);
    } else {
      policy = std::make_unique<LruReplacer>(frames);
    }
    return std::make_unique<BufferPool>(&dm_, std::move(policy), o);
  }

  static void ExpectStatsEqual(const BufferPoolStats& a,
                               const BufferPoolStats& b) {
    EXPECT_EQ(a.logical_reads, b.logical_reads);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.physical_pages, b.physical_pages);
    EXPECT_EQ(a.io_requests, b.io_requests);
    EXPECT_EQ(a.evictions, b.evictions);
  }

  sim::Env env_;
  storage::DiskManager dm_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  auto pool = MakePool(8);
  auto first = pool->FetchPage(0, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  EXPECT_EQ(first->data[0], 0);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());

  auto second = pool->FetchPage(0, 1000);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());

  EXPECT_EQ(pool->stats().logical_reads, 2u);
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->stats().misses, 1u);
}

TEST_F(BufferPoolTest, PrefetchMakesExtentSiblingsHits) {
  auto pool = MakePool(8, /*extent=*/4);
  auto first = pool->FetchPage(0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 1; p < 4; ++p) {
    auto r = pool->FetchPage(p, 100 * p);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->hit) << "page " << p;
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  EXPECT_EQ(pool->stats().io_requests, 1u);
  EXPECT_EQ(pool->stats().physical_pages, 4u);
  // One disk request for the whole extent.
  EXPECT_EQ(env_.disk().stats().requests, 1u);
}

TEST_F(BufferPoolTest, PrefetchAlignsToExtentGrid) {
  auto pool = MakePool(8, /*extent=*/4);
  // Fetching page 6 reads aligned extent [4, 8).
  auto r = pool->FetchPage(6, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(pool->UnpinPage(6, PagePriority::kNormal).ok());
  EXPECT_TRUE(pool->Contains(4));
  EXPECT_TRUE(pool->Contains(7));
  EXPECT_FALSE(pool->Contains(3));
  EXPECT_FALSE(pool->Contains(8));
}

TEST_F(BufferPoolTest, ClipBoundsRestrictPrefetch) {
  auto pool = MakePool(8, /*extent=*/4);
  // Table occupies [5, 16): prefetch of page 5's extent [4,8) must clip to
  // [5,8) and never touch page 4 (another table's page).
  auto r = pool->FetchPage(5, 0, 5, 16);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(pool->UnpinPage(5, PagePriority::kNormal).ok());
  EXPECT_FALSE(pool->Contains(4));
  EXPECT_TRUE(pool->Contains(5));
  EXPECT_TRUE(pool->Contains(7));
}

// Rejected fetches leave every counter untouched and the pool consistent,
// whether the header hit path (resident page) or FetchSlow rejects them.
TEST_F(BufferPoolTest, FetchOutsideClipRejected) {
  auto pool = MakePool(8);
  // Pages [0, 4) become resident and unpinned.
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  const BufferPoolStats before = pool->stats();
  EXPECT_EQ(pool->FetchPage(2, 0, 8, 16).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(pool->FetchPage(20, 0, 0, 16).status().code(),
            Status::Code::kInvalidArgument);
  ExpectStatsEqual(pool->stats(), before);
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

TEST_F(BufferPoolTest, UnallocatedPageRejected) {
  auto pool = MakePool(8);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  const BufferPoolStats before = pool->stats();
  EXPECT_EQ(pool->FetchPage(1000, 0).status().code(), Status::Code::kOutOfRange);
  ExpectStatsEqual(pool->stats(), before);
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

TEST_F(BufferPoolTest, EvictionRecyclesLruFrame) {
  auto pool = MakePool(2, /*extent=*/1);
  for (sim::PageId p = 0; p < 2; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, p * 10).ok());
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  // Third page evicts page 0 (LRU).
  ASSERT_TRUE(pool->FetchPage(2, 100).ok());
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
  EXPECT_FALSE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  EXPECT_TRUE(pool->Contains(2));
  EXPECT_EQ(pool->stats().evictions, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesNeverEvicted) {
  auto pool = MakePool(2, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());  // Stays pinned.
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->FetchPage(2, 0).ok());  // Must evict 1, not 0.
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_FALSE(pool->Contains(1));
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  auto pool = MakePool(2, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  auto r = pool->FetchPage(2, 0);
  EXPECT_EQ(r.status().code(), Status::Code::kResourceExhausted);
}

TEST_F(BufferPoolTest, PinCountsNest) {
  auto pool = MakePool(4, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());  // Second pin.
  EXPECT_EQ(*pool->PinCount(0), 2u);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  EXPECT_EQ(*pool->PinCount(0), 1u);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  EXPECT_EQ(*pool->PinCount(0), 0u);
  EXPECT_EQ(pool->UnpinPage(0, PagePriority::kNormal).code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(BufferPoolTest, UnpinNonResidentFails) {
  auto pool = MakePool(4);
  EXPECT_EQ(pool->UnpinPage(9, PagePriority::kNormal).code(),
            Status::Code::kNotFound);
}

TEST_F(BufferPoolTest, ReleasePriorityShapesEviction) {
  auto pool = MakePool(2, /*extent=*/1, /*priority_policy=*/true);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kHigh).ok());
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kLow).ok());
  // Page 1 is newer but Low: it must be the victim.
  ASSERT_TRUE(pool->FetchPage(2, 0).ok());
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_FALSE(pool->Contains(1));
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, MissReadsChargeIoTime) {
  auto pool = MakePool(8, /*extent=*/4);
  auto r = pool->FetchPage(0, 12345);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->io.complete_micros, 12345u);
  EXPECT_GT(r->io.complete_micros, r->io.start_micros);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, FlushAllDropsUnpinned) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_FALSE(pool->Contains(0));
  // Refetch misses again.
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->hit);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, FlushAllRefusesWhilePinned) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  EXPECT_EQ(pool->FlushAll().code(), Status::Code::kFailedPrecondition);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, PageGuardReleasesOnDestruction) {
  auto pool = MakePool(4, /*extent=*/1);
  {
    auto r = pool->FetchPage(0, 0);
    ASSERT_TRUE(r.ok());
    PageGuard guard(pool.get(), 0, r->data);
    EXPECT_EQ(*pool->PinCount(0), 1u);
  }
  EXPECT_EQ(*pool->PinCount(0), 0u);
}

TEST_F(BufferPoolTest, PageGuardMoveTransfersOwnership) {
  auto pool = MakePool(4, /*extent=*/1);
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  PageGuard a(pool.get(), 0, r->data);
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.holds());
  EXPECT_TRUE(b.holds());
  EXPECT_EQ(*pool->PinCount(0), 1u);
  b.Release();
  EXPECT_EQ(*pool->PinCount(0), 0u);
}

TEST_F(BufferPoolTest, PoolSmallerThanExtentStillServesDemandPage) {
  auto pool = MakePool(2, /*extent=*/8);
  auto r = pool->FetchPage(3, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 3);
  ASSERT_TRUE(pool->UnpinPage(3, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, StatsResetKeepsContents) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  pool->ResetStats();
  EXPECT_EQ(pool->stats().logical_reads, 0u);
  EXPECT_TRUE(pool->Contains(0));
}

// Regression: an extent install must never evict pages the same install
// just put in the pool. Frames are acquired up front, the extent fills
// only what it got, and the leftover sibling pages are simply not cached.
TEST_F(BufferPoolTest, ExtentInstallNeverEvictsItsOwnPages) {
  auto pool = MakePool(2, /*extent=*/4);
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 0);
  // Two frames hold the demanded page and the first sibling; the rest of
  // the extent was transferred (and charged) but not cached. Crucially
  // nothing was evicted — there was nothing to evict, and installing
  // siblings 2 and 3 over frames the install just filled would have been
  // self-eviction thrash.
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  EXPECT_FALSE(pool->Contains(2));
  EXPECT_FALSE(pool->Contains(3));
  EXPECT_EQ(pool->stats().evictions, 0u);
  EXPECT_EQ(pool->stats().physical_pages, 4u);  // Whole transfer charged.
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, ClippedExtentInstallNeverEvictsItsOwnPages) {
  auto pool = MakePool(2, /*extent=*/4);
  // Table occupies [5, 16): the demanded page 5's aligned extent [4, 8)
  // clips to [5, 8). With two frames the install keeps pages 5 and 6.
  auto r = pool->FetchPage(5, 0, /*clip_first=*/5, /*clip_end=*/16);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 5);
  EXPECT_TRUE(pool->Contains(5));
  EXPECT_TRUE(pool->Contains(6));
  EXPECT_FALSE(pool->Contains(4));
  EXPECT_FALSE(pool->Contains(7));
  EXPECT_EQ(pool->stats().evictions, 0u);
  ASSERT_TRUE(pool->UnpinPage(5, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, EvictionsOnlyClaimPreexistingPages) {
  auto pool = MakePool(4, /*extent=*/4);
  // Fill the pool with extent [8, 12), all unpinned.
  ASSERT_TRUE(pool->FetchPage(8, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(8, PagePriority::kNormal).ok());
  for (sim::PageId p = 8; p < 12; ++p) EXPECT_TRUE(pool->Contains(p));

  // Fetching extent [0, 4) must evict exactly the four old pages and end
  // with the whole new extent resident — never recycling its own pages.
  ASSERT_TRUE(pool->FetchPage(0, 1000).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool->Contains(p)) << "page " << p;
  }
  for (sim::PageId p = 8; p < 12; ++p) {
    EXPECT_FALSE(pool->Contains(p)) << "page " << p;
  }
  EXPECT_EQ(pool->stats().evictions, 4u);
}

// The residency bitmap (what Contains consults) must track install,
// eviction, and flush.
TEST_F(BufferPoolTest, ResidencyTracksInstallEvictionAndFlush) {
  auto pool = MakePool(4, /*extent=*/4);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) EXPECT_TRUE(pool->Contains(p));
  EXPECT_FALSE(pool->Contains(4));

  // Eviction clears residency of the victims.
  ASSERT_TRUE(pool->FetchPage(8, 1000).ok());
  ASSERT_TRUE(pool->UnpinPage(8, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) EXPECT_FALSE(pool->Contains(p));
  for (sim::PageId p = 8; p < 12; ++p) EXPECT_TRUE(pool->Contains(p));

  // FlushAll clears everything.
  ASSERT_TRUE(pool->FlushAll().ok());
  for (sim::PageId p = 0; p < 12; ++p) EXPECT_FALSE(pool->Contains(p));
}

TEST_F(BufferPoolTest, InvariantsHoldThroughNormalTraffic) {
  for (const bool priority : {false, true}) {
    auto pool = MakePool(6, /*extent=*/4, priority);
    EXPECT_TRUE(pool->CheckInvariants().ok());
    sim::Micros now = 0;
    for (sim::PageId p = 0; p < 32; ++p) {
      ASSERT_TRUE(pool->FetchPage(p % 16, now).ok());
      EXPECT_TRUE(pool->CheckInvariants().ok()) << "after fetch " << p;
      ASSERT_TRUE(pool->UnpinPage(p % 16, PagePriority::kNormal).ok());
      EXPECT_TRUE(pool->CheckInvariants().ok()) << "after unpin " << p;
      now += 500;
    }
    ASSERT_TRUE(pool->FlushAll().ok());
    EXPECT_TRUE(pool->CheckInvariants().ok());
  }
}

// Satellite S2: a fetch that fails because every frame is pinned must leave
// the buffer statistics and the virtual disk exactly as it found them.
TEST_F(BufferPoolTest, FailedFetchLeavesStatsAndDiskUntouched) {
  auto pool = MakePool(4, /*extent=*/4);
  // Pin the whole pool with extent [0, 4).
  for (sim::PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 0).ok());
  }
  const BufferPoolStats before = pool->stats();
  const sim::DiskStats disk_before = env_.disk().stats();
  const sim::Micros busy_before = env_.disk().busy_until();

  auto failed = pool->FetchPage(8, 1000);
  EXPECT_EQ(failed.status().code(), Status::Code::kResourceExhausted);

  ExpectStatsEqual(pool->stats(), before);
  EXPECT_EQ(env_.disk().stats().requests, disk_before.requests);
  EXPECT_EQ(env_.disk().stats().pages_read, disk_before.pages_read);
  EXPECT_EQ(env_.disk().stats().busy_micros, disk_before.busy_micros);
  EXPECT_EQ(env_.disk().busy_until(), busy_before);
  EXPECT_TRUE(pool->CheckInvariants().ok());

  // The pool still works once a frame frees up.
  for (sim::PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  EXPECT_TRUE(pool->FetchPage(8, 2000).ok());
}

// A fetch whose disk read is refused (injected device fault) charges no
// buffer counters and no disk time, returns its frames, and keeps the pool
// consistent.
TEST_F(BufferPoolTest, InjectedReadFaultChargesNothingAndLeaksNoFrames) {
  auto pool = MakePool(8, /*extent=*/4);
  sim::DiskFaultOptions faults;
  faults.fail_range_first = 4;
  faults.fail_range_end = 8;
  env_.disk().SetFaults(faults);

  const BufferPoolStats before = pool->stats();
  const sim::DiskStats disk_before = env_.disk().stats();
  auto failed = pool->FetchPage(5, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(pool->stats().logical_reads, before.logical_reads);
  EXPECT_EQ(pool->stats().misses, before.misses);
  EXPECT_EQ(pool->stats().io_requests, before.io_requests);
  EXPECT_EQ(pool->stats().physical_pages, before.physical_pages);
  EXPECT_EQ(env_.disk().stats().requests, disk_before.requests);
  EXPECT_EQ(env_.disk().stats().busy_micros, disk_before.busy_micros);
  EXPECT_TRUE(pool->CheckInvariants().ok());

  env_.disk().ClearFaults();
  // Every frame is still available: the whole pool can be filled.
  for (sim::PageId p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

// Satellite S1: an extent install that fails midway (media fault on one
// page image after the disk request was charged) must return every
// acquired-but-unused frame — the original code leaked them.
// The miss path has one body for both extent sources — the disk directly
// (pull) and a demand-only push pipeline (io::Prefetcher over
// io::SimIoBackend) — and so one contract for a read that fails after its
// charge: the charge stays, no page of the extent is installed or pinned,
// and every acquired frame comes back.
class ExtentFaultTest : public BufferPoolTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  ExtentFaultTest() : backend_(&dm_) {}

  /// An 8-frame pool with 4-page extents, reading through the push
  /// pipeline when the parameter is true.
  std::unique_ptr<BufferPool> MakeSourcedPool() {
    auto pool = MakePool(8, /*extent=*/4);
    if (GetParam()) {
      io::PrefetchOptions options;
      options.depth = 0;
      prefetcher_ = std::make_unique<io::Prefetcher>(
          &backend_, /*ssm=*/nullptr, pool.get(), /*extent_pages=*/4, options);
      pool->SetIoPipeline(prefetcher_.get());
    }
    return pool;
  }

  /// A failed fetch of `page` left one charged miss, nothing of the
  /// extent [first, first + 4) cached, and every frame pinnable.
  void ExpectFailedReadLeftNothing(BufferPool* pool, sim::PageId first) {
    EXPECT_GE(dm_.page_data_faults_injected(), 1u);
    // The read physically happened, so its charge stays.
    EXPECT_EQ(pool->stats().misses, 1u);
    EXPECT_EQ(pool->stats().io_requests, 1u);
    for (sim::PageId p = first; p < first + 4; ++p) {
      EXPECT_FALSE(pool->Contains(p)) << "page " << p;
    }
    EXPECT_TRUE(pool->CheckInvariants().ok());

    dm_.ClearPageDataFaults();
    // No frame was leaked: all 8 frames can still be pinned at once.
    for (sim::PageId p = 8; p < 16; ++p) {
      ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
    }
    EXPECT_TRUE(pool->CheckInvariants().ok());
  }

  io::SimIoBackend backend_;
  std::unique_ptr<io::Prefetcher> prefetcher_;
};

TEST_P(ExtentFaultTest, MidExtentInstallFailureLeaksNoFrames) {
  auto pool = MakeSourcedPool();
  // Fetching page 0 reads extent [0, 4); pages 2-3 fail on the copy path.
  dm_.SetPageDataFaultRange(2, 4);
  auto failed = pool->FetchPage(0, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  ExpectFailedReadLeftNothing(pool.get(), 0);
}

// Same failure on the *demanded* page.
TEST_P(ExtentFaultTest, DemandedPageInstallFailureLeaksNoFrames) {
  auto pool = MakeSourcedPool();
  dm_.SetPageDataFaultRange(5, 6);
  auto failed = pool->FetchPage(5, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  ExpectFailedReadLeftNothing(pool.get(), 4);
}

INSTANTIATE_TEST_SUITE_P(Sources, ExtentFaultTest, ::testing::Bool(),
                         [](const auto& tpi) {
                           return std::string(tpi.param ? "PushSim" : "Pull");
                         });

}  // namespace
}  // namespace scanshare::buffer
