#include "exec/engine.h"

#include <algorithm>
#include <utility>

#include "buffer/alternative_replacers.h"
#include "buffer/page_policy.h"
#include "buffer/policies/scan_position_board.h"
#include "io/file_backend.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"
#include "ssm/sharing_policy.h"

namespace scanshare::exec {

Database::Database(sim::DiskOptions disk_options)
    : env_(disk_options), disk_manager_(&env_), catalog_(&disk_manager_) {}

size_t Database::FramesForFraction(double fraction, uint64_t extent_pages) const {
  const uint64_t total = catalog_.TotalTablePages();
  const auto frames =
      static_cast<size_t>(fraction * static_cast<double>(total));
  return std::max<size_t>(frames, 2 * extent_pages);
}

StatusOr<RunResult> Database::Run(const RunConfig& config,
                                  const std::vector<StreamSpec>& streams) {
  // Cold, reproducible start.
  env_.clock().Reset();
  env_.disk().Reset();

  // Shared runs route replacer + release hints + SSM decisions through one
  // PolicyKind-selected pair. The position board only exists for the
  // predictive policy — it is the sole channel between the SSM side (which
  // publishes scan trajectories) and the pool side (which consults them at
  // eviction time).
  std::shared_ptr<buffer::ScanPositionBoard> board;
  std::shared_ptr<const buffer::PagePolicy> page_policy;
  std::unique_ptr<buffer::ReplacementPolicy> policy;
  if (config.mode == ScanMode::kShared) {
    if (config.policy == PolicyKind::kPbmPredictive) {
      board = std::make_shared<buffer::ScanPositionBoard>();
    }
    page_policy = buffer::MakePagePolicy(config.policy, board);
    policy = page_policy->MakeReplacer(config.buffer.num_frames);
  } else {
    switch (config.baseline_policy) {
      case BaselinePolicy::kLru:
        policy = std::make_unique<buffer::LruReplacer>(config.buffer.num_frames);
        break;
      case BaselinePolicy::kClock:
        policy = std::make_unique<buffer::ClockReplacer>(config.buffer.num_frames);
        break;
      case BaselinePolicy::kTwoQ:
        policy = std::make_unique<buffer::TwoQReplacer>(config.buffer.num_frames);
        break;
    }
  }
  buffer::BufferPool pool(&disk_manager_, std::move(policy), config.buffer);

  ssm::SsmOptions ssm_options = config.ssm;
  ssm_options.bufferpool_pages = config.buffer.num_frames;
  ssm_options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
  // The sharing policy must see the post-override options (extent / pool
  // size feed grouping and throttling). Baseline runs never consult the
  // SSM, so they take the default (group-throttle) pair via the nullptr
  // fallbacks.
  std::shared_ptr<ssm::SharingPolicy> sharing;
  if (config.mode == ScanMode::kShared) {
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

  // Per-run event tracer. The pool/SSM die with this scope, but the disk
  // lives in env_ across runs — its tracer pointer must be detached before
  // every return below, hence the scope guard.
  std::shared_ptr<obs::Tracer> tracer;
  if (config.trace.enabled) {
    tracer = std::make_shared<obs::Tracer>(config.trace);
    pool.SetTracer(tracer.get());
    ssm.SetTracer(tracer.get());
    env_.disk().SetTracer(tracer.get());
  }
  struct DiskTracerDetach {
    sim::Disk* disk;
    ~DiskTracerDetach() { disk->SetTracer(nullptr); }
  } detach{&env_.disk()};

  const bool shared = config.mode == ScanMode::kShared;

  // Push I/O pipeline (opt-in; the prefetch_depth==0 + kSim default leaves
  // pipeline null and the pool on the legacy pull path, bit-identically).
  // Destruction order matters: the prefetcher joins outstanding reads in
  // its destructor, so it must die before the backend — both outlive the
  // executor run below. The pool only dereferences its pipeline pointer
  // inside FetchSlow, never at destruction, so pool-vs-prefetcher order is
  // free.
  std::unique_ptr<io::IoBackend> io_backend;
  std::unique_ptr<io::Prefetcher> prefetcher;
  if (config.io.prefetch_depth > 0 ||
      config.io.backend == IoOptions::Backend::kFile) {
    if (config.io.backend == IoOptions::Backend::kFile) {
      io::FileBackendOptions file_options;
      file_options.path = config.io.file_path;
      file_options.workers = config.io.file_workers;
      SCANSHARE_ASSIGN_OR_RETURN(
          io_backend, io::FileIoBackend::Open(&disk_manager_, file_options));
    } else {
      io_backend = std::make_unique<io::SimIoBackend>(&disk_manager_);
    }
    io::PrefetchOptions prefetch_options;
    prefetch_options.depth = config.io.prefetch_depth;
    prefetch_options.queue_bound = config.io.queue_bound;
    prefetcher = std::make_unique<io::Prefetcher>(
        io_backend.get(), shared ? &ssm : nullptr, &pool,
        config.buffer.prefetch_extent_pages, prefetch_options);
    if (tracer != nullptr) prefetcher->SetTracer(tracer.get());
    pool.SetIoPipeline(prefetcher.get());
  }

  StreamExecutor executor(&env_, &pool, &catalog_, shared ? &ssm : nullptr,
                          shared ? &ism : nullptr, config.cost, config.mode,
                          KernelMode::kColumnar, tracer.get());
  // Attach even when prefetch_depth is 0 (the sync-file arm): pumping a
  // depth-0 window issues nothing, and the attachment is what routes the
  // pipeline/backend counters into RunResult::io / RunResult::real_io.
  if (prefetcher != nullptr) executor.SetIoPipeline(prefetcher.get());
  SCANSHARE_ASSIGN_OR_RETURN(
      RunResult result,
      executor.Run(streams, config.series_bucket, config.record_traces));
  result.trace = std::move(tracer);
  return result;
}

}  // namespace scanshare::exec
