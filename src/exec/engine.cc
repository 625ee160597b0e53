#include "exec/engine.h"

#include <algorithm>
#include <utility>

#include "buffer/alternative_replacers.h"
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

bool WantsIoPipeline(const IoOptions& io) {
  return io.prefetch_depth > 0 || io.backend == IoOptions::Backend::kFile;
}

RunEngine::RunEngine(sim::Env* env, const RunConfig& config,
                     bool concurrent_trace)
    : env_(env), baseline_policy_(config.baseline_policy) {
  // Cold, reproducible start.
  env_->clock().Reset();
  env_->disk().Reset();

  // Shared runs route replacer + release hints + SSM decisions through one
  // PolicyKind-selected pair. The position board only exists for the
  // predictive policy — it is the sole channel between the SSM side (which
  // publishes scan trajectories) and the pool side (which consults them at
  // eviction time). Baseline runs never consult the SSM or the ISM.
  if (config.mode == ScanMode::kShared) {
    std::shared_ptr<buffer::ScanPositionBoard> board;
    if (config.policy == PolicyKind::kPbmPredictive) {
      board = std::make_shared<buffer::ScanPositionBoard>();
    }
    page_policy_ = buffer::MakePagePolicy(config.policy, board);

    // The sharing policy must see the post-override options (extent / pool
    // size feed grouping and throttling).
    ssm::SsmOptions ssm_options = config.ssm;
    ssm_options.bufferpool_pages = config.buffer.num_frames;
    ssm_options.prefetch_extent_pages = config.buffer.prefetch_extent_pages;
    ssm_.emplace(ssm_options,
                 ssm::MakeSharingPolicy(config.policy, ssm_options, board),
                 page_policy_);

    ssm::IsmOptions ism_options = config.ism;
    if (ism_options.bufferpool_blocks == 0) {
      const uint64_t block_pages =
          std::max<uint64_t>(1, config.buffer.prefetch_extent_pages);
      ism_options.bufferpool_blocks =
          std::max<uint64_t>(1, config.buffer.num_frames / block_pages);
    }
    ism_.emplace(ism_options);
  }

  if (config.trace.enabled) {
    obs::TraceOptions trace_options = config.trace;
    if (concurrent_trace) trace_options.concurrent = true;
    tracer_ = std::make_shared<obs::Tracer>(trace_options);
    if (ssm_) ssm_->SetTracer(tracer_.get());
    env_->disk().SetTracer(tracer_.get());
  }
}

RunEngine::~RunEngine() { env_->disk().SetTracer(nullptr); }

std::unique_ptr<buffer::ReplacementPolicy> RunEngine::MakeReplacer(
    size_t num_frames) const {
  if (page_policy_ != nullptr) return page_policy_->MakeReplacer(num_frames);
  switch (baseline_policy_) {
    case BaselinePolicy::kClock:
      return std::make_unique<buffer::ClockReplacer>(num_frames);
    case BaselinePolicy::kTwoQ:
      return std::make_unique<buffer::TwoQReplacer>(num_frames);
    case BaselinePolicy::kLru:
      break;
  }
  return std::make_unique<buffer::LruReplacer>(num_frames);
}

StatusOr<buffer::BufferPool*> RunEngine::MakePool(
    storage::DiskManager* disk_manager, const RunConfig& config) {
  pool_.emplace(disk_manager, MakeReplacer(config.buffer.num_frames),
                config.buffer);
  pool_->SetTracer(tracer_.get());
  // Even at depth 0 (the sync-file arm) the pipeline routes every miss, so
  // the backend counters reach RunResult::io / real_io.
  if (WantsIoPipeline(config.io)) {
    if (config.io.backend == IoOptions::Backend::kFile) {
      SCANSHARE_ASSIGN_OR_RETURN(
          io_backend_,
          io::FileIoBackend::Open(disk_manager, {config.io.file_path}));
    } else {
      io_backend_ = std::make_unique<io::SimIoBackend>(disk_manager);
    }
    prefetcher_ = std::make_unique<io::Prefetcher>(
        io_backend_.get(), ssm(), &*pool_, config.buffer.prefetch_extent_pages,
        io::PrefetchOptions{.depth = config.io.prefetch_depth,
                            .queue_bound = config.io.queue_bound});
    prefetcher_->SetTracer(tracer_.get());
    pool_->SetIoPipeline(prefetcher_.get());
  }
  return &*pool_;
}

StatusOr<RunResult> Database::Run(const RunConfig& config,
                                  const std::vector<StreamSpec>& streams) {
  RunEngine engine(&env_, config);
  SCANSHARE_ASSIGN_OR_RETURN(buffer::BufferPool * pool,
                             engine.MakePool(&disk_manager_, config));
  StreamExecutor executor(&env_, pool, &catalog_, engine.ssm(), engine.ism(),
                          config.cost, config.mode, KernelMode::kColumnar,
                          engine.tracer().get());
  executor.SetIoPipeline(engine.prefetcher());
  SCANSHARE_ASSIGN_OR_RETURN(
      RunResult result,
      executor.Run(streams, config.series_bucket, config.record_traces));
  result.trace = engine.tracer();
  return result;
}

}  // namespace scanshare::exec
