// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Database: the top-level facade a user of this library interacts with.
// It owns the simulated machine, the storage layer, and the catalog, and
// executes experiment runs — each run gets a fresh buffer pool (sized and
// policied per the run config), a fresh Scan Sharing Manager, and a reset
// clock/disk, so base-vs-shared comparisons are exactly apples-to-apples.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/page_policy.h"
#include "common/policy_kind.h"
#include "common/status.h"
#include "exec/stream_executor.h"
#include "obs/trace.h"
#include "sim/env.h"
#include "ssm/options.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"

namespace scanshare::exec {

/// Replacement policy used by baseline runs (shared runs always use the
/// priority-honouring policy, which the release hints require).
enum class BaselinePolicy {
  kLru,    ///< Classic LRU — the paper's baseline.
  kClock,  ///< Second-chance (related work §2).
  kTwoQ,   ///< Simplified 2Q (related work §2) — the classic anti-scan cache.
};

/// Push I/O pipeline configuration (DESIGN.md §15). The default —
/// prefetch_depth 0, sim backend — keeps the legacy pull path untouched:
/// no pipeline object is created and every run is bit-identical to
/// pre-pipeline builds.
struct IoOptions {
  /// Where page bytes come from.
  enum class Backend {
    kSim,   ///< DiskManager page store (deterministic; the default).
    kFile,  ///< Real table-image file via pread workers (wall-clock bytes;
            ///< virtual-time counters stay identical to kSim).
  };
  Backend backend = Backend::kSim;

  /// Extents of lookahead per scan group. 0 disables the push pipeline
  /// entirely (legacy demand-pull reads). In kShared mode with depth > 0
  /// the run attaches a Prefetcher pumped by the ScanLoop; kBaseline runs
  /// get the demand-only pipeline (reads still flow through the backend,
  /// but nothing is issued ahead).
  uint64_t prefetch_depth = 0;

  /// Ready-extent budget per group window (0 = prefetch_depth). Setting it
  /// below the depth forces queue-full backpressure (kIoQueueFull).
  uint64_t queue_bound = 0;

  /// Table-image path for Backend::kFile (see io::FileIoBackend::Open;
  /// write one with io::FileIoBackend::WriteTableFile).
  std::string file_path;
};

/// Everything that varies between experiment runs.
struct RunConfig {
  /// kShared enables the paper's full mechanism (SSCAN + SSM +
  /// priority-honouring replacement); kBaseline is the vanilla engine
  /// (TSCAN + the configured baseline policy).
  ScanMode mode = ScanMode::kShared;

  /// Cache policy for kBaseline runs. Exists so the benchmarks can show
  /// that smarter general-purpose caching does not substitute for scan
  /// coordination (the paper's related-work argument).
  BaselinePolicy baseline_policy = BaselinePolicy::kLru;

  /// Sharing-policy pair for kShared runs: selects both the SSM-side
  /// SharingPolicy (placement / grouping / throttling) and the pool-side
  /// PagePolicy (replacer + release hints) as one coherent regime. The
  /// default reproduces the paper's group-and-throttle mechanism
  /// bit-identically; the alternatives exist for the A/B policy matrix
  /// (bench_a9). Ignored by kBaseline runs.
  PolicyKind policy = PolicyKind::kGroupThrottle;

  /// Buffer pool geometry. The experiments size num_frames at ~5 % of
  /// Catalog::TotalTablePages(), the paper's ratio.
  buffer::BufferPoolOptions buffer;

  /// SSM policy knobs (used in kShared mode; bufferpool_pages and
  /// prefetch_extent_pages are overridden from `buffer` for consistency).
  ssm::SsmOptions ssm;

  /// ISM policy knobs for block-index scans (kShared mode). If
  /// `ism.bufferpool_blocks` is 0 it is derived from the buffer geometry
  /// (frames / prefetch extent, the typical MDC block size).
  ssm::IsmOptions ism;

  /// CPU cost model.
  CostModel cost;

  /// Unused: kept only because the benchmark harness (scanbench/) sets it.
  KernelMode kernel = KernelMode::kColumnar;

  /// Push I/O pipeline: backend selection and per-group prefetch window.
  IoOptions io;

  /// Granularity of the reads/seeks-over-time series.
  sim::Micros series_bucket = sim::Seconds(1);

  /// Record per-step (time, position) samples for every scan (the
  /// time/location plots). Off by default — traces cost memory.
  bool record_traces = false;

  /// Lifecycle event tracing (obs::). When enabled, the run allocates a
  /// Tracer, wires it through the pool / SSM / disk / executor, and
  /// attaches it to RunResult::trace. Off by default — when disabled every
  /// hook is a single untaken null test.
  obs::TraceOptions trace;
};

/// True when `io` asks for anything but the default demand-pull path over
/// the sim page store: a prefetch window or the file backend.
/// RunEngine::MakePool builds that pipeline; RunQueryParallel rejects it.
bool WantsIoPipeline(const IoOptions& io);

/// The per-run engine every driver (Database::Run, service::ScanService::Run,
/// RunQueryParallel) builds from: a cold clock and disk, the policy pair,
/// the SSM and ISM, and the tracer; for the sequential drivers also the
/// pool and push pipeline (MakePool).
class RunEngine {
 public:
  /// Resets `env`'s clock and disk, then builds the run's state from
  /// `config`. In kShared mode that is the PolicyKind-selected PagePolicy
  /// and SharingPolicy (over one position board for the predictive pair),
  /// the SSM (its bufferpool_pages and prefetch_extent_pages taken from
  /// config.buffer) and the ISM (bufferpool_blocks derived from the buffer
  /// geometry when 0). With config.trace.enabled it makes the tracer —
  /// concurrent-mode if `concurrent_trace`, for drivers whose workers emit
  /// from several threads — and attaches it to the SSM and the disk.
  RunEngine(sim::Env* env, const RunConfig& config,
            bool concurrent_trace = false);

  /// Detaches the tracer from the disk, which outlives the run.
  ~RunEngine();

  RunEngine(const RunEngine&) = delete;
  RunEngine& operator=(const RunEngine&) = delete;

  /// A replacer for `num_frames` frames: the PagePolicy's in kShared mode,
  /// the configured BaselinePolicy in kBaseline mode. The pool factory
  /// (PartitionedBufferPool calls it once per partition).
  std::unique_ptr<buffer::ReplacementPolicy> MakeReplacer(
      size_t num_frames) const;

  /// Builds the run's traced pool over MakeReplacer, with the push I/O
  /// pipeline config.io asks for attached (backend plus Prefetcher).
  [[nodiscard]] StatusOr<buffer::BufferPool*> MakePool(
      storage::DiskManager* disk_manager, const RunConfig& config);

  /// The run's prefetcher; null on the default pull path.
  io::Prefetcher* prefetcher() { return prefetcher_.get(); }

  /// The run's scan-sharing managers; null in kBaseline mode.
  ssm::ScanSharingManager* ssm() { return ssm_ ? &*ssm_ : nullptr; }
  ssm::IndexScanSharingManager* ism() { return ism_ ? &*ism_ : nullptr; }

  /// The run's tracer; null unless config.trace.enabled.
  const std::shared_ptr<obs::Tracer>& tracer() const { return tracer_; }

 private:
  sim::Env* env_;
  BaselinePolicy baseline_policy_;
  std::shared_ptr<const buffer::PagePolicy> page_policy_;
  std::optional<ssm::ScanSharingManager> ssm_;
  std::optional<ssm::IndexScanSharingManager> ism_;
  std::shared_ptr<obs::Tracer> tracer_;
  // The prefetcher joins its reads through the backend: it dies first.
  std::optional<buffer::BufferPool> pool_;
  std::unique_ptr<io::IoBackend> io_backend_;
  std::unique_ptr<io::Prefetcher> prefetcher_;
};

/// Owns the simulated machine and storage; executes runs.
class Database {
 public:
  /// Creates a database over a simulated disk with the given cost model.
  explicit Database(sim::DiskOptions disk_options = sim::DiskOptions());

  /// The catalog, for loading tables (see workload::).
  storage::Catalog* catalog() { return &catalog_; }
  const storage::Catalog* catalog() const { return &catalog_; }

  /// The storage manager (page store).
  storage::DiskManager* disk_manager() { return &disk_manager_; }

  /// The simulated machine.
  sim::Env* env() { return &env_; }

  /// Buffer frames amounting to `fraction` of the loaded data (the paper
  /// uses 5 %), with a floor of two prefetch extents.
  size_t FramesForFraction(double fraction,
                           uint64_t extent_pages = 16) const;

  /// Executes `streams` under `config` from a cold cache at virtual time
  /// zero. Resets the clock, the disk (head, queue, counters), and builds
  /// a fresh pool + SSM, then runs to completion.
  [[nodiscard]] StatusOr<RunResult> Run(const RunConfig& config,
                          const std::vector<StreamSpec>& streams);

 private:
  sim::Env env_;
  storage::DiskManager disk_manager_;
  storage::Catalog catalog_;
};

}  // namespace scanshare::exec
