// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// SimIoBackend — the deterministic IoBackend over the in-memory
// DiskManager page store. Byte movement is a synchronous memcpy from the
// page images a pull-mode FetchSlow reads via PageData(), so the push
// pipeline on this backend sees exactly the data, the virtual-time
// charges, and the injected faults (sim::DiskFaultOptions before the
// charge, SetPageDataFaultRange after it) that the pull path sees.

#pragma once

#include "common/status.h"
#include "io/io_backend.h"
#include "storage/disk_manager.h"

namespace scanshare::io {

/// IoBackend over the simulated page store. Default for every run; the
/// only backend the trace goldens and bit-identity gates ever execute.
class SimIoBackend final : public IoBackend {
 public:
  /// Borrows `disk` for the backend's lifetime.
  explicit SimIoBackend(storage::DiskManager* disk) : disk_(disk) {}

  uint32_t page_size() const override { return disk_->page_size(); }
  const char* name() const override { return "sim"; }

  [[nodiscard]] StatusOr<sim::IoResult> Charge(sim::PageId first,
                                               uint64_t count,
                                               sim::Micros now) override {
    return disk_->ChargedRead(first, count, now);
  }

  [[nodiscard]] Status StartBytes(sim::PageId first, uint64_t count,
                                  uint8_t* dest, ReadToken* token) override;

  [[nodiscard]] Status Join(ReadToken token) override {
    (void)token;  // Always kNoToken: StartBytes copies synchronously.
    return Status::OK();
  }

 private:
  storage::DiskManager* disk_;
};

}  // namespace scanshare::io
