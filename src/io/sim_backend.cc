#include "io/sim_backend.h"

#include <cstring>

namespace scanshare::io {

Status SimIoBackend::StartBytes(sim::PageId first, uint64_t count,
                                uint8_t* dest, ReadToken* token) {
  *token = kNoToken;
  const uint32_t page_size = disk_->page_size();
  for (uint64_t i = 0; i < count; ++i) {
    // PageData is the media-fault injection point (DiskManager::
    // SetPageDataFaultRange): a fault mid-extent aborts the copy after the
    // charge, mirroring where a pull-mode FetchSlow would fail.
    StatusOr<const uint8_t*> src = disk_->PageData(first + i);
    if (!src.ok()) return src.status();
    std::memcpy(dest + i * page_size, src.value(), page_size);
  }
  return Status::OK();
}

}  // namespace scanshare::io
