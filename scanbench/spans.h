// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Wall-clock spans for the benchmark's traced run. A span is one timed call
// into an engine layer, recorded from the benchmark's own code: a name, a
// start and end on std::chrono::steady_clock, and the span that was open
// when it began (its parent). Spans nest strictly — the traced run is
// single-threaded around every span it opens — so a span's self time is its
// duration minus the durations of its direct children.
//
// Every span feeds a per-name total (count, total time, self time) as it
// closes. The first `capacity` spans are also kept whole in memory and can
// be written out as CSV when the benchmark ends; later ones only feed the
// totals and are counted as dropped.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace scanbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanRecorder {
 public:
  /// Per-name totals over every closed span.
  struct Total {
    std::string name;
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanRecorder(size_t capacity = 200'000) : capacity_(capacity) {}

  /// Interns `name`; the returned id is what Begin takes. Ids are stable.
  int Intern(const std::string& name);

  /// Opens a span named `id` as a child of the innermost open span.
  void Begin(int id);
  /// Closes the innermost open span.
  void End();

  /// Totals for the interned name, or zeros if it never closed.
  Total Get(const std::string& name) const;
  const std::vector<Total>& totals() const { return totals_; }

  uint64_t events() const { return events_; }
  uint64_t dropped() const { return dropped_; }

  /// Writes the kept spans as CSV (index, name, parent, start_s, end_s;
  /// times relative to the recorder's creation). Returns false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Kept {
    int name = 0;
    int64_t parent = -1;  // Index into kept_, or -1 (root / not kept).
    double start_s = 0.0;
    double end_s = 0.0;
  };
  struct Open {
    int name = 0;
    Clock::time_point start;
    double child_s = 0.0;
    int64_t kept = -1;
  };

  size_t capacity_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Total> totals_;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  uint64_t events_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span. A null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int id) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(id);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace scanbench
