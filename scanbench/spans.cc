// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.

#include "spans.h"

#include <cstdio>

namespace scanbench {

int SpanRecorder::Intern(const std::string& name) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return static_cast<int>(i);
  }
  totals_.push_back(Total{name, 0, 0.0, 0.0});
  return static_cast<int>(totals_.size() - 1);
}

void SpanRecorder::Begin(int id) {
  Open open;
  open.name = id;
  open.start = Clock::now();
  ++events_;
  if (kept_.size() < capacity_) {
    Kept k;
    k.name = id;
    k.parent = open_.empty() ? -1 : open_.back().kept;
    k.start_s = std::chrono::duration<double>(open.start - origin_).count();
    open.kept = static_cast<int64_t>(kept_.size());
    kept_.push_back(k);
  } else {
    ++dropped_;
  }
  open_.push_back(open);
}

void SpanRecorder::End() {
  const Clock::time_point end = Clock::now();
  const Open open = open_.back();
  open_.pop_back();
  const double duration =
      std::chrono::duration<double>(end - open.start).count();
  Total& total = totals_[static_cast<size_t>(open.name)];
  ++total.count;
  total.total_s += duration;
  total.self_s += duration - open.child_s;
  if (!open_.empty()) open_.back().child_s += duration;
  if (open.kept >= 0) {
    kept_[static_cast<size_t>(open.kept)].end_s =
        std::chrono::duration<double>(end - origin_).count();
  }
}

SpanRecorder::Total SpanRecorder::Get(const std::string& name) const {
  for (const Total& t : totals_) {
    if (t.name == name) return t;
  }
  return Total{name, 0, 0.0, 0.0};
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,parent,start_s,end_s\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f, "%zu,%s,%lld,%.9f,%.9f\n", i,
                 totals_[static_cast<size_t>(k.name)].name.c_str(),
                 static_cast<long long>(k.parent), k.start_s, k.end_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace scanbench
