#include "perfbench/spans.h"

#include <cstdio>

namespace perfbench {

uint32_t Tracer::Name(const std::string& name) {
  auto [it, inserted] = ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

uint32_t Tracer::Begin(uint32_t name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  const auto index = static_cast<uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(uint32_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

double Tracer::TotalSeconds(const std::string& name, size_t from) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return 0;
  }
  int64_t ns = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) {
      ns += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::Write(const std::string& path) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "index\tparent\tname\tstart_us\tend_us\tself_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%lld\t%s\t%.3f\t%.3f\t%.3f\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 names_[s.name].c_str(), static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-3);
  }
  return std::fclose(out) == 0;
}

double Tracer::CostPerSpanSeconds() {
  constexpr int kSpans = 200000;
  Tracer probe;
  const uint32_t name = probe.Name("probe");
  probe.spans_.reserve(kSpans);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    probe.End(probe.Begin(name));
  }
  return static_cast<double>(NowNs() - start) * 1e-9 / kSpans;
}

}  // namespace perfbench
