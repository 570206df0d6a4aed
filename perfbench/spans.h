// In-memory span recorder for the benchmark's traced run. Spans are recorded
// around calls into the program's public functions (one span per call), kept
// in memory, and written out once at the end of the run. Single-threaded.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};

  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // Ends its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, uint32_t name) : tracer_(tracer), index_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t index_;
  };

  // Interns a span name; call once per name, outside hot loops.
  uint32_t Name(const std::string& name);

  uint32_t Begin(uint32_t name);
  void End(uint32_t index);

  size_t size() const { return spans_.size(); }

  // Summed duration in seconds of the spans named `name` recorded at index
  // `from` or later.
  double TotalSeconds(const std::string& name, size_t from = 0) const;

  // Writes one line per span (index, parent, name, start, end, self time in
  // microseconds); self time is the span's duration minus its children's.
  bool Write(const std::string& path) const;

  // Measured cost of recording one span (Begin + End), in seconds.
  static double CostPerSpanSeconds();

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
