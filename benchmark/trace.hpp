// Span recording for the traced benchmark run.
//
// Spans are taken from outside the library, around its public calls, and
// kept in a buffer whose capacity is reserved before timing starts; a span
// that does not fit is counted as dropped rather than reallocating the
// buffer mid-run. At exit the spans are written as Chrome trace-event JSON
// (load the file in chrome://tracing or Perfetto). Every span carries its
// own id, its parent's id (0 for a root) and the epoch it served as the
// request id, so the spans of one burst or one read group together.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace overmatch::benchmark {

struct Span {
  const char* name = "";      ///< static string, e.g. "matching.apply"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t epoch = 0;    ///< request id
  std::int64_t start_ns = 0;  ///< since the run's clock origin
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;      ///< 0 = writer, 1.. = readers

  [[nodiscard]] double duration_ns() const noexcept {
    return static_cast<double>(end_ns - start_ns);
  }
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Records one span and returns its id (0 when the buffer is full).
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t epoch,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint32_t tid = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, parent, epoch, start_ns, end_ns, tid});
    return id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"overmatch\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"epoch\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns) / 1e3, s.duration_ns() / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.epoch));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace overmatch::benchmark
