// In-memory span recorder for the traced replay.
//
// A span is (name, operation id, parent, start, end); spans of one
// operation share its id and nest through a stack, so a layer's self time
// is its duration minus the time its direct children cover. Storage is
// reserved up front and spans are written out only when the run ends, so
// recording costs two clock reads and a vector slot per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pisa::bench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;
    std::uint64_t op;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /// Operation id stamped on every span opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  /// RAII span: opened at construction, closed at destruction, nested under
  /// whichever span is open on this tracer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t idx_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  struct NameStats {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
    std::vector<double> durations_ms;
  };
  /// Per span name: count, total duration, self time, every duration.
  std::map<std::string, NameStats> by_name() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, NameStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      auto& st = out[s.name];
      ++st.count;
      st.total_ms += dur;
      st.self_ms += dur - static_cast<double>(child_ns[i]) / 1e6;
      st.durations_ms.push_back(dur);
    }
    return out;
  }

  /// Write every span plus per-name totals as JSON. Returns false when the
  /// file cannot be opened.
  bool dump_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\n  \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "    {\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                   "\"parent\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                   i, s.name, static_cast<unsigned long long>(s.op),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - t0) / 1e3,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"by_name\": {\n");
    const auto names = by_name();
    std::size_t k = 0;
    for (const auto& [name, st] : names) {
      std::fprintf(f,
                   "    \"%s\": {\"count\": %zu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f}%s\n",
                   name.c_str(), st.count, st.total_ms, st.self_ms,
                   ++k == names.size() ? "" : ",");
    }
    std::fprintf(f, "  }\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint32_t open(const char* name) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(Span{name, op_, parent, now_ns(), 0});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::uint32_t idx) {
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t op_ = 0;
};

}  // namespace pisa::bench
