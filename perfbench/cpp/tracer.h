// In-memory span recorder for the perfbench binary.
//
// A span is (name, start, end, parent, round) plus two work counts: `ops`
// (operations the span completed) and `units` (the layer's own unit of work:
// hops, ticks, bit flips). Spans are taken around calls into the library from
// the benchmark's own code, kept in memory and written once at exit; every
// statistic is computed afterwards by perfbench/metrics.py.
//
// Round spans (one per timed round of a workload) are always recorded, so an
// untraced run pays one clock pair per round. Layer spans are recorded only
// while layer tracing is on.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint32_t round = kNone;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double ops = 0.0;
    double units = 0.0;
  };

  /// An open span; closes when destroyed. An inert scope (layer tracing off)
  /// records nothing and its setters do nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Closes the span now; its counts may still be set until destruction.
    void end() {
      if (tracer_ != nullptr && open_) tracer_->close(index_);
      open_ = false;
    }
    void ops(double v) {
      if (tracer_ != nullptr) tracer_->spans_[index_].ops = v;
    }
    void units(double v) {
      if (tracer_ != nullptr) tracer_->spans_[index_].units = v;
    }

   private:
    Tracer* tracer_;
    std::uint32_t index_;
    bool open_ = true;
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

  void set_layers(bool on) noexcept { layers_ = on; }
  [[nodiscard]] bool layers() const noexcept { return layers_; }
  void set_round(std::uint32_t round) noexcept { round_ = round; }

  /// Opens a round-level span: recorded whether or not layers are traced.
  [[nodiscard]] Scope round(std::string_view name) { return open(name); }

  /// Opens a layer span: recorded only while layer tracing is on.
  [[nodiscard]] Scope layer(std::string_view name) {
    return layers_ ? open(name) : Scope(nullptr, 0);
  }

  /// {"names": [...], "spans": [[name, parent, round, start_ns, end_ns, ops,
  /// units], ...]}; parent and round are -1 when absent.
  void write_json(std::FILE* f) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  Scope open(std::string_view name);
  void close(std::uint32_t index);
  std::uint32_t intern(std::string_view name);

  std::chrono::steady_clock::time_point t0_;
  bool layers_ = false;
  std::uint32_t round_ = kNone;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // indices of the spans now open
};

inline std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

inline Tracer::Scope Tracer::open(std::string_view name) {
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? kNone : open_.back();
  s.round = round_;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return Scope(this, index);
}

inline void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

inline void Tracer::write_json(std::FILE* f) const {
  std::fputs("{\"names\": [", f);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fputs("], \"spans\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u, %lld, %lld, %lld, %lld, %.17g, %.17g]",
                 i == 0 ? "" : ",\n", s.name,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.round == kNone ? -1LL : static_cast<long long>(s.round),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.ops, s.units);
  }
  std::fputs("]}", f);
}

}  // namespace perfbench
