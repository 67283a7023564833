#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Window_stats quietest_windows(const std::vector<double>& slot_ms,
                              const std::vector<double>& end_s,
                              size_t per_window, size_t min_samples) {
  Window_stats out;
  const size_t n = slot_ms.size();
  if (n == 0) return out;
  const size_t w = std::min(per_window, n);
  out.windows = n / w;
  struct Window {
    size_t first;
    double wall;
  };
  std::vector<Window> windows;
  for (size_t k = 0; k < out.windows; ++k) {
    const size_t first = k * w;
    windows.push_back(
        {first, end_s[first + w - 1] - (first ? end_s[first - 1] : 0.0)});
  }
  // Same slot count per window: the quietest is the shortest.
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) { return a.wall < b.wall; });
  std::vector<double> pooled;
  double wall = 0.0;
  for (const Window& win : windows) {
    if (pooled.size() >= min_samples) break;
    const auto first = slot_ms.begin() + static_cast<ptrdiff_t>(win.first);
    pooled.insert(pooled.end(), first, first + static_cast<ptrdiff_t>(w));
    wall += win.wall;
  }
  out.samples = pooled.size();
  out.slots_per_s = static_cast<double>(pooled.size()) / wall;
  out.p50_ms = quantile(pooled, 0.5);
  out.p90_ms = quantile(pooled, 0.9);
  return out;
}

void add_window_notes(Outcome& out, const Window_stats& w, double run_rate,
                      double run_p50_ms) {
  char line[256];
  std::snprintf(line, sizeof line,
                "%zu slots pooled from the quietest of %zu windows, p90 has "
                "%zu samples beyond it; whole phase %.3f slots/s, p50 %.3f ms",
                w.samples, w.windows,
                w.samples - static_cast<size_t>(0.9 * w.samples), run_rate,
                run_p50_ms);
  out.notes.push_back(line);
}

double pool_dispatch_us(uint32_t workers) {
  pp::common::Thread_pool pool(workers);
  constexpr int kReps = 2000;
  std::vector<double> us;
  us.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    pool.run([](uint32_t) {});
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return median(std::move(us));
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(size_t capacity) : epoch_(Clock::now()), capacity_(capacity) {
  spans_.reserve(capacity_);
  stack_.reserve(64);
  totals_.reserve(64);
}

Tracer::Total& Tracer::total_of(const char* name) {
  for (auto& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) return t;
  }
  totals_.push_back(Total{name});
  return totals_.back();
}

void Tracer::open(const char* name, int64_t slot) {
  int32_t index = -1;
  if (spans_.size() < capacity_) {
    index = static_cast<int32_t>(spans_.size());
    int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->index >= 0) {
        parent = it->index;
        break;
      }
    }
    spans_.push_back(Span{name, 0, 0, parent, slot});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, Clock::now(), 0.0, index, slot});
}

void Tracer::close() {
  const auto t1 = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(o.t0, t1);
  Total& t = total_of(o.name);
  ++t.count;
  t.seconds += dur;
  t.self_seconds += dur - o.child_seconds;
  if (!stack_.empty()) stack_.back().child_seconds += dur;
  if (o.index >= 0) {
    Span& s = spans_[static_cast<size_t>(o.index)];
    s.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(o.t0 - epoch_)
                  .count();
    s.t1_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - epoch_).count();
  }
}

Tracer::Total Tracer::total(const char* name) const {
  for (const auto& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) return t;
  }
  return Total{name};
}

bool Tracer::write_chrome(const std::string& path, const std::string& workload,
                          uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\","
               "\"seed\":%llu,\"spans\":%zu,\"spans_not_recorded\":%llu},"
               "\"traceEvents\":[\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               spans_.size(), static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"slot\":%lld,\"end_us\":%.3f}}\n",
                 i ? "," : "", s.name, 1e-3 * static_cast<double>(s.t0_ns),
                 1e-3 * static_cast<double>(s.t1_ns - s.t0_ns), i, s.parent,
                 static_cast<long long>(s.slot),
                 1e-3 * static_cast<double>(s.t1_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
