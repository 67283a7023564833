// Shared types of the PUSCH receive benchmark: run options, the metric
// list a workload reports, sample statistics, and the span recorder of the
// traced run.
//
// Every workload drives the library only through its public calls and
// times them from here; nothing under src/ knows it is being measured.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // per-layer run: spans on, per-layer metrics out
  std::string trace_file;  // Chrome trace-event JSON (traced run only)
  uint32_t nproc = 1;      // host threads available to the workload
};

// Metrics in report order, each with its unit.
struct Metrics {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries;

  void put(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

// What one workload run hands back to main(): the output checks and the
// metrics of the selected mode (end-to-end or per-layer).
struct Outcome {
  uint64_t attempted = 0;  // slots (or roll-ups) the measured phase ran
  uint64_t failed = 0;     // of those, how many differed from the oracle
  Metrics metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first
};

// ---- sample statistics ----------------------------------------------------

// Quantile q in [0, 1] of `v` by linear interpolation between closest ranks
// (v is sorted in place).  0 for an empty sample.
double quantile(std::vector<double>& v, double q);

double median(std::vector<double> v);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// The measured phase runs on a host whose shared cache and memory bandwidth
// other tenants load in bursts of seconds to tens of seconds: a slot's wall
// time swings by up to ~1.7x between bursts while a pure compute loop does
// not move (NOTES.md).  The phase is therefore cut into windows of
// `per_window` consecutive slots, and the wall-time metrics are taken over
// the quietest windows - the shortest ones - until they hold at least
// `min_samples` slots, so they measure the program rather than its
// neighbours.  A change to the program moves every window alike.
struct Window_stats {
  double slots_per_s = 0.0;  // pooled slots / their windows' wall seconds
  double p50_ms = 0.0, p90_ms = 0.0;  // per-slot wall time, pooled
  size_t windows = 0;        // complete windows in the phase
  size_t samples = 0;        // slots pooled
};
// slot_ms[i] is slot i's wall time, end_s[i] the phase clock (seconds since
// the phase began) when it finished.  A trailing partial window is ignored.
Window_stats quietest_windows(const std::vector<double>& slot_ms,
                              const std::vector<double>& end_s,
                              size_t per_window, size_t min_samples);

// Note line: the chosen window against the whole phase.
void add_window_notes(Outcome& out, const Window_stats& w, double run_rate,
                      double run_p50_ms);

// Repeats `setup` `reps` times and returns the median wall seconds; the
// object of the last repetition is kept in `out`.
template <typename T, typename F>
double timed_setups(int reps, T& out, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    out = T{};  // release the previous repetition before building anew
    const auto t0 = Clock::now();
    setup(out);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(s));
}

// ---- spans -----------------------------------------------------------------

// Span recorder of the traced run.  Spans nest (a stack per recorder, one
// recorder per thread of the benchmark) and are kept in a buffer sized
// once up front; spans past its capacity still count in the per-name
// totals but are not written to the trace file.  Span names must outlive
// the recorder (string literals).
class Tracer {
 public:
  explicit Tracer(size_t capacity);

  void open(const char* name, int64_t slot);
  void close();

  struct Total {
    const char* name = nullptr;
    uint64_t count = 0;
    double seconds = 0.0;       // summed span durations
    double self_seconds = 0.0;  // minus the time covered by child spans
  };
  // Totals of one span name (zeros when it never ran).
  Total total(const char* name) const;

  size_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Chrome trace-event JSON ("X" events; args carry the span id, parent id
  // and slot id).  Returns false if the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& workload,
                    uint64_t seed) const;

 private:
  struct Span {
    const char* name;
    int64_t t0_ns, t1_ns;
    int32_t parent;  // index into spans_, -1 for a root or an unrecorded one
    int64_t slot;
  };
  struct Open {
    const char* name;
    Clock::time_point t0;
    double child_seconds;
    int32_t index;  // -1 when the buffer was full
    int64_t slot;
  };
  Total& total_of(const char* name);

  Clock::time_point epoch_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<Total> totals_;
  uint64_t dropped_ = 0;
};

// Span buffer of a traced run (~40 bytes a span).
inline constexpr size_t kTraceSpans = 50000;

// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* t, const char* name, int64_t slot) : t_(t) {
    if (t_) t_->open(name, slot);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ---- workloads -------------------------------------------------------------

Outcome run_mimo_q15(const Options& opt);
Outcome run_front_double(const Options& opt);
Outcome run_serve_mix(const Options& opt);
Outcome run_sim_usecase(const Options& opt);

// Median microseconds of an empty common::Thread_pool::run at `workers`.
double pool_dispatch_us(uint32_t workers);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
