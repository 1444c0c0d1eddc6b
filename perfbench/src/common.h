#ifndef ESSDDS_PERFBENCH_COMMON_H_
#define ESSDDS_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/phonebook.h"

namespace essdds::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Command line of one run (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory inside the checkout (data dirs, sockets).
  /// Created by main, removed again when the run ends.
  std::string scratch_dir;
  /// Where a traced run writes its spans (kept after the run).
  std::string spans_path;
};

/// One printed number with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a workload hands back to main for printing.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Contract end-to-end metrics (untraced runs).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (traced runs). run.py fills the layers a workload
  /// never calls with 0: that layer did no work.
  std::map<std::string, Metric> layers;
  /// The workload's own names for its numbers (search_per_s, insert_p99_us,
  /// fail_ratio, fp_ratio, ...), printed on the detail line.
  std::map<std::string, Metric> detail;
  /// Free-form facts for the detail line (flush policy, filesystem, checks).
  std::map<std::string, std::string> facts;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
/// Median of an unsorted sample (mean of the middle two for an even count);
/// 0 if empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Closed-loop throughput of one client from its op latencies; 0 if empty.
inline double PerSecond(const std::vector<double>& latency_us) {
  return latency_us.empty() ? 0.0 : 1e6 / Mean(latency_us);
}

/// Throughput lost to tracing, in percent of the untraced throughput (0
/// when either side has no ops).
inline double TraceOverheadPct(double untraced_per_s, double traced_per_s) {
  if (untraced_per_s <= 0 || traced_per_s <= 0) return 0;
  return 100.0 * (1.0 - traced_per_s / untraced_per_s);
}

/// Peak resident set size of a process in MiB (VmHWM), 0 when unreadable.
double PeakRssMib(int pid);
inline double SelfPeakRssMib() { return PeakRssMib(0); }

/// Name of the filesystem holding `path` (tmpfs, ext4, overlay, ...).
std::string FilesystemOf(const std::string& path);

/// Total size in bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Times the calls a traced run makes into the library, from the
/// benchmark's side. Each span has a name, a start, an end and the span
/// that was open when it began; durations aggregate per name. Spans are
/// kept in memory (the first kMaxStoredSpans verbatim) and written out as
/// TSV when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = 200'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_{};
    int64_t parent_ = -1;
    int64_t index_ = -1;
  };

  bool enabled() const { return enabled_; }

  /// Durations in microseconds of every closed span called `name`.
  const std::vector<double>& Durations(const std::string& name) const;

  /// Writes the stored spans as "id\tparent\tname\tstart_us\tend_us".
  void WriteTsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    double start_us;
    double end_us;
  };

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  int64_t open_ = -1;  // index of the innermost open span, -1 at top level
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>, std::less<>> durations_;
};

/// `count` phonebook records for `seed`. PhonebookGenerator numbers records
/// by sequence alone, so the sequence range starts at a seed-derived offset:
/// the rids, and with them the LH* key placement, vary with the seed like
/// the names do.
std::vector<workload::PhoneRecord> Phonebook(uint64_t seed, size_t count);

/// Facts about the build and the machine, for the detail line.
std::map<std::string, std::string> BuildEnvironment();

}  // namespace essdds::perfbench

#endif  // ESSDDS_PERFBENCH_COMMON_H_
