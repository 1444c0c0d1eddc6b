#include "common.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "obs/metrics.h"

namespace essdds::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr), name_(name) {
  if (tracer_ == nullptr) return;
  parent_ = tracer_->open_;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, parent_, 0, 0});
  tracer_->open_ = index_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(end - start_).count();
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.start_us = std::chrono::duration<double, std::micro>(
                      start_ - tracer_->epoch_).count();
  span.end_us = span.start_us + us;
  tracer_->durations_[name_].push_back(us);
  tracer_->open_ = parent_;
  // Past the storage cap only the aggregates grow; the open-span chain
  // stays valid because spans are dropped only once closed.
  if (parent_ < 0 && tracer_->spans_.size() > kMaxStoredSpans) {
    tracer_->spans_.resize(kMaxStoredSpans);
  }
}

const std::vector<double>& Tracer::Durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = durations_.find(name);
  return it == durations_.end() ? kEmpty : it->second;
}

void Tracer::WriteTsv(const std::string& path) const {
  if (!enabled_) return;
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_us\tend_us\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_us
        << '\t' << s.end_us << '\n';
  }
}

std::vector<workload::PhoneRecord> Phonebook(uint64_t seed, size_t count) {
  workload::PhonebookGenerator generator(seed);
  const uint64_t first = (seed % 1000) * 100'000;
  std::vector<workload::PhoneRecord> records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    records.push_back(generator.GenerateOne(first + i));
  }
  return records;
}

std::map<std::string, std::string> BuildEnvironment() {
  std::map<std::string, std::string> env;
  env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["compiler"] = __VERSION__;
  env["ESSDDS_METRICS"] = obs::kMetricsEnabled ? "ON" : "OFF";
#if ESSDDS_PERSIST
  env["ESSDDS_PERSIST"] = "ON";
#else
  env["ESSDDS_PERSIST"] = "OFF";
#endif
#if ESSDDS_THREADS
  env["ESSDDS_THREADS"] = "ON";
#else
  env["ESSDDS_THREADS"] = "OFF";
#endif
  return env;
}

}  // namespace essdds::perfbench
