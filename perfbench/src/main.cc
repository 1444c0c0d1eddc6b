// Repository benchmark binary. Runs one workload and prints two JSON
// lines on stdout: a detail object (the workload's own metric names,
// environment and check facts), then the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and calls it:
//
//   essdds_perfbench --workload search|kv-socket --seed N
//                    --seconds S --trace 0|1 --scratch DIR --spans FILE

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace essdds::perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "essdds_perfbench: %s\nusage: essdds_perfbench --workload "
               "search|kv-socket --seed N --seconds S --trace 0|1 "
               "--scratch DIR --spans FILE\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scratch_dir.empty()) Usage("--scratch is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

void WriteMetrics(JsonWriter& w, const std::map<std::string, Metric>& metrics) {
  w.BeginObject();
  for (const auto& [name, m] : metrics) {
    w.Key(name).BeginObject().KV("value", m.value).KV("unit", m.unit).EndObject();
  }
  w.EndObject();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::remove_all(args.scratch_dir);
  std::filesystem::create_directories(args.scratch_dir);

  Report report;
  if (args.workload == "search") {
    report = RunSearch(args);
  } else if (args.workload == "kv-socket") {
    report = RunKvSocket(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::filesystem::remove_all(args.scratch_dir);

  report.detail["fail_ratio"] = {
      report.attempted ? static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 1.0,
      "ratio"};
  JsonWriter detail;
  detail.BeginObject().Key("detail").BeginObject();
  detail.KV("workload", args.workload).KV("seed", args.seed);
  detail.KV("seconds", args.seconds).KV("trace", args.trace);
  detail.Key("environment").BeginObject();
  for (const auto& [k, v] : BuildEnvironment()) detail.KV(k, v);
  detail.EndObject();
  detail.Key("facts").BeginObject();
  for (const auto& [k, v] : report.facts) detail.KV(k, v);
  detail.EndObject();
  detail.Key("metrics");
  WriteMetrics(detail, report.detail);
  detail.EndObject().EndObject();
  std::printf("%s\n", detail.str().c_str());

  JsonWriter result;
  result.BeginObject();
  result.KV("correct", report.correct && report.failed == 0);
  result.KV("attempted", report.attempted).KV("failed", report.failed);
  result.Key("metrics");
  WriteMetrics(result, args.trace ? report.layers : report.end_to_end);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace essdds::perfbench

int main(int argc, char** argv) { return essdds::perfbench::Main(argc, argv); }
