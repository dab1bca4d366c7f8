// vcgra_perfbench — the repository benchmark program.
//
//   vcgra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 runs one workload untraced and prints its end-to-end
// metrics. --trace 1 is the traced run: every workload runs short
// untraced windows and then a traced window (span tracer on, Chrome trace
// exported to DIR/trace_<workload>.json), followed by the direct layer
// probes; it prints every per-layer metric. Human-readable lines come
// first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// when every operation passed its output and modeled-statistics checks.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"small_jobs", "mixed_queue",
                                      "large_streams", "vessel_frames"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: vcgra_perfbench --workload "
               "{small_jobs|mixed_queue|large_streams|vessel_frames} "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || args.workload == name;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "small_jobs") return make_small_jobs();
  if (name == "mixed_queue") return make_mixed_queue();
  if (name == "large_streams") return make_large_streams();
  return make_vessel_frames();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key : {"model name", "Hardware", "CPU part"}) {
      if (line.rfind(key, 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::size_t start = colon + 1;
          while (start < line.size() && line[start] == ' ') ++start;
          return line.substr(start);
        }
      }
    }
  }
  return "unknown";
}

/// The SIMD lanes softfloat's batch kernels dispatch to on this host.
const char* isa_lanes() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512cd") &&
      __builtin_cpu_supports("avx512dq")) {
    return "avx512";
  }
  return "portable";
#elif defined(__aarch64__)
  return "neon";
#else
  return "portable";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_host(const Args& args,
                const std::vector<std::unique_ptr<Workload>>& workloads) {
  std::ostringstream threads;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    threads << (i ? ", " : "") << "\"" << workloads[i]->name()
            << "\": {\"client\": " << workloads[i]->client_threads()
            << ", \"service\": " << workloads[i]->service_threads() << "}";
  }
  std::printf(
      "host {\"cpu\": \"%s\", \"isa\": \"%s\", \"nproc\": %ld, "
      "\"threads\": {%s}, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      json_escape(cpu_model()).c_str(), isa_lanes(), sysconf(_SC_NPROCESSORS_ONLN),
      threads.str().c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(compiler()).c_str(), json_escape(args.git_sha).c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace);
}

/// Starts a new peak-RSS interval: freed heap goes back to the kernel,
/// then the kernel's high-water mark (VmHWM) is reset to the current
/// resident set. Returns false where the reset is unavailable, in which
/// case rss_peak_mb() covers the whole process lifetime.
bool reset_rss_peak() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident memory since the last reset_rss_peak(), in MB.
double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t arena_grows() {
  return vcgra::telemetry::metrics().counter("exec.arena_grows").value();
}

void print_metrics(const char* scope, const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-13s %-40s = %.6g %s%s%s\n", scope, m.name.c_str(),
                m.value, m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& m : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Set-ups repeat for this long (and at least kMinSetups times) before
/// the timed window and again after it; the median of all is reported.
/// A single set-up takes milliseconds, so one burst of set-ups would
/// sample the host's speed over a fraction of a second only.
constexpr double kSetupSeconds = 1.0;
constexpr int kMinSetups = 3;

struct SetupSamples {
  std::vector<double> totals;
  std::vector<double> cold_shares;

  void run(Workload& w) {
    const Clock::time_point start = Clock::now();
    for (int i = 0;
         i < kMinSetups || seconds_between(start, Clock::now()) < kSetupSeconds;
         ++i) {
      const SetupTiming t = w.setup();
      totals.push_back(t.total());
      cold_shares.push_back(t.cold / t.total());
    }
  }
};

int run_untraced(const Args& args) {
  std::vector<std::unique_ptr<Workload>> list;
  list.push_back(make_workload(args.workload));
  print_host(args, list);
  Workload& w = *list.front();
  w.prepare(args.seed);
  SetupSamples setups;
  setups.run(w);
  // The peak covers the service's run only, not preparing the inputs
  // and references or the earlier set-ups.
  const bool rss_reset = reset_rss_peak();
  const WindowResult window =
      w.run_window(args.seconds, std::numeric_limits<std::uint64_t>::max(),
                   nullptr);
  const double rss_mb = rss_peak_mb();
  setups.run(w);

  const std::uint64_t attempted = window.ops + w.setup_ops();
  const std::uint64_t failed = window.failed + w.setup_failures();
  // Every figure covers the whole window and every operation in it. The
  // tail is the median of the slices' 99th percentiles: a host stall
  // that delays every operation in flight moves the few slices it falls
  // in, while a stall the program repeats shows in every slice. A window
  // too short for one full slice reports its own 99th percentile.
  const std::string n = vcgra::common::strprintf(
      "%llu ops in %.3f s", static_cast<unsigned long long>(window.ops),
      window.seconds);
  const double p99 = window.slice_p99.empty() ? window.wall.quantile(0.99)
                                              : median(window.slice_p99);
  Report report;
  report.add("ops_per_s", window.ops / window.seconds, "1/s", n);
  report.add("op_p50_us", window.wall.quantile(0.50) * 1e6, "us", n);
  report.add("op_p99_us", p99 * 1e6, "us",
             n + vcgra::common::strprintf(
                     "; median of %zu %zu-op slices' p99, whole window %.6g",
                     window.slice_p99.size(), window.ops_per_slice,
                     window.wall.quantile(0.99) * 1e6));
  report.add("melems_per_s", window.elements / window.seconds * 1e-6,
             "Melem/s",
             n + (args.workload == "vessel_frames" ? " (pixels)"
                                                   : " (input samples)"));
  report.add("setup_s", median(setups.totals), "s",
             vcgra::common::strprintf(
                 "median of %zu set-ups (quartiles %.4g, %.4g); cold "
                 "compile pass %.0f%% of it",
                 setups.totals.size(), quantile(setups.totals, 0.25),
                 quantile(setups.totals, 0.75),
                 100 * median(setups.cold_shares)));
  report.add("rss_peak_mb", rss_mb, "MB",
             rss_reset ? "peak during the timed window"
                       : "peak of the whole process (no VmHWM reset)");
  print_metrics(args.workload.c_str(), report);
  // fail_ratio is carried by "attempted"/"failed" in the result line.
  std::printf("metric %-13s %-40s = %.6g ratio  # %llu of %llu ops\n",
              args.workload.c_str(), "fail_ratio",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, report);
  return correct ? 0 : 1;
}

/// Traced windows are bounded by operation count as well as time, so
/// the per-thread span rings (Tracer::kRingCapacity) never wrap, even
/// when one service worker runs every job (about 10 spans per job).
std::uint64_t traced_op_cap(const std::string& workload) {
  if (workload == "small_jobs") return 1500;
  if (workload == "mixed_queue") return 1500;
  if (workload == "large_streams") return 300;
  return 4;  // vessel_frames: ~1000 spans per frame on one thread
}

/// Untraced/traced window pairs behind trace.overhead_frac. The pairs
/// alternate which window runs first, so a host that drifts during the
/// run biases neither side, and the median of the per-pair overheads is
/// reported.
constexpr int kOverheadPairs = 7;

int run_traced(const Args& args) {
  namespace tel = vcgra::telemetry;
  std::vector<std::unique_ptr<Workload>> list;
  for (const char* name : kWorkloads) list.push_back(make_workload(name));
  print_host(args, list);
  std::filesystem::create_directories(args.out_dir);

  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t grows = 0;
  std::vector<vcgra::overlay::CompileReport> compiles;
  const double window = std::min(args.seconds, 2.0);
  for (std::unique_ptr<Workload>& w : list) {
    w->prepare(args.seed);
    w->setup();
    const std::uint64_t grows_before = arena_grows();
    const std::uint64_t cap = traced_op_cap(w->name());
    const auto count = [&](const WindowResult& r) {
      attempted += r.ops;
      failed += r.failed;
    };
    const auto traced_window = [&](LayerSamples* layer) {
      tel::Tracer::reset();
      tel::Tracer::set_enabled(true);
      const WindowResult r = w->run_window(window, cap, layer);
      count(r);
      return r;
    };

    // Tracing overhead: pairs of op-capped windows of the same shape.
    std::vector<double> overheads;
    double traced_ops = 0;
    double traced_seconds = 0;
    double plain_ops = 0;
    double plain_seconds = 0;
    for (int i = 0; i < kOverheadPairs; ++i) {
      WindowResult plain;
      if (i % 2 == 0) plain = w->run_window(window, cap, nullptr);
      const WindowResult traced = traced_window(nullptr);
      tel::Tracer::set_enabled(false);
      dropped += tel::Tracer::dropped_spans();
      if (i % 2 == 1) plain = w->run_window(window, cap, nullptr);
      count(plain);
      overheads.push_back(1.0 - (traced.ops / traced.seconds) /
                                    (plain.ops / plain.seconds));
      traced_ops += traced.ops;
      traced_seconds += traced.seconds;
      plain_ops += plain.ops;
      plain_seconds += plain.seconds;
    }
    report.add(std::string("trace.overhead_frac.") + w->name(),
               median(overheads), "ratio",
               vcgra::common::strprintf(
                   "median of %d pairs of %llu-op windows; traced %.0f/s vs "
                   "untraced %.0f/s overall",
                   kOverheadPairs, static_cast<unsigned long long>(cap),
                   traced_ops / traced_seconds, plain_ops / plain_seconds));

    // Service counters for the per-layer ratios come from this window.
    count(w->run_window(window, std::numeric_limits<std::uint64_t>::max(),
                        nullptr));

    // The traced window the per-layer samples and the trace come from.
    LayerSamples layer;
    traced_window(&layer);
    grows += arena_grows() - grows_before;
    w->traced_probes(layer);
    tel::Tracer::set_enabled(false);
    dropped += tel::Tracer::dropped_spans();
    const std::string trace_json = tel::Tracer::chrome_trace_json();
    const std::string path = args.out_dir + "/trace_" + w->name() + ".json";
    std::ofstream(path) << trace_json;
    std::printf("trace %s %s\n", w->name(), path.c_str());

    w->layer_metrics(report, layer, trace_json);
    for (const vcgra::overlay::CompileReport& r : w->compile_reports()) {
      compiles.push_back(r);
    }
    attempted += w->setup_ops();
    failed += w->setup_failures();
    w.reset();  // release the workload's inputs before the next one
  }
  report.add("trace.dropped_spans", static_cast<double>(dropped), "count",
             "summed over the traced windows");
  report.add("exec.arena_grows", static_cast<double>(grows), "count",
             "exec.arena_grows during the timed windows, after warm-up");

  // Compile stages: mean per structure over the job working sets.
  using vcgra::overlay::CompileReport;
  const std::string over = vcgra::common::strprintf(
      "mean over %zu job working-set structures", compiles.size());
  const auto add_stage = [&](const char* name, double CompileReport::*stage) {
    double sum = 0;
    for (const CompileReport& r : compiles) sum += r.*stage;
    report.add(name, compiles.empty() ? 0.0 : sum / compiles.size() * 1e3,
               "ms", over);
  };
  add_stage("netlist.synth_ms", &CompileReport::synth_seconds);
  add_stage("techmap.map_ms", &CompileReport::map_seconds);
  add_stage("place.place_ms", &CompileReport::place_seconds);
  add_stage("route.route_ms", &CompileReport::route_seconds);

  bool probes_correct = true;
  run_layer_probes(report, args.seed, &probes_correct);
  if (!probes_correct) ++failed;
  ++attempted;  // the probe suite's own correctness check

  print_metrics("layer", report);
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, report);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return args.trace == 1 ? perfbench::run_traced(args)
                           : perfbench::run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcgra_perfbench: %s\n", e.what());
    return 1;
  }
}
