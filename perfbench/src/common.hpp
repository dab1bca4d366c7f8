// Shared pieces of the repository benchmark: the metric report, sample
// statistics, output digests and the workload interface.
//
// The benchmark drives the library only through its public API. Every
// workload is a closed loop: a client issues its next operation only
// after the previous one completed (or, for mixed_queue, after the
// oldest of its fixed number of in-flight jobs completed).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/compiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One printed metric: name, value as measured, unit, and an optional
/// note (sample count, source) for the human-readable lines.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Order-sensitive digest of FP output streams (stream names in map
/// order, then every encoding). Equal digests mean bit-identical outputs
/// for any practical purpose; it is the correctness currency of the
/// job workloads.
std::uint64_t digest_streams(
    const std::map<std::string, std::vector<vcgra::softfloat::FpValue>>& streams);
std::uint64_t digest_words(const std::uint64_t* words, std::size_t n,
                           std::uint64_t h = 0);
std::uint64_t digest_floats(const std::vector<float>& values,
                            std::uint64_t h = 0);

/// Caller-observed wall times of operations, in log-spaced buckets
/// (kPerOctave per power of two of nanoseconds, so a bucket is about 1%
/// wide). Its size is fixed and it is allocated and zeroed before the
/// window starts, so the benchmark's own memory does not grow with the
/// number of operations and stays out of rss_peak_mb.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double seconds);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile (q in [0, 1]) in seconds, interpolated
  /// geometrically inside the bucket that holds the rank; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kPerOctave = 64;
  static constexpr int kOctaves = 40;  // 1 ns .. 2^40 ns (18 minutes)
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Outcome of one timed window. Besides the whole window's histogram,
/// every `ops_per_slice` consecutive operations one thread records form
/// a slice, of which only the 99th percentile is kept.
struct WindowResult {
  /// Slice size of the job workloads: at 30k jobs/s a slice spans some
  /// 15 ms, so a host stall that delays every job in flight at once
  /// dominates the few slices it falls in and not the median slice.
  static constexpr std::size_t kOpsPerSlice = 500;

  explicit WindowResult(std::size_t ops_per_slice = kOpsPerSlice)
      : ops_per_slice(ops_per_slice) {
    slice_walls.reserve(ops_per_slice);
  }

  /// One operation that took `wall_seconds`.
  void record(double wall_seconds, double op_elements) {
    ++ops;
    elements += op_elements;
    wall.add(wall_seconds);
    slice_walls.push_back(wall_seconds);
    if (slice_walls.size() == ops_per_slice) {
      slice_p99.push_back(quantile(slice_walls, 0.99));
      slice_walls.clear();
    }
  }
  /// Adds another thread's operations; its unfinished slice is dropped.
  void merge(const WindowResult& other);

  std::uint64_t ops = 0;     // operations attempted (all completed or threw)
  std::uint64_t failed = 0;  // threw, or failed the output/statistics check
  double seconds = 0;        // window wall time
  double elements = 0;       // input samples streamed (pixels for frames)
  LatencyHistogram wall;     // caller-observed wall of every operation
  std::vector<double> slice_p99;  // 99th percentile of each full slice
  std::size_t ops_per_slice;
  std::vector<double> slice_walls;  // the slice being filled
};

/// Wall time of one set-up, split into its cold pass (service
/// construction and cold compile of the working set) and its warm-up
/// pass.
struct SetupTiming {
  double cold = 0;
  double warm = 0;
  double total() const { return cold + warm; }
};

/// Named sample series gathered during a traced window (and the probes
/// that follow it), from which a workload computes its per-layer metrics.
using LayerSamples = std::map<std::string, std::vector<double>>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int client_threads() const = 0;
  virtual int service_threads() const = 0;

  /// Generate inputs and reference results from the seed (untimed).
  virtual void prepare(std::uint64_t seed) = 0;

  /// Construct a fresh service, cold-compile the whole working set and
  /// run one warm-up pass over it. The service stays up for the
  /// following windows.
  virtual SetupTiming setup() = 0;

  /// Closed-loop traffic for `seconds` or `max_ops` operations,
  /// whichever ends first. With `layer` non-null, per-layer samples are
  /// collected as well (the traced window).
  virtual WindowResult run_window(double seconds, std::uint64_t max_ops,
                                  LayerSamples* layer) = 0;

  /// Per-layer metrics of this workload, from its traced window's
  /// samples, the span trace of that window (Chrome JSON) and, for
  /// service counters, its last untraced window. Called once in the
  /// traced run, after the traced window.
  virtual void layer_metrics(Report& /*report*/,
                             const LayerSamples& /*layer*/,
                             const std::string& /*trace_json*/) {}

  /// Work done while the tracer is still on, after the traced window
  /// (probes whose spans belong in this workload's trace).
  virtual void traced_probes(LayerSamples& /*layer*/) {}

  /// Compile reports of every distinct structure of this workload's
  /// working set, compiled while preparing the references.
  virtual std::vector<vcgra::overlay::CompileReport> compile_reports() const {
    return {};
  }

  /// Operations that failed outside the timed windows: reference
  /// disagreements while preparing, and setup/warm-up operations.
  std::uint64_t setup_failures() const { return setup_failures_; }
  std::uint64_t setup_ops() const { return setup_ops_; }

 protected:
  std::uint64_t setup_failures_ = 0;
  std::uint64_t setup_ops_ = 0;
};

std::unique_ptr<Workload> make_small_jobs();
std::unique_ptr<Workload> make_mixed_queue();
std::unique_ptr<Workload> make_large_streams();
std::unique_ptr<Workload> make_vessel_frames();

/// Direct layer probes (softfloat kernels, plan executor, pool, cache,
/// scheduler, front end), run outside every timed window.
void run_layer_probes(Report& report, std::uint64_t seed, bool* correct);

/// Span durations (seconds) of every Chrome trace "X" event named
/// `name` in `trace_json`.
std::vector<double> span_seconds(const std::string& trace_json,
                                 const std::string& name);

}  // namespace perfbench
