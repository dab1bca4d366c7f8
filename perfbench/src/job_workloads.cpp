// The three job workloads: small_jobs, mixed_queue and large_streams.
//
// Every job is an HPC-suite kernel (hpc/kernels.hpp) submitted through
// OverlayService. Each configuration carries two references computed
// before any timing: the bit-exact softfloat reference of its outputs
// (HpcKernel::ref_softfloat, folded into a digest) and the modeled
// cycles / fp_ops / mac_ops of the legacy interpreter run on the same
// canonical structure the service caches. Every timed job is checked
// against both; a mismatch counts as a failed operation.
#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace perfbench {
namespace {

using namespace vcgra;

struct JobConfig {
  std::string kernel_text;
  overlay::ParamBinding params;
  // Shared by configurations that differ only in placement seed.
  std::shared_ptr<const hpc::DoubleStreams> inputs;
  overlay::OverlayArch arch;
  std::uint64_t placement_seed = 1;
  std::size_t samples = 0;  // stream length
  std::uint64_t digest = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t mac_ops = 0;
  bool gemv = false;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0, std::uint64_t c = 0) {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                        (b * 0xc2b2ae3d27d4eb4fULL) ^ (c * 0x165667b19e3779f9ULL);
  return common::splitmix64(state);
}

/// Structures compiled for the interpreter oracle, one per structure key
/// — the same compile_structure_canonical call the service cache makes.
class Oracle {
 public:
  /// Fill `cfg`'s expected output digest (softfloat reference) and
  /// modeled statistics (interpreter). With `stats_from` set, the
  /// statistics are copied from that configuration instead (same
  /// structure and stream length: modeled statistics do not depend on
  /// coefficient values) and the interpreter is skipped. `ref`, when
  /// given, is the kernel's softfloat reference in cfg's format, already
  /// computed. Returns false when the interpreter and the softfloat
  /// reference disagree.
  bool fill(const hpc::HpcKernel& kernel, JobConfig& cfg,
            const JobConfig* stats_from = nullptr,
            const hpc::FpStreams* ref_given = nullptr) {
    const hpc::FpStreams ref = ref_given != nullptr
                                   ? *ref_given
                                   : kernel.ref_softfloat(cfg.arch.format);
    cfg.digest = digest_streams(ref);
    if (stats_from != nullptr) {
      cfg.cycles = stats_from->cycles;
      cfg.fp_ops = stats_from->fp_ops;
      cfg.mac_ops = stats_from->mac_ops;
      return true;
    }
    const overlay::ParsedKernel parsed =
        overlay::parse_kernel_symbolic(cfg.kernel_text);
    const std::string key = runtime::structure_key(
        parsed.structural_text, cfg.arch, cfg.placement_seed);
    std::shared_ptr<const overlay::CompiledStructure>& structure =
        structures_[key];
    if (!structure) {
      structure = std::make_shared<const overlay::CompiledStructure>(
          overlay::compile_structure_canonical(parsed, cfg.arch,
                                               cfg.placement_seed));
    }
    const overlay::Compiled compiled = overlay::specialize(
        *structure,
        parsed.to_canonical(overlay::merge_params(parsed.params, cfg.params)));
    std::map<std::string, std::vector<double>> canonical_inputs;
    for (const auto& [name, stream] : *cfg.inputs) {
      canonical_inputs[parsed.canonical_name(name)] = stream;
    }
    const overlay::RunResult run =
        overlay::Simulator(compiled).run_doubles(canonical_inputs);
    cfg.cycles = run.cycles;
    cfg.fp_ops = run.fp_ops;
    cfg.mac_ops = run.mac_ops;
    // Single-output kernels: the interpreter names its output
    // canonically, the reference by the kernel's real name.
    if (ref.size() != 1 || run.outputs.size() != 1) return false;
    const auto& expect = ref.begin()->second;
    const auto& got = run.outputs.begin()->second;
    if (expect.size() != got.size()) return false;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      if (expect[i].bits() != got[i].bits()) return false;
    }
    return true;
  }

  std::vector<overlay::CompileReport> reports() const {
    std::vector<overlay::CompileReport> out;
    for (const auto& [key, structure] : structures_) {
      out.push_back(structure->report);
    }
    return out;
  }

 private:
  std::map<std::string, std::shared_ptr<const overlay::CompiledStructure>>
      structures_;
};

JobConfig config_of(const hpc::HpcKernel& kernel,
                    const overlay::OverlayArch& arch,
                    std::uint64_t placement_seed,
                    std::shared_ptr<const hpc::DoubleStreams> inputs = nullptr) {
  JobConfig cfg;
  cfg.kernel_text = kernel.kernel_text;
  cfg.params = kernel.params;
  cfg.inputs = inputs ? std::move(inputs)
                      : std::make_shared<const hpc::DoubleStreams>(kernel.inputs);
  cfg.arch = arch;
  cfg.placement_seed = placement_seed;
  cfg.samples = kernel.inputs.begin()->second.size();
  cfg.gemv = kernel.name == "gemv";
  return cfg;
}

bool job_ok(const JobConfig& cfg, const runtime::JobResult& result) {
  return result.run.cycles == cfg.cycles && result.run.fp_ops == cfg.fp_ops &&
         result.run.mac_ops == cfg.mac_ops &&
         digest_streams(result.run.outputs) == cfg.digest;
}

runtime::JobRequest request_of(const JobConfig& cfg) {
  runtime::JobRequest request;
  request.kernel_text = cfg.kernel_text;
  request.arch = cfg.arch;
  request.inputs = *cfg.inputs;
  request.params = cfg.params;
  request.seed = cfg.placement_seed;
  return request;
}

/// Per-client traffic state (one per client thread, or the producer).
struct ClientState {
  int client = 0;
  std::uint64_t next = 0;       // round-robin cursor
  std::uint64_t gemv_jobs = 0;  // gemv jobs issued (fresh-coefficient cadence)
};

/// Maps JobResult stage names to the per-layer metric they feed.
const char* stage_metric(const std::string& stage) {
  if (stage == "cache.lookup") return "service.cache_lookup_us";
  if (stage == "sched.acquire") return "service.sched_acquire_us";
  if (stage == "plan.fetch") return "service.plan_fetch_us";
  if (stage == "exec.run") return "service.exec_run_us";
  return nullptr;  // queue.wait comes from JobResult::queue_seconds
}

class JobWorkload : public Workload {
 public:
  struct Spec {
    const char* name;
    int clients;          // synchronous client threads (0: in-flight producer)
    int inflight;         // jobs the single producer keeps outstanding
    int service_threads;
  };

  explicit JobWorkload(Spec spec) : spec_(spec) {}

  const char* name() const override { return spec_.name; }
  int client_threads() const override {
    return spec_.clients > 0 ? spec_.clients : 1;
  }
  int service_threads() const override { return spec_.service_threads; }

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    build_configs(seed);
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      if (!oracle_.fill(kernels_[i], configs_[i])) ++setup_failures_;
    }
    kernels_.clear();  // references are folded into the configs now
  }

  SetupTiming setup() override {
    service_.reset();
    const Clock::time_point start = Clock::now();
    runtime::ServiceOptions options;
    options.threads = spec_.service_threads;
    service_ = std::make_unique<runtime::OverlayService>(options);
    // The cold pass is the first contact with every configuration of the
    // working set: parse, place & route, specialize, lower a plan.
    for (const std::size_t i : cold_pass_) setup_job(configs_[i]);
    const Clock::time_point cold_end = Clock::now();
    for (const std::size_t i : warm_pass_) setup_job(configs_[i]);
    return {seconds_between(start, cold_end),
            seconds_between(cold_end, Clock::now())};
  }

  WindowResult run_window(double seconds, std::uint64_t max_ops,
                          LayerSamples* layer) override {
    const runtime::ServiceStats before = service_->stats();
    WindowResult result = spec_.clients > 0
                              ? run_clients(seconds, max_ops, layer)
                              : run_producer(seconds, max_ops, layer);
    if (layer == nullptr) {
      untraced_before_ = before;
      untraced_after_ = service_->stats();
    }
    ++windows_;
    return result;
  }

  std::vector<overlay::CompileReport> compile_reports() const override {
    return oracle_.reports();
  }

 protected:
  /// Fill kernels_/configs_ (parallel vectors; prepare() runs the oracle
  /// over kernels_), or configs_ alone with their oracle references;
  /// then traffic_ and the set-up passes. choose() draws from the first
  /// traffic_ configurations (mixed_queue's fresh coefficient sets lie
  /// beyond); both_passes_over_traffic() is the usual pair of passes.
  virtual void build_configs(std::uint64_t seed) = 0;
  virtual std::size_t choose(common::Rng& rng, ClientState& state) = 0;

  void add(hpc::HpcKernel kernel, const overlay::OverlayArch& arch,
           std::uint64_t placement_seed) {
    configs_.push_back(config_of(kernel, arch, placement_seed));
    kernels_.push_back(std::move(kernel));
  }

  void both_passes_over_traffic() {
    cold_pass_.clear();
    for (std::size_t i = 0; i < traffic_; ++i) cold_pass_.push_back(i);
    warm_pass_ = cold_pass_;
  }

  static std::vector<double> series(const LayerSamples& layer,
                                    const char* key) {
    const auto it = layer.find(key);
    return it == layer.end() ? std::vector<double>{} : it->second;
  }
  static double total(const LayerSamples& layer, const char* key) {
    double sum = 0;
    for (const double v : series(layer, key)) sum += v;
    return sum;
  }

  Spec spec_;
  std::uint64_t seed_ = 1;
  // Service statistics around the last untraced window.
  runtime::ServiceStats untraced_before_;
  runtime::ServiceStats untraced_after_;
  std::vector<hpc::HpcKernel> kernels_;
  std::vector<JobConfig> configs_;
  std::size_t traffic_ = 0;
  std::vector<std::size_t> cold_pass_;  // set-up: compile the working set
  std::vector<std::size_t> warm_pass_;  // set-up: warm-up
  Oracle oracle_;

 private:
  void setup_job(const JobConfig& cfg) {
    ++setup_ops_;
    try {
      if (!job_ok(cfg, service_->run(request_of(cfg)))) ++setup_failures_;
    } catch (const std::exception&) {
      ++setup_failures_;
    }
  }

  /// One synchronous job with caller-side timing; fills `out` and, when
  /// tracing, the per-layer samples.
  void one_job(const JobConfig& cfg, WindowResult& out, LayerSamples* layer) {
    runtime::JobRequest request = request_of(cfg);
    runtime::JobResult result;
    bool threw = false;
    Clock::time_point t0;
    Clock::time_point t1;
    Clock::time_point t2;
    {
      VCGRA_TRACE_SPAN("bench.job");
      std::future<runtime::JobResult> future;
      t0 = Clock::now();
      {
        VCGRA_TRACE_SPAN("bench.submit");
        future = service_->submit(std::move(request));
      }
      t1 = Clock::now();
      try {
        VCGRA_TRACE_SPAN("bench.get");
        result = future.get();
      } catch (const std::exception&) {
        threw = true;
      }
      t2 = Clock::now();
    }
    record(cfg, result, threw, seconds_between(t0, t2),
           seconds_between(t0, t1), out, layer);
  }

  void record(const JobConfig& cfg, const runtime::JobResult& result,
              bool threw, double wall, double submit, WindowResult& out,
              LayerSamples* layer) {
    out.record(wall, static_cast<double>(cfg.samples));
    if (threw || !job_ok(cfg, result)) {
      ++out.failed;
      return;
    }
    if (layer == nullptr) return;
    LayerSamples& l = *layer;
    l["wall"].push_back(wall);
    l["service.submit_us"].push_back(submit);
    l["service.queue_wait_us"].push_back(result.queue_seconds);
    l["service.handback_us"].push_back(wall - submit - result.latency_seconds);
    l["latency"].push_back(result.latency_seconds);
    double stage_sum = 0;
    for (const telemetry::StageTiming& stage : result.stages) {
      stage_sum += stage.seconds;
      if (const char* key = stage_metric(stage.name)) {
        l[key].push_back(stage.seconds);
      }
    }
    l["stage_sum"].push_back(stage_sum);
  }

  WindowResult run_clients(double seconds, std::uint64_t max_ops,
                           LayerSamples* layer) {
    const int clients = spec_.clients;
    std::vector<WindowResult> outs(static_cast<std::size_t>(clients));
    std::vector<LayerSamples> layers(static_cast<std::size_t>(clients));
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> issued{0};
    Clock::time_point start;
    Clock::time_point deadline;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::size_t ci = static_cast<std::size_t>(c);
        common::Rng rng(derive_seed(seed_, 101, static_cast<std::uint64_t>(c),
                                    windows_));
        ClientState state;
        state.client = c;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        while (Clock::now() < deadline &&
               issued.fetch_add(1, std::memory_order_relaxed) < max_ops) {
          one_job(configs_[choose(rng, state)], outs[ci],
                  layer != nullptr ? &layers[ci] : nullptr);
        }
      });
    }
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    WindowResult& total = outs.front();
    total.seconds = seconds_between(start, Clock::now());
    for (std::size_t c = 0; c < outs.size(); ++c) {
      if (c > 0) total.merge(outs[c]);
      if (layer != nullptr) {
        for (auto& [key, values] : layers[c]) {
          std::vector<double>& dst = (*layer)[key];
          dst.insert(dst.end(), values.begin(), values.end());
        }
      }
    }
    return std::move(total);
  }

  WindowResult run_producer(double seconds, std::uint64_t max_ops,
                            LayerSamples* layer) {
    struct InFlight {
      std::future<runtime::JobResult> future;
      Clock::time_point t0;
      double submit = 0;
      const JobConfig* cfg = nullptr;
    };
    common::Rng rng(derive_seed(seed_, 202, 0, windows_));
    WindowResult out;
    std::deque<InFlight> queue;
    std::uint64_t issued = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (;;) {
      while (queue.size() < static_cast<std::size_t>(spec_.inflight) &&
             issued < max_ops && Clock::now() < deadline) {
        const JobConfig& cfg = configs_[choose(rng, producer_)];
        runtime::JobRequest request = request_of(cfg);
        InFlight job;
        job.cfg = &cfg;
        job.t0 = Clock::now();
        {
          VCGRA_TRACE_SPAN("bench.submit");
          job.future = service_->submit(std::move(request));
        }
        job.submit = seconds_between(job.t0, Clock::now());
        queue.push_back(std::move(job));
        ++issued;
      }
      if (queue.empty()) break;
      InFlight& job = queue.front();
      runtime::JobResult result;
      bool threw = false;
      try {
        VCGRA_TRACE_SPAN("bench.get");
        result = job.future.get();
      } catch (const std::exception&) {
        threw = true;
      }
      const Clock::time_point done = Clock::now();
      record(*job.cfg, result, threw, seconds_between(job.t0, done),
             job.submit, out, layer);
      queue.pop_front();
    }
    out.seconds = seconds_between(start, Clock::now());
    return out;
  }

  std::unique_ptr<runtime::OverlayService> service_;
  ClientState producer_;  // persists across windows (fresh-set rotation)
  std::uint64_t windows_ = 0;
};

// ---------------------------------------------------------------------------

/// 2 synchronous clients over 32 warm n=16 configurations: the runtime
/// (service, pool, cache lookup, scheduler), not the datapath, decides.
class SmallJobs final : public JobWorkload {
 public:
  SmallJobs() : JobWorkload({"small_jobs", 2, 0, 2}) {}

  void layer_metrics(Report& report, const LayerSamples& layer,
                     const std::string&) override {
    const std::string n = common::strprintf(
        "n=%zu", series(layer, "wall").size());
    for (const char* key :
         {"service.queue_wait_us", "service.cache_lookup_us",
          "service.sched_acquire_us", "service.plan_fetch_us",
          "service.exec_run_us", "service.handback_us"}) {
      report.add(key, median(series(layer, key)) * 1e6, "us", n);
    }
    // Caller wall not covered by submit, the named service stages and
    // the hand-back: what the service's latency leaves unattributed.
    const double wall = total(layer, "wall");
    report.add("service.unattributed_frac",
               wall > 0 ? (total(layer, "latency") - total(layer, "stage_sum")) /
                              wall
                        : 0.0,
               "ratio", n);
  }

 protected:
  void build_configs(std::uint64_t seed) override {
    constexpr std::size_t kN = 16;
    const overlay::OverlayArch arch;
    for (std::uint64_t p = 1; p <= 8; ++p) {
      common::Rng rng(derive_seed(seed, 1, p));
      const auto coeff = [&] { return 0.25 + 2.5 * rng.next_double(); };
      add(hpc::make_stream_triad(kN, coeff(), derive_seed(seed, 2, p)), arch, p);
      add(hpc::make_axpy(kN, coeff(), derive_seed(seed, 3, p)), arch, p);
      add(hpc::make_dot(kN, 16, derive_seed(seed, 4, p)), arch, p);
      add(hpc::make_stencil3(kN, coeff() - 1.5, coeff(), coeff() - 1.5,
                             derive_seed(seed, 5, p)),
          arch, p);
    }
    traffic_ = configs_.size();
    both_passes_over_traffic();
  }

  std::size_t choose(common::Rng& rng, ClientState&) override {
    return static_cast<std::size_t>(rng.next_below(configs_.size()));
  }
};

/// One producer keeping 64 jobs in flight over ~144 configurations with
/// a hot set and fresh-coefficient gemv tiles: submit cost, fusion, the
/// affinity scan and cache writes beside cache reads decide.
class MixedQueue final : public JobWorkload {
 public:
  MixedQueue() : JobWorkload({"mixed_queue", 0, 64, 2}) {}

  // Fresh-coefficient gemv sets, assigned round-robin to the 16 gemv
  // structures: 80 per structure exceeds the cache's 64 specializations
  // per structure, so a set is always evicted before it comes round
  // again and every fresh job really specializes and lowers a plan.
  static constexpr std::size_t kFreshSets = 1280;
  static constexpr std::uint64_t kPlacementSeeds = 16;

  void prepare(std::uint64_t seed) override;

  void layer_metrics(Report& report, const LayerSamples& layer,
                     const std::string&) override {
    report.add("service.submit_us",
               median(series(layer, "service.submit_us")) * 1e6, "us",
               common::strprintf("n=%zu", series(layer, "wall").size()));
    const runtime::ServiceStats& a = untraced_before_;
    const runtime::ServiceStats& b = untraced_after_;
    const double jobs = static_cast<double>(b.jobs_completed - a.jobs_completed);
    const auto frac = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const auto delta = [](std::uint64_t before, std::uint64_t after) {
      return static_cast<double>(after - before);
    };
    const std::string jn = common::strprintf("untraced window, %.0f jobs", jobs);
    const double batched = delta(a.batched_jobs, b.batched_jobs);
    report.add("service.fused_job_frac", frac(batched, jobs), "ratio", jn);
    report.add("service.jobs_per_fused_batch",
               frac(batched, delta(a.fused_batches, b.fused_batches)), "count",
               jn);
    const double hits = delta(a.cache.hits, b.cache.hits);
    const double lookups = hits + delta(a.cache.misses, b.cache.misses);
    report.add("cache.hit_frac", frac(hits, lookups), "ratio", jn);
    report.add("cache.structure_hit_frac",
               frac(hits + delta(a.cache.structure_hits, b.cache.structure_hits) +
                        delta(a.cache.disk_hits, b.cache.disk_hits),
                    lookups),
               "ratio", jn);
    report.add("cache.specializations_per_kjob",
               frac(1000 * delta(a.cache.specializations, b.cache.specializations),
                    jobs),
               "count", jn);
    report.add("cache.plans_built_per_kjob",
               frac(1000 * delta(a.cache.plans_built, b.cache.plans_built), jobs),
               "count", jn);
    report.add("sched.reconfig_per_kjob",
               frac(1000 * delta(a.scheduler.reconfigurations,
                                 b.scheduler.reconfigurations),
                    jobs),
               "count", jn);
    report.add("sched.avoided_frac",
               frac(delta(a.scheduler.reconfigurations_avoided,
                          b.scheduler.reconfigurations_avoided),
                    delta(a.scheduler.assignments, b.scheduler.assignments)),
               "ratio", jn);
  }

 protected:
  void build_configs(std::uint64_t seed) override {
    const std::size_t sizes[] = {16, 256, 1024};
    const overlay::OverlayArch arch;
    for (std::uint64_t p = 1; p <= kPlacementSeeds; ++p) {
      for (std::uint64_t s = 0; s < 3; ++s) {
        const std::size_t n = sizes[s];
        common::Rng rng(derive_seed(seed, 11, p, s));
        add(hpc::make_stream_triad(n, 0.25 + 2.5 * rng.next_double(),
                                   derive_seed(seed, 12, p, s)),
            arch, p);
        add(hpc::make_gemv(n, 8, derive_seed(seed, 13, p, s)), arch, p);
        add(hpc::make_stencil3(n, rng.next_double() - 0.5,
                               rng.next_double() + 0.25,
                               rng.next_double() - 0.5,
                               derive_seed(seed, 14, p, s)),
            arch, p);
      }
    }
    traffic_ = configs_.size();
    both_passes_over_traffic();

    // The hot set holds each kernel at n=16 and at n=256, at seed-chosen
    // placement seeds, so the mix of work per job does not change with
    // the seed.
    common::Rng pick(derive_seed(seed, 15));
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t p =
            static_cast<std::size_t>(pick.next_below(kPlacementSeeds));
        hot_.push_back((p * 3 + s) * 3 + k);  // build order: seed, size, kernel
      }
    }
  }

  std::size_t choose(common::Rng& rng, ClientState& state) override {
    std::size_t i = rng.next_double() < 0.5
                        ? hot_[static_cast<std::size_t>(rng.next_below(hot_.size()))]
                        : static_cast<std::size_t>(rng.next_below(traffic_));
    if (configs_[i].gemv && ++state.gemv_jobs % 8 == 0) {
      i = traffic_ + static_cast<std::size_t>(state.next++ % kFreshSets);
    }
    return i;
  }

 private:
  std::vector<std::size_t> hot_;
};

void MixedQueue::prepare(std::uint64_t seed) {
  JobWorkload::prepare(seed);
    // Fresh-coefficient tiles: a base gemv configuration's rows with a
    // new coefficient set. Modeled statistics equal the base's.
    common::Rng rng(derive_seed(seed, 16));
    std::vector<std::size_t> gemv_bases;
    for (std::size_t i = 0; i < traffic_; ++i) {
      if (configs_[i].gemv) gemv_bases.push_back(i);
    }
    for (std::size_t f = 0; f < kFreshSets; ++f) {
      // Bases are ordered by placement seed: 3 sizes per seed. Sizes
      // rotate rather than being drawn, so the fresh tiles' mix of sizes,
      // and with it the memory their cached plans hold, does not change
      // with the seed.
      const std::size_t seed_slot = f % kPlacementSeeds;
      const std::size_t size_slot = (f / kPlacementSeeds) % 3;
      const std::size_t base = gemv_bases[seed_slot * 3 + size_slot];
      const JobConfig& b = configs_[base];
      const std::size_t taps = b.inputs->size();
      std::vector<std::vector<double>> rows(b.samples,
                                            std::vector<double>(taps));
      for (std::size_t j = 0; j < taps; ++j) {
        const std::vector<double>& column =
            b.inputs->at(common::strprintf("x%zu", j));
        for (std::size_t r = 0; r < b.samples; ++r) rows[r][j] = column[r];
      }
      std::vector<double> coeffs(taps);
      for (double& c : coeffs) c = 2.0 * rng.next_double() - 1.0;
      const hpc::HpcKernel kernel = hpc::make_gemv_tile(rows, coeffs, "gemv");
      JobConfig cfg = config_of(kernel, b.arch, b.placement_seed);
      oracle_.fill(kernel, cfg, &b);
      configs_.push_back(std::move(cfg));
    }
}

/// 2 synchronous clients over the HPC suite at n=65536 in two formats:
/// the op tape, the batch kernels and the double<->bits boundary decide.
///
/// Each of the 10 kernel/format pairs is placed at kPlacementSeeds seeds,
/// and traffic streams through all of them: placement changes no
/// datapath work, but it gives set-up a working set whose compiles
/// dominate set-up time. The cold pass meets every configuration on a
/// short prefix kernel with the same text and coefficients (same cache
/// key, so the plan the traffic runs is lowered there); the warm-up pass
/// runs each kernel/format pair once at full length.
class LargeStreams final : public JobWorkload {
 public:
  LargeStreams() : JobWorkload({"large_streams", 2, 0, 2}) {}

  static constexpr std::size_t kN = 65536;
  static constexpr std::size_t kPrefixN = 256;
  static constexpr std::uint64_t kPlacementSeeds = 12;
  static_assert(kPlacementSeeds % 2 == 0, "seeds split between 2 clients");
  static constexpr std::size_t kPairs = 10;

 protected:
  void build_configs(std::uint64_t seed) override {
    std::vector<hpc::HpcKernel> full;
    std::vector<hpc::HpcKernel> prefix;
    std::vector<overlay::OverlayArch> archs;
    std::uint64_t k = 0;
    for (const softfloat::FpFormat format :
         {softfloat::FpFormat{6, 26}, softfloat::FpFormat{5, 10}}) {
      overlay::OverlayArch arch;
      arch.format = format;
      common::Rng rng(derive_seed(seed, 21, ++k));
      const auto coeff = [&] { return 0.25 + 1.5 * rng.next_double(); };
      const double triad = coeff();
      const double axpy = coeff();
      const double c0 = coeff() - 1.0, c1 = coeff(), c2 = coeff() - 1.0;
      for (const std::size_t n : {kN, kPrefixN}) {
        std::vector<hpc::HpcKernel>& out = n == kN ? full : prefix;
        out.push_back(hpc::make_stream_triad(n, triad, derive_seed(seed, 22, k)));
        out.push_back(hpc::make_axpy(n, axpy, derive_seed(seed, 23, k)));
        out.push_back(hpc::make_dot(n, 16, derive_seed(seed, 24, k)));
        out.push_back(
            hpc::make_stencil3(n, c0, c1, c2, derive_seed(seed, 25, k)));
      }
      full.push_back(hpc::make_gemv(kN, 8, derive_seed(seed, 26, k)));
      prefix.push_back(gemv_prefix(full.back()));
      archs.insert(archs.end(), 5, arch);
    }

    // Traffic: within each placement seed all kernel/format pairs, so
    // consecutive jobs cycle through the kernels and formats.
    std::vector<hpc::FpStreams> refs;  // one per pair, for every seed
    for (std::size_t i = 0; i < kPairs; ++i) {
      refs.push_back(full[i].ref_softfloat(archs[i].format));
    }
    for (std::uint64_t p = 1; p <= kPlacementSeeds; ++p) {
      for (std::size_t i = 0; i < kPairs; ++i) {
        configs_.push_back(config_of(full[i], archs[i], p,
                                     p == 1 ? nullptr : configs_[i].inputs));
        if (!oracle_.fill(full[i], configs_.back(), nullptr, &refs[i])) {
          ++setup_failures_;
        }
      }
    }
    traffic_ = configs_.size();
    for (std::size_t i = 0; i < kPairs; ++i) warm_pass_.push_back(i);
    for (std::uint64_t p = 1; p <= kPlacementSeeds; ++p) {
      for (std::size_t i = 0; i < kPairs; ++i) {
        configs_.push_back(config_of(prefix[i], archs[i], p));
        if (!oracle_.fill(prefix[i], configs_.back())) ++setup_failures_;
        cold_pass_.push_back(configs_.size() - 1);
      }
    }
  }

  // Each client streams every kernel/format pair round robin, over its
  // own placement seeds (p = client + 1, client + 3, ...): the two
  // clients never hold the same configuration at once, so their jobs
  // never fuse. Fusion is mixed_queue's mechanism; here chance meetings
  // of the clients fused a few dozen jobs in some runs and none in
  // others, and each such run's peak memory read 50% higher.
  std::size_t choose(common::Rng&, ClientState& state) override {
    const std::size_t clients = static_cast<std::size_t>(client_threads());
    const std::size_t k = static_cast<std::size_t>(state.next++) %
                          (traffic_ / clients);
    const std::size_t seed_index =
        (k / kPairs) * clients + static_cast<std::size_t>(state.client);
    return seed_index * kPairs + k % kPairs;
  }

 private:
  /// The first kPrefixN rows of a gemv tile with the same coefficients.
  static hpc::HpcKernel gemv_prefix(const hpc::HpcKernel& gemv) {
    const std::size_t taps = gemv.params.size();
    std::vector<std::vector<double>> rows(kPrefixN, std::vector<double>(taps));
    std::vector<double> coeffs(taps);
    for (std::size_t j = 0; j < taps; ++j) {
      coeffs[j] = gemv.params.at(common::strprintf("c%zu", j));
      const std::vector<double>& column =
          gemv.inputs.at(common::strprintf("x%zu", j));
      for (std::size_t r = 0; r < kPrefixN; ++r) rows[r][j] = column[r];
    }
    return hpc::make_gemv_tile(rows, coeffs, "gemv");
  }
};

}  // namespace

std::unique_ptr<Workload> make_small_jobs() {
  return std::make_unique<SmallJobs>();
}
std::unique_ptr<Workload> make_mixed_queue() {
  return std::make_unique<MixedQueue>();
}
std::unique_ptr<Workload> make_large_streams() {
  return std::make_unique<LargeStreams>();
}

}  // namespace perfbench
