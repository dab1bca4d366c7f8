// Direct layer probes: timed calls into single layers through their
// public functions, outside every end-to-end window. Each probe reports
// the median of many repetitions.
#include <functional>
#include <memory>

#include "common.hpp"
#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/executor_pool.hpp"
#include "vcgra/runtime/overlay_cache.hpp"
#include "vcgra/runtime/reconfig_scheduler.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/exec_plan.hpp"

namespace perfbench {
namespace {

using namespace vcgra;

/// Median seconds of one `fn()` call over `reps` individually timed calls.
double median_call(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(samples));
}

/// Median seconds per call over `blocks` blocks of `calls` back-to-back
/// calls (for calls too short to time one by one).
double median_block(int blocks, int calls, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(seconds_between(t0, Clock::now()) / calls);
  }
  return median(std::move(samples));
}

std::vector<double> random_doubles(std::size_t n, common::Rng& rng) {
  std::vector<double> out(n);
  for (double& v : out) v = 4.0 * rng.next_double() - 2.0;
  return out;
}

void softfloat_probes(Report& report, std::uint64_t seed) {
  constexpr std::size_t kN = 4096;
  common::Rng rng(seed ^ 0x50f7ULL);
  const std::vector<double> da = random_doubles(kN, rng);
  const std::vector<double> db = random_doubles(kN, rng);
  struct Format {
    const char* name;
    softfloat::FpFormat format;
  };
  for (const Format& f : {Format{"fp5_10", {5, 10}}, Format{"fp6_26", {6, 26}},
                          Format{"fp8_23", {8, 23}}}) {
    std::vector<std::uint64_t> a(kN), b(kN), out(kN);
    std::vector<double> dout(kN);
    softfloat::fp_from_double_n(f.format, da.data(), a.data(), kN);
    softfloat::fp_from_double_n(f.format, db.data(), b.data(), kN);
    const std::uint64_t coeff = softfloat::fp_encode_double(f.format, 0.75);
    std::uint64_t acc = 0;
    std::uint32_t filled = 0;
    const std::pair<const char*, std::function<void()>> kernels[] = {
        {"mul", [&] { softfloat::fp_mul_n(f.format, a.data(), b.data(), out.data(), kN); }},
        {"mul_coeff",
         [&] { softfloat::fp_mul_coeff_n(f.format, a.data(), coeff, out.data(), kN); }},
        {"add", [&] { softfloat::fp_add_n(f.format, a.data(), b.data(), out.data(), kN); }},
        {"axpy",
         [&] {
           softfloat::fp_axpy_n(f.format, a.data(), b.data(), coeff, 0,
                                out.data(), kN);
         }},
        {"mac",
         [&] {
           softfloat::fp_mac_n(f.format, a.data(), coeff, 16, out.data(), kN,
                               &acc, &filled);
         }},
        {"from_double",
         [&] { softfloat::fp_from_double_n(f.format, da.data(), out.data(), kN); }},
        {"to_double",
         [&] { softfloat::fp_to_double_n(f.format, a.data(), dout.data(), kN); }},
    };
    for (const auto& [op, fn] : kernels) {
      report.add(common::strprintf("softfloat.%s.%s_ns_per_elem", op, f.name),
                 median_block(15, 16, fn) * 1e9 / kN, "ns",
                 common::strprintf("n=%zu", kN));
    }
  }
}

/// A specialized plan of `kernel` in `arch`, compiled exactly the way the
/// service cache compiles it (canonical structure, then specialize).
struct ProbePlan {
  overlay::ParsedKernel parsed;
  std::shared_ptr<const overlay::CompiledStructure> structure;
  overlay::ParamBinding binding;  // canonical names
  std::shared_ptr<const overlay::Compiled> compiled;
  std::shared_ptr<const overlay::ExecPlan> plan;
};

ProbePlan make_plan(const std::string& text, const overlay::ParamBinding& params,
                    const overlay::OverlayArch& arch) {
  ProbePlan p;
  p.parsed = overlay::parse_kernel_symbolic(text);
  p.structure = std::make_shared<const overlay::CompiledStructure>(
      overlay::compile_structure_canonical(p.parsed, arch, 1));
  p.binding =
      p.parsed.to_canonical(overlay::merge_params(p.parsed.params, params));
  p.compiled = std::make_shared<const overlay::Compiled>(
      overlay::specialize(*p.structure, p.binding));
  p.plan = std::make_shared<const overlay::ExecPlan>(
      overlay::ExecPlan::lower(*p.compiled));
  return p;
}

void exec_probes(Report& report, std::uint64_t seed, bool* correct) {
  constexpr std::size_t kN = 65536;
  const overlay::OverlayArch arch;
  const softfloat::FpFormat format = arch.format;
  const std::vector<std::pair<const char*, hpc::HpcKernel>> suite = {
      {"triad", hpc::make_stream_triad(kN, 3.0, seed)},
      {"axpy", hpc::make_axpy(kN, 2.5, seed)},
      {"dot", hpc::make_dot(kN, 16, seed)},
      {"stencil3", hpc::make_stencil3(kN, 0.25, 0.5, 0.25, seed)},
      {"gemv8", hpc::make_gemv(kN, 8, seed)},
  };
  for (const auto& [name, kernel] : suite) {
    const ProbePlan p = make_plan(kernel.kernel_text, kernel.params, arch);
    const overlay::PlanExecutor executor(p.plan);
    std::map<std::string, std::vector<double>> doubles;
    std::map<std::string, std::vector<std::uint64_t>> bits;
    for (const auto& [real, stream] : kernel.inputs) {
      const std::string& canonical = p.parsed.canonical_name(real);
      doubles[canonical] = stream;
      std::vector<std::uint64_t>& encoded = bits[canonical];
      encoded.resize(stream.size());
      softfloat::fp_from_double_n(format, stream.data(), encoded.data(),
                                  stream.size());
    }
    overlay::BatchInputs raw;
    for (const auto& [canonical, words] : bits) {
      raw[canonical] = overlay::BatchStream{words.data(), nullptr, words.size()};
    }
    // Correctness: the doubles path against the softfloat reference.
    const overlay::RunResult check = executor.run_doubles(doubles);
    const hpc::FpStreams ref = kernel.ref_softfloat(format);
    if (check.outputs.size() != 1 || ref.size() != 1 ||
        check.outputs.begin()->second != ref.begin()->second) {
      *correct = false;
    }
    const double t_bits =
        median_call(9, [&] { (void)executor.run_views(raw); }) * 1e9 / kN;
    const double t_doubles =
        median_call(9, [&] { (void)executor.run_doubles(doubles); }) * 1e9 / kN;
    const std::string note = common::strprintf("n=%zu fp6_26", kN);
    report.add(common::strprintf("exec.bits_ns_per_elem.%s", name), t_bits,
               "ns", note);
    report.add(common::strprintf("exec.doubles_ns_per_elem.%s", name),
               t_doubles, "ns", note);
    report.add(common::strprintf("exec.convert_ns_per_elem.%s", name),
               t_doubles - t_bits, "ns", note);

    if (std::string(name) == "dot") {
      // Chunked streaming with MAC carry, as sessions feed it.
      constexpr std::size_t kChunk = 4096;
      const double t_chunk = median_call(9, [&] {
        overlay::StreamCarry carry;
        for (std::size_t off = 0; off < kN; off += kChunk) {
          overlay::BatchInputs chunk;
          for (const auto& [canonical, words] : bits) {
            chunk[canonical] =
                overlay::BatchStream{words.data() + off, nullptr, kChunk};
          }
          (void)executor.run_chunk(chunk, &carry, /*raw_output=*/true);
        }
      });
      report.add("exec.chunk_ns_per_elem", t_chunk * 1e9 / kN, "ns",
                 common::strprintf("dot, %zu-sample chunks", kChunk));
    }
  }

  // Single-op plans: one tape entry each, timed on raw bits.
  struct OpProbe {
    const char* name;
    const char* text;
    overlay::ExecPlan::OpCode code;
  };
  const OpProbe ops[] = {
      {"mul", "input a;\nparam c = 0.75;\ny = mul(a, c);\noutput y;\n",
       overlay::ExecPlan::OpCode::kMulCoeff},
      {"add", "input a;\ninput b;\ny = add(a, b);\noutput y;\n",
       overlay::ExecPlan::OpCode::kAdd},
      {"axpy",
       "input a;\ninput b;\nparam c = 0.75;\nt = mul(b, c);\ny = add(a, t);\n"
       "output y;\n",
       overlay::ExecPlan::OpCode::kAxpy},
      {"xpay",
       "input a;\ninput b;\nparam c = 0.75;\nt = mul(a, c);\ny = add(t, b);\n"
       "output y;\n",
       overlay::ExecPlan::OpCode::kXpay},
      {"mac", "input a;\nparam c = 1;\ny = mac(a, c, 16);\noutput y;\n",
       overlay::ExecPlan::OpCode::kMac},
  };
  common::Rng rng(seed ^ 0x0b5ULL);
  std::vector<std::uint64_t> a(kN), b(kN);
  {
    const std::vector<double> da = random_doubles(kN, rng);
    const std::vector<double> db = random_doubles(kN, rng);
    softfloat::fp_from_double_n(format, da.data(), a.data(), kN);
    softfloat::fp_from_double_n(format, db.data(), b.data(), kN);
  }
  for (const OpProbe& op : ops) {
    const ProbePlan p = make_plan(op.text, {}, arch);
    const overlay::PlanExecutor executor(p.plan);
    overlay::BatchInputs raw;
    for (const auto& [canonical, buffer] : p.plan->input_buffer_by_name) {
      raw[canonical] = overlay::BatchStream{
          raw.empty() ? a.data() : b.data(), nullptr, kN};
    }
    const bool single = p.plan->tape.size() == 1 &&
                        p.plan->tape.front().code == op.code;
    report.add(common::strprintf("exec.op.%s_ns_per_elem", op.name),
               median_call(9, [&] { (void)executor.run_views(raw); }) * 1e9 / kN,
               "ns",
               single ? common::strprintf("n=%zu", kN)
                      : std::string("WARNING: plan is not a single op"));
  }
}

void runtime_probes(Report& report) {
  constexpr int kReps = 20000;
  {
    runtime::ExecutorPool pool(2);
    for (int i = 0; i < 1000; ++i) pool.submit([] {}).get();
    report.add("pool.roundtrip_us",
               median_call(kReps, [&] { pool.submit([] {}).get(); }) * 1e6,
               "us", "empty task, 2 workers");
  }

  const overlay::OverlayArch arch;
  const hpc::HpcKernel triad = hpc::make_stream_triad(16, 3.0, 1);
  const overlay::ParsedKernel parsed =
      overlay::parse_kernel_symbolic(triad.kernel_text);
  report.add("cache.keys_us", median_call(kReps, [&] {
               (void)runtime::cache_keys(parsed, arch, 1, parsed.params);
             }) * 1e6,
             "us", "triad");

  runtime::OverlayCache cache(128);
  const runtime::CacheKeys keys =
      runtime::cache_keys(parsed, arch, 1, parsed.params);
  const std::shared_ptr<const overlay::Compiled> compiled =
      cache.get_or_specialize(keys, parsed, arch, 1, parsed.params);
  report.add("cache.hit_us", median_call(kReps, [&] {
               (void)cache.get_or_specialize(keys, parsed, arch, 1,
                                             parsed.params);
             }) * 1e6,
             "us", "resident triad specialization");

  runtime::ReconfigScheduler scheduler(
      2, std::make_shared<runtime::RegisterDiffCostModel>());
  const std::string config_key = keys.full();
  report.add("sched.acquire_release_us", median_call(kReps, [&] {
               const runtime::Assignment assignment =
                   scheduler.acquire(config_key, keys.structure, compiled);
               scheduler.release(assignment.instance);
             }) * 1e6,
             "us", "loaded configuration, 2 instances");

  // Front end and the cache write path, on the gemv tile mixed_queue
  // re-specializes with fresh coefficients.
  const hpc::HpcKernel gemv = hpc::make_gemv(16, 8, 1);
  const ProbePlan p = make_plan(gemv.kernel_text, gemv.params, arch);
  report.add("vcgra.parse_us", median_call(2000, [&] {
               (void)overlay::parse_kernel_symbolic(gemv.kernel_text);
             }) * 1e6,
             "us", "8-tap gemv tile");
  report.add("vcgra.specialize_us", median_call(2000, [&] {
               (void)overlay::specialize(*p.structure, p.binding);
             }) * 1e6,
             "us", "8-tap gemv tile");
  report.add("vcgra.lower_us", median_call(2000, [&] {
               (void)overlay::ExecPlan::lower(*p.compiled);
             }) * 1e6,
             "us", "8-tap gemv tile");
}

}  // namespace

void run_layer_probes(Report& report, std::uint64_t seed, bool* correct) {
  softfloat_probes(report, seed);
  exec_probes(report, seed, correct);
  runtime_probes(report);
}

}  // namespace perfbench
