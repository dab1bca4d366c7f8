// vessel_frames: one caller streams seeded synthetic fundus frames
// through vision::PipelineGraphRunner — the only workload that goes
// through runtime.graph sessions (raw-bit edges, carried state) and the
// vision host preprocessing.
//
// References, computed before any timing: every frame's stage images
// from the per-job DCS pipeline (run_pipeline_service_dcs, the engine
// the graph path is bit-exact against), and its modeled cycles / MACs
// from the whole-graph path (run_pipeline_service_graph).
#include <algorithm>
#include <stdexcept>

#include "common.hpp"
#include "vcgra/common/rng.hpp"
#include "vcgra/common/strings.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"

namespace perfbench {
namespace {

using namespace vcgra;

constexpr int kFrameSide = 128;
constexpr int kFrames = 2;            // distinct frames, cycled
constexpr int kGraphProbeRuns = 5;    // run_graph invocations of the probe
// About 2 s of frames; a slice's 99th percentile is its slowest frame.
constexpr std::size_t kFramesPerSlice = 30;

std::uint64_t digest_result(const vision::PipelineResult& result) {
  std::uint64_t h = digest_floats(result.stages.matched.data());
  h = digest_floats(result.stages.textured.data(), h);
  return digest_floats(result.stages.segmented.data(), h);
}

/// The filter's tap-group stages plus left-associative chain-add fold
/// stages; returns the final stage's name. This mirrors the tiling of
/// add_filter_graph_stages in src/vision/src/pipeline_service.cpp, which
/// the vision module keeps private: the graph.sweep_ms and
/// graph.fused_group_frac probe needs a GraphResult, and only run_graph
/// on a request built here returns one. Keep the two in step.
std::string add_filter_stages(runtime::GraphRequest& request,
                              const vision::Image& image,
                              const vision::Kernel& kernel,
                              const overlay::OverlayArch& arch,
                              const std::string& prefix) {
  const int taps = kernel.taps();
  const int half = kernel.size / 2;
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);
  std::vector<std::string> pending;
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    runtime::GraphStage stage;
    stage.name = prefix + common::strprintf("g%d", base / group_width);
    stage.kernel_text = vision::dcs_tap_group_kernel(width);
    for (int j = 0; j < width; ++j) {
      const int kx = (base + j) % kernel.size;
      const int ky = (base + j) / kernel.size;
      stage.params[common::strprintf("c%d", j)] = kernel.at(kx, ky);
      std::vector<double>& stream = stage.inputs[common::strprintf("x%d", j)];
      stream.reserve(static_cast<std::size_t>(image.width()) *
                     static_cast<std::size_t>(image.height()));
      for (int y = 0; y < image.height(); ++y) {
        for (int x = 0; x < image.width(); ++x) {
          stream.push_back(
              static_cast<double>(image.sample(x + kx - half, y + ky - half)));
        }
      }
    }
    pending.push_back(stage.name);
    request.stages.push_back(std::move(stage));
  }
  const int fan_in = std::max(2, (arch.num_pes() + 1) / 2);
  for (int fold_index = 0; pending.size() > 1; ++fold_index) {
    const int k = static_cast<int>(
        std::min<std::size_t>(pending.size(), static_cast<std::size_t>(fan_in)));
    runtime::GraphStage fold;
    fold.name = prefix + common::strprintf("fold%d", fold_index);
    fold.kernel_text = overlay::chain_add_text(k);
    for (int j = 0; j < k; ++j) {
      request.edges.push_back({pending[static_cast<std::size_t>(j)], "y",
                               fold.name, common::strprintf("x%d", j)});
    }
    pending.erase(pending.begin(), pending.begin() + k);
    pending.insert(pending.begin(), fold.name);
    request.stages.push_back(std::move(fold));
  }
  return pending.front();
}

class VesselFrames final : public Workload {
 public:
  VesselFrames() {
    // Reduced filter sizes keep a 128x128 frame near 0.1-0.2 s.
    params_.denoise_size = 3;
    params_.matched_size = 5;
    params_.orientations = 3;
    params_.texture_size = 5;
  }

  const char* name() const override { return "vessel_frames"; }
  int client_threads() const override { return 1; }
  // Sessions execute inline on the feeding thread; the pool only serves
  // admission.
  int service_threads() const override { return 1; }

  void prepare(std::uint64_t seed) override {
    vision::FundusParams fparams;
    fparams.width = kFrameSide;
    fparams.height = kFrameSide;
    runtime::ServiceOptions options;
    options.threads = 2;
    runtime::OverlayService reference(options);
    for (int f = 0; f < kFrames; ++f) {
      std::uint64_t state = seed ^ (0x7e55e1ULL + static_cast<std::uint64_t>(f));
      common::Rng rng(common::splitmix64(state));
      Frame frame;
      frame.fundus = vision::generate_fundus(fparams, rng);
      frame.digest = digest_result(vision::run_pipeline_service_dcs(
          frame.fundus.rgb, frame.fundus.field_of_view, params_, arch_,
          reference));
      const vision::PipelineResult graph = vision::run_pipeline_service_graph(
          frame.fundus.rgb, frame.fundus.field_of_view, params_, arch_,
          reference);
      if (digest_result(graph) != frame.digest) ++setup_failures_;
      frame.cycles = graph.cost.cycles;
      frame.macs = graph.cost.macs;
      frames_.push_back(std::move(frame));
    }
  }

  SetupTiming setup() override {
    runner_.reset();
    service_.reset();
    const Clock::time_point start = Clock::now();
    runtime::ServiceOptions options;
    options.threads = service_threads();
    service_ = std::make_unique<runtime::OverlayService>(options);
    // Admission compiles the three bank graphs' structures.
    runner_ = std::make_unique<vision::PipelineGraphRunner>(params_, arch_,
                                                            *service_);
    const Clock::time_point cold_end = Clock::now();
    for (const Frame& frame : frames_) {
      ++setup_ops_;
      if (!frame_ok(frame)) ++setup_failures_;
    }
    return {seconds_between(start, cold_end),
            seconds_between(cold_end, Clock::now())};
  }

  WindowResult run_window(double seconds, std::uint64_t max_ops,
                          LayerSamples* layer) override {
    WindowResult out(kFramesPerSlice);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline && out.ops < max_ops) {
      const Frame& frame = frames_[next_++ % frames_.size()];
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        VCGRA_TRACE_SPAN("bench.frame");
        ok = frame_ok(frame);
      }
      const Clock::time_point done = Clock::now();
      const double wall = seconds_between(t0, done);
      out.record(wall, kFrameSide * kFrameSide);
      if (!ok) ++out.failed;
      if (layer != nullptr) (*layer)["frame"].push_back(wall);
    }
    out.seconds = seconds_between(start, Clock::now());
    return out;
  }

  void traced_probes(LayerSamples& layer) override {
    // Admission of the three bank graphs on the warm service.
    {
      VCGRA_TRACE_SPAN("bench.admit");
      const Clock::time_point t0 = Clock::now();
      const vision::PipelineGraphRunner runner(params_, arch_, *service_);
      layer["graph.admit_ms"].push_back(seconds_between(t0, Clock::now()) /
                                        runner.admission_stats().graphs);
    }

    // Host preprocessing and thresholding of one frame.
    const vision::FundusImage& fundus = frames_.front().fundus;
    const Clock::time_point frame_start = Clock::now();
    const vision::PipelineResult reference =
        runner_->run(fundus.rgb, fundus.field_of_view);
    // Its session feeds are in the trace: count its wall with the frames.
    layer["frame"].push_back(seconds_between(frame_start, Clock::now()));
    vision::Image masked;
    for (int rep = 0; rep < 10; ++rep) {
      VCGRA_TRACE_SPAN("bench.vision_host");
      const Clock::time_point t0 = Clock::now();
      const vision::Image green = fundus.rgb.channel(1);
      const vision::Image equalized =
          vision::equalize_histogram(green, fundus.field_of_view);
      vision::Mask valid;
      masked = vision::remove_optic_disc_and_border(
          equalized, fundus.field_of_view, &valid);
      const float level = vision::quantile_level(reference.stages.textured,
                                                 valid,
                                                 params_.threshold_quantile);
      const vision::Mask segmented =
          vision::threshold(reference.stages.textured, level);
      layer["vision.host_ms"].push_back(seconds_between(t0, Clock::now()));
      if (segmented.empty()) ++setup_failures_;
    }

    // One filter bank as a whole graph through run_graph: the sweep
    // timings and fusion counters sessions do not report.
    runtime::GraphRequest request;
    request.arch = arch_;
    const std::vector<vision::Kernel> bank = vision::matched_filter_bank(
        params_.matched_size, params_.matched_sigma, params_.matched_length,
        params_.orientations);
    std::vector<std::string> finals;
    for (std::size_t f = 0; f < bank.size(); ++f) {
      finals.push_back(add_filter_stages(request, masked, bank[f], arch_,
                                         common::strprintf("f%zu_", f)));
    }
    for (runtime::GraphStage& stage : request.stages) {
      stage.keep_output =
          std::find(finals.begin(), finals.end(), stage.name) != finals.end();
    }
    const std::shared_ptr<const runtime::KernelGraph> graph =
        service_->admit_graph(request);
    std::uint64_t first_digest = 0;
    for (int run = 0; run < kGraphProbeRuns; ++run) {
      VCGRA_TRACE_SPAN("bench.graph_run");
      const runtime::GraphResult result = service_->run_graph(*graph);
      double sweep = 0;
      for (const telemetry::StageTiming& timing : result.stage_timings) {
        sweep += timing.seconds;
      }
      layer["graph.sweep_ms"].push_back(sweep);
      layer["graph.fused_groups"].push_back(result.fused_groups);
      std::uint64_t h = 0;
      for (const auto& [key, bits] : result.bit_outputs) {
        h = digest_words(bits.data(), bits.size(), h);
      }
      if (run == 0) first_digest = h;
      if (h != first_digest || result.bit_outputs.size() != finals.size()) {
        ++setup_failures_;
      }
    }
  }

  void layer_metrics(Report& report, const LayerSamples& layer,
                     const std::string& trace_json) override {
    const auto samples = [&](const char* key) {
      const auto it = layer.find(key);
      return it == layer.end() ? std::vector<double>{} : it->second;
    };
    const auto total = [](const std::vector<double>& v) {
      double sum = 0;
      for (const double x : v) sum += x;
      return sum;
    };
    report.add("graph.admit_ms", median(samples("graph.admit_ms")) * 1e3, "ms",
               "per bank graph, warm service");
    const std::vector<double> feeds = span_seconds(trace_json, "session.feed");
    report.add("graph.feed_ms", median(feeds) * 1e3, "ms",
               common::strprintf("session.feed spans, n=%zu", feeds.size()));
    report.add("graph.sweep_ms", median(samples("graph.sweep_ms")) * 1e3, "ms",
               "matched bank via run_graph, per invocation");
    // Sweeps are the graph.stage spans of the probe's invocations.
    const double sweeps =
        static_cast<double>(span_seconds(trace_json, "graph.stage").size());
    report.add("graph.fused_group_frac",
               sweeps > 0 ? total(samples("graph.fused_groups")) / sweeps : 0.0,
               "ratio", common::strprintf("%.0f sweeps", sweeps));
    report.add("vision.host_ms", median(samples("vision.host_ms")) * 1e3, "ms",
               "equalize + optic-disc removal + threshold, per frame");
    const double frames = total(samples("frame"));
    report.add("vision.graph_frac", frames > 0 ? total(feeds) / frames : 0.0,
               "ratio", "session.feed time / frame wall");
  }

 private:
  struct Frame {
    vision::FundusImage fundus;
    std::uint64_t digest = 0;
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
  };

  bool frame_ok(const Frame& frame) {
    try {
      const vision::PipelineResult result =
          runner_->run(frame.fundus.rgb, frame.fundus.field_of_view);
      return digest_result(result) == frame.digest &&
             result.cost.cycles == frame.cycles &&
             result.cost.macs == frame.macs;
    } catch (const std::exception&) {
      return false;
    }
  }

  vision::PipelineParams params_;
  overlay::OverlayArch arch_;
  std::vector<Frame> frames_;
  std::size_t next_ = 0;
  std::unique_ptr<runtime::OverlayService> service_;
  std::unique_ptr<vision::PipelineGraphRunner> runner_;
};

}  // namespace

std::unique_ptr<Workload> make_vessel_frames() {
  return std::make_unique<VesselFrames>();
}

}  // namespace perfbench
