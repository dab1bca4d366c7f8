#include "vcgra/vision/pipeline_service.hpp"

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vision/filters.hpp"

namespace vcgra::vision {

namespace {

/// Fan a filter bank out over the service and fuse responses in bank
/// order (order matters for bit-exactness of pixelwise_max ties only in
/// NaN cases, but fixed order keeps the guarantee unconditional).
Image bank_response(runtime::OverlayService& service, const Image& input,
                    std::vector<Kernel> bank, const overlay::OverlayArch& arch,
                    PipelineCost& cost) {
  std::vector<std::future<OverlayConvResult>> futures;
  futures.reserve(bank.size());
  telemetry::metrics().counter("vision.filters_submitted").add(bank.size());
  for (Kernel& kernel : bank) {
    futures.push_back(service.submit_task(
        [&input, kernel = std::move(kernel), &arch]() {
          VCGRA_TRACE_SPAN("vision.filter");
          return convolve_overlay(input, kernel, arch);
        }));
  }
  std::vector<Image> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) {
    OverlayConvResult conv = future.get();
    cost.macs += conv.macs;
    cost.cycles += conv.cycles;
    cost.reconfigurations += conv.reconfigured_pes;
    ++cost.filters_applied;
    responses.push_back(std::move(conv.output));
  }
  return pixelwise_max(responses);
}

/// The texture pass's four ridge kernels (negated matched kernels) —
/// one construction shared by every pipeline engine so their banks are
/// coefficient-identical by definition.
std::vector<Kernel> ridge_bank(const PipelineParams& params) {
  std::vector<Kernel> ridges;
  for (const double angle : {0.0, 45.0, 90.0, 135.0}) {
    Kernel ridge = matched_filter_kernel(params.texture_size,
                                         params.texture_sigma,
                                         params.texture_length, angle);
    for (double& w : ridge.weights) w = -w;
    ridges.push_back(std::move(ridge));
  }
  return ridges;
}

}  // namespace

std::string dcs_tap_group_kernel(int taps) {
  if (taps <= 0) {
    throw std::invalid_argument("dcs_tap_group_kernel: taps must be positive");
  }
  // The shared emitter keeps the association order (the bit-exactness
  // contract) in one place across the hpc tiles and this engine.
  return overlay::dot_tree_text(std::vector<double>(static_cast<std::size_t>(taps), 0.0));
}

DcsConvResult convolve_overlay_dcs(const Image& input, const Kernel& kernel,
                                   const overlay::OverlayArch& arch,
                                   runtime::OverlayService& service,
                                   std::uint64_t seed) {
  if (kernel.size <= 0 || kernel.size % 2 == 0) {
    throw std::invalid_argument("convolve_overlay_dcs: kernel size must be odd");
  }
  DcsConvResult result;
  result.output = Image(input.width(), input.height());
  const int taps = kernel.taps();
  const int half = kernel.size / 2;
  // A W-tap dot tree occupies 2W-1 PEs.
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);
  const std::size_t pixels = static_cast<std::size_t>(input.width()) *
                             static_cast<std::size_t>(input.height());

  // One service job per tap group: W shifted image streams in, the
  // group's partial responses out. The shape kernel is shared by every
  // group of the same width (and every same-sized filter the service has
  // seen), so after the first filter of a bank each job is a pure
  // coefficient respecialization.
  std::vector<std::future<runtime::JobResult>> futures;
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    runtime::JobRequest request;
    request.kernel_text = dcs_tap_group_kernel(width);
    request.arch = arch;
    request.seed = seed;
    for (int j = 0; j < width; ++j) {
      const int tap = base + j;
      const int kx = tap % kernel.size, ky = tap / kernel.size;
      request.params[common::strprintf("c%d", j)] = kernel.at(kx, ky);
      std::vector<double>& stream =
          request.inputs[common::strprintf("x%d", j)];
      stream.reserve(pixels);
      for (int y = 0; y < input.height(); ++y) {
        for (int x = 0; x < input.width(); ++x) {
          stream.push_back(static_cast<double>(
              input.sample(x + kx - half, y + ky - half)));
        }
      }
    }
    // Raw-bits job boundary: the fold below consumes u64 encodings
    // directly, so the service never materializes FpValue outputs.
    request.raw_output = true;
    futures.push_back(service.submit(std::move(request)));
  }

  // Fold the groups' partial responses in group order — on raw bit
  // buffers through the batch adder (bit-identical to the scalar fp_add
  // fold), with one batch decode pass at the image boundary.
  std::vector<std::uint64_t> acc(pixels, 0);
  bool first_group = true;
  for (auto& future : futures) {
    const runtime::JobResult job = future.get();
    ++result.jobs;
    if (job.structure_hit) ++result.structure_hits;
    result.compile_seconds += job.compile_seconds;
    result.specialize_seconds += job.specialize_seconds;
    result.cycles += job.run.cycles;
    result.fp_ops += job.run.fp_ops;
    const auto it = job.run.bit_outputs.find("y");
    if (it == job.run.bit_outputs.end() || it->second.size() != pixels) {
      throw std::runtime_error("convolve_overlay_dcs: malformed job output");
    }
    if (first_group) {
      std::copy(it->second.begin(), it->second.end(), acc.begin());
    } else {
      softfloat::fp_add_n(arch.format, acc.data(), it->second.data(),
                          acc.data(), pixels);
    }
    first_group = false;
  }
  std::vector<double> decoded(pixels);
  softfloat::fp_to_double_n(arch.format, acc.data(), decoded.data(), pixels);
  for (std::size_t p = 0; p < pixels; ++p) {
    result.output.data()[p] = static_cast<float>(decoded[p]);
  }
  return result;
}

namespace {

/// Append one filter's kernel-graph stages to `request`: the tap-group
/// stages of convolve_overlay_dcs plus a left-associative chain-add
/// reduction replacing the host fold, wired with raw-bits edges. Returns
/// the name of the stage producing the filter's response (output "y");
/// the caller decides whether to keep it at the boundary.
///
/// With `bake` set, each tap's shifted image stream is baked into the
/// stage spec (the one-shot run_graph path). With `bake` null the
/// stages carry no streams — the PipelineGraphRunner admission mode,
/// where frames arrive later through GraphSession::feed — and `taps`
/// records which stage/input each tap feeds plus its image shift, so
/// the runner can feed the same streams per frame from shift buffers.
std::string add_filter_graph_stages(
    runtime::GraphRequest& request, const Image* bake, const Kernel& kernel,
    const overlay::OverlayArch& arch, const std::string& prefix,
    std::uint64_t seed,
    std::vector<PipelineGraphRunner::TapFeed>* taps_out = nullptr) {
  if (kernel.size <= 0 || kernel.size % 2 == 0) {
    throw std::invalid_argument(
        "convolve_overlay_graph: kernel size must be odd");
  }
  const int taps = kernel.taps();
  const int half = kernel.size / 2;
  const int group_width = std::min(taps, (arch.num_pes() + 1) / 2);

  // Tap-group stages: byte-identical kernel texts, params and shifted
  // streams to the per-job engine, so every structure (and on a warm
  // service every specialization) is shared with it.
  std::vector<std::string> pending;  // stages whose "y" still needs folding
  for (int base = 0; base < taps; base += group_width) {
    const int width = std::min(group_width, taps - base);
    runtime::GraphStage stage;
    stage.name = prefix + common::strprintf("g%d", base / group_width);
    stage.kernel_text = dcs_tap_group_kernel(width);
    stage.seed = seed;
    for (int j = 0; j < width; ++j) {
      const int tap = base + j;
      const int kx = tap % kernel.size, ky = tap / kernel.size;
      stage.params[common::strprintf("c%d", j)] = kernel.at(kx, ky);
      if (taps_out) {
        taps_out->push_back({stage.name, common::strprintf("x%d", j),
                             kx - half, ky - half});
      }
      if (!bake) continue;
      const std::size_t pixels = static_cast<std::size_t>(bake->width()) *
                                 static_cast<std::size_t>(bake->height());
      std::vector<double>& stream = stage.inputs[common::strprintf("x%d", j)];
      stream.reserve(pixels);
      for (int y = 0; y < bake->height(); ++y) {
        for (int x = 0; x < bake->width(); ++x) {
          stream.push_back(static_cast<double>(
              bake->sample(x + kx - half, y + ky - half)));
        }
      }
    }
    pending.push_back(stage.name);
    request.stages.push_back(std::move(stage));
  }

  // Reduction stages: fold the group responses left-associatively (group
  // order — the DCS host fold's association), chaining when the group
  // count exceeds the grid's add fan-in. A chained fold keeps the
  // running sum as the FIRST input of the next stage, preserving strict
  // left-association end to end.
  const int fan_in =
      std::max(2, (arch.num_pes() + 1) / 2);  // K-1 add PEs, routed like a tree
  int fold_index = 0;
  while (pending.size() > 1) {
    const int k = static_cast<int>(
        std::min<std::size_t>(pending.size(), static_cast<std::size_t>(fan_in)));
    runtime::GraphStage fold;
    fold.name = prefix + common::strprintf("fold%d", fold_index++);
    fold.kernel_text = overlay::chain_add_text(k);
    fold.seed = seed;
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

/// One kept graph output ("stage:y"), length-checked against the frame.
const std::vector<std::uint64_t>& graph_response(
    const runtime::GraphResult& run, const std::string& stage,
    std::size_t pixels) {
  const auto it = run.bit_outputs.find(stage + ":y");
  if (it == run.bit_outputs.end() || it->second.size() != pixels) {
    throw std::runtime_error(
        "convolve_overlay_graph: malformed graph output for stage '" + stage +
        "'");
  }
  return it->second;
}

/// Decode one kept graph output into `out`.
void decode_graph_response(const runtime::GraphResult& run,
                           const std::string& stage,
                           const overlay::OverlayArch& arch, Image& out) {
  const std::size_t pixels = out.data().size();
  const std::vector<std::uint64_t>& bits = graph_response(run, stage, pixels);
  std::vector<double> decoded(pixels);
  softfloat::fp_to_double_n(arch.format, bits.data(), decoded.data(), pixels);
  for (std::size_t p = 0; p < pixels; ++p) {
    out.data()[p] = static_cast<float>(decoded[p]);
  }
}

/// dst(x, y) = src(clamp(x + dx), clamp(y + dy)) over a non-empty
/// row-major width x height frame: Image::sample's edge clamp, built as
/// one copy per row plus replicated edge words.
void shift_clamped(const std::uint64_t* src, int width, int height, int dx,
                   int dy, std::uint64_t* dst) {
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t left = static_cast<std::size_t>(std::clamp(-dx, 0, width));
  const std::size_t right = static_cast<std::size_t>(std::clamp(dx, 0, width));
  const std::size_t interior = w - left - right;  // one of left/right is 0
  const std::size_t from = static_cast<std::size_t>(std::max(dx, 0));
  for (int y = 0; y < height; ++y) {
    const std::uint64_t* row =
        src + static_cast<std::size_t>(std::clamp(y + dy, 0, height - 1)) * w;
    std::uint64_t* out = dst + static_cast<std::size_t>(y) * w;
    std::fill_n(out, left, row[0]);
    if (interior > 0) std::copy_n(row + from, interior, out + left);
    std::fill_n(out + left + interior, right, row[w - 1]);
  }
}

}  // namespace

GraphConvResult convolve_overlay_graph(const Image& input, const Kernel& kernel,
                                       const overlay::OverlayArch& arch,
                                       runtime::OverlayService& service,
                                       std::uint64_t seed) {
  runtime::GraphRequest request;
  request.arch = arch;
  const std::string final_stage =
      add_filter_graph_stages(request, &input, kernel, arch, "", seed);
  for (runtime::GraphStage& stage : request.stages) {
    if (stage.name == final_stage) stage.keep_output = true;
  }

  GraphConvResult result;
  const auto graph = service.admit_graph(request);
  for (const auto& stage : graph->stages()) {
    if (stage.structure_hit) ++result.structure_hits;
    result.compile_seconds += stage.compile_seconds;
    result.specialize_seconds += stage.specialize_seconds;
  }
  const runtime::GraphResult run = service.run_graph(*graph);
  result.stages = run.stages;
  result.edges_raw = run.edges_raw;
  result.edges_converted = run.edges_converted;
  result.cycles = run.cycles;
  result.fp_ops = run.fp_ops;
  result.output = Image(input.width(), input.height());
  decode_graph_response(run, final_stage, arch, result.output);
  return result;
}

namespace {

/// Graph counterpart of bank_response_dcs: the WHOLE bank — every
/// filter's tap groups plus its reduction stages — is one KernelGraph,
/// submitted once; only the pixelwise max across filter responses stays
/// host-side (max is not in the PE repertoire). Filters keep the DCS
/// association order, so each response is bit-exact with
/// convolve_overlay_dcs on the same input.
Image bank_response_graph(runtime::OverlayService& service, const Image& input,
                          const std::vector<Kernel>& bank,
                          const overlay::OverlayArch& arch, PipelineCost& cost,
                          PipelineGraphStats& stats) {
  telemetry::metrics().counter("vision.filters_submitted").add(bank.size());
  runtime::GraphRequest request;
  request.arch = arch;
  std::vector<std::string> finals;
  finals.reserve(bank.size());
  for (std::size_t f = 0; f < bank.size(); ++f) {
    finals.push_back(add_filter_graph_stages(
        request, &input, bank[f], arch, common::strprintf("f%zu_", f), 1));
  }
  for (runtime::GraphStage& stage : request.stages) {
    if (std::find(finals.begin(), finals.end(), stage.name) != finals.end()) {
      stage.keep_output = true;
    }
  }

  const auto graph = service.admit_graph(request);
  int compiles = 0;
  for (const auto& stage : graph->stages()) {
    if (stage.structure_hit) {
      ++stats.structure_hits;
    } else {
      ++compiles;
    }
    stats.compile_seconds += stage.compile_seconds;
    stats.specialize_seconds += stage.specialize_seconds;
  }
  const runtime::GraphResult run = service.run_graph(*graph);
  ++stats.graphs;
  stats.stages += run.stages;
  stats.edges_raw += run.edges_raw;
  stats.edges_converted += run.edges_converted;
  cost.macs += run.fp_ops;
  cost.cycles += run.cycles;
  cost.reconfigurations += compiles;  // tool-flow runs, like the DCS path
  cost.filters_applied += static_cast<int>(bank.size());

  std::vector<Image> responses;
  responses.reserve(bank.size());
  for (const std::string& final_stage : finals) {
    Image response(input.width(), input.height());
    decode_graph_response(run, final_stage, arch, response);
    responses.push_back(std::move(response));
  }
  return pixelwise_max(responses);
}

/// DCS counterpart of bank_response: convolve every filter of a bank
/// through the tiled-respecialization engine and fuse in bank order.
/// Filters run sequentially here — each convolution already fans its tap
/// groups out over the executor pool — and order independence of the
/// accounting keeps the result bit-exact at any thread count.
Image bank_response_dcs(runtime::OverlayService& service, const Image& input,
                        const std::vector<Kernel>& bank,
                        const overlay::OverlayArch& arch, PipelineCost& cost,
                        PipelineDcsStats& dcs) {
  std::vector<Image> responses;
  responses.reserve(bank.size());
  telemetry::metrics().counter("vision.filters_submitted").add(bank.size());
  for (const Kernel& kernel : bank) {
    VCGRA_TRACE_SPAN("vision.filter");
    DcsConvResult conv = convolve_overlay_dcs(input, kernel, arch, service);
    cost.macs += conv.fp_ops;
    cost.cycles += conv.cycles;
    // Tool-flow runs are the reconfiguration currency of the DCS path:
    // every job that was not a structure hit placed & routed a grid.
    cost.reconfigurations += conv.jobs - conv.structure_hits;
    ++cost.filters_applied;
    dcs.jobs += conv.jobs;
    dcs.structure_hits += conv.structure_hits;
    dcs.compile_seconds += conv.compile_seconds;
    dcs.specialize_seconds += conv.specialize_seconds;
    responses.push_back(std::move(conv.output));
  }
  return pixelwise_max(responses);
}

}  // namespace

PipelineResult run_pipeline_service_dcs(const RgbImage& input,
                                        const Mask& field_of_view,
                                        const PipelineParams& params,
                                        const overlay::OverlayArch& arch,
                                        runtime::OverlayService& service,
                                        PipelineDcsStats* dcs_stats) {
  PipelineResult result;
  StageImages& stages = result.stages;
  PipelineDcsStats dcs;

  // Software preprocessing (identical to the sequential engines).
  stages.green = input.channel(1);
  stages.equalized = equalize_histogram(stages.green, field_of_view);
  Mask valid;
  stages.masked =
      remove_optic_disc_and_border(stages.equalized, field_of_view, &valid);

  // Denoise gates everything downstream.
  stages.denoised = bank_response_dcs(
      service, stages.masked,
      {gaussian_kernel(params.denoise_size, params.denoise_sigma)}, arch,
      result.cost, dcs);

  // Matched-filter bank, then the texture ridge pass: after the denoise
  // filter placed & routed the tap-group shapes, every one of these
  // filters is pure coefficient respecialization.
  stages.matched = bank_response_dcs(
      service, stages.denoised,
      matched_filter_bank(params.matched_size, params.matched_sigma,
                          params.matched_length, params.orientations),
      arch, result.cost, dcs);

  stages.textured = bank_response_dcs(service, stages.matched,
                                      ridge_bank(params), arch, result.cost,
                                      dcs);

  const float level =
      quantile_level(stages.textured, valid, params.threshold_quantile);
  stages.segmented = threshold(stages.textured, level);
  for (int y = 0; y < stages.segmented.height(); ++y) {
    for (int x = 0; x < stages.segmented.width(); ++x) {
      if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
    }
  }
  if (dcs_stats) *dcs_stats = dcs;
  return result;
}

PipelineResult run_pipeline_service_graph(const RgbImage& input,
                                          const Mask& field_of_view,
                                          const PipelineParams& params,
                                          const overlay::OverlayArch& arch,
                                          runtime::OverlayService& service,
                                          PipelineGraphStats* graph_stats) {
  PipelineResult result;
  StageImages& stages = result.stages;
  PipelineGraphStats stats;

  // Software preprocessing (identical to the sequential engines).
  stages.green = input.channel(1);
  stages.equalized = equalize_histogram(stages.green, field_of_view);
  Mask valid;
  stages.masked =
      remove_optic_disc_and_border(stages.equalized, field_of_view, &valid);

  // One kernel graph per filter bank: denoise, matched, ridges. Each
  // graph carries every tap group and reduction of its bank; only the
  // pixelwise max across filter responses (and the threshold) stay host.
  stages.denoised = bank_response_graph(
      service, stages.masked,
      {gaussian_kernel(params.denoise_size, params.denoise_sigma)}, arch,
      result.cost, stats);

  stages.matched = bank_response_graph(
      service, stages.denoised,
      matched_filter_bank(params.matched_size, params.matched_sigma,
                          params.matched_length, params.orientations),
      arch, result.cost, stats);

  stages.textured = bank_response_graph(service, stages.matched,
                                        ridge_bank(params), arch, result.cost,
                                        stats);

  const float level =
      quantile_level(stages.textured, valid, params.threshold_quantile);
  stages.segmented = threshold(stages.textured, level);
  for (int y = 0; y < stages.segmented.height(); ++y) {
    for (int x = 0; x < stages.segmented.width(); ++x) {
      if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
    }
  }
  if (graph_stats) *graph_stats = stats;
  return result;
}

PipelineGraphRunner::PipelineGraphRunner(const PipelineParams& params,
                                         const overlay::OverlayArch& arch,
                                         runtime::OverlayService& service,
                                         std::uint64_t seed)
    : service_(service), arch_(arch), params_(params) {
  banks_.push_back(admit_bank(
      {gaussian_kernel(params.denoise_size, params.denoise_sigma)}, seed));
  banks_.push_back(admit_bank(
      matched_filter_bank(params.matched_size, params.matched_sigma,
                          params.matched_length, params.orientations),
      seed));
  banks_.push_back(admit_bank(ridge_bank(params), seed));
}

PipelineGraphRunner::PinnedBank PipelineGraphRunner::admit_bank(
    const std::vector<Kernel>& bank, std::uint64_t seed) {
  runtime::GraphRequest request;
  request.arch = arch_;
  PinnedBank pinned;
  Bank& admitted = pinned.bank;
  for (std::size_t f = 0; f < bank.size(); ++f) {
    admitted.finals.push_back(add_filter_graph_stages(
        request, /*bake=*/nullptr, bank[f], arch_,
        common::strprintf("f%zu_", f), seed, &admitted.taps));
  }
  for (runtime::GraphStage& stage : request.stages) {
    if (std::find(admitted.finals.begin(), admitted.finals.end(),
                  stage.name) != admitted.finals.end()) {
      stage.keep_output = true;
    }
  }
  admitted.graph = service_.admit_graph(request);
  ++admitted_.graphs;
  admitted_.stages += static_cast<int>(admitted.graph->stages().size());
  std::map<std::string, const overlay::ParsedKernel*> parsed_of;
  for (const auto& stage : admitted.graph->stages()) {
    if (stage.structure_hit) ++admitted_.structure_hits;
    admitted_.compile_seconds += stage.compile_seconds;
    admitted_.specialize_seconds += stage.specialize_seconds;
    parsed_of[stage.spec.name] = stage.parsed.get();
  }

  // Group the taps by image shift and resolve each tap's view key (stage,
  // canonical input) once: per frame, every tap of one shift — across
  // all the bank's filters — views the same buffer.
  std::map<std::pair<int, int>, std::size_t> shift_index;
  std::map<std::pair<std::string, std::string>, std::size_t> shift_of_view;
  for (const TapFeed& tap : admitted.taps) {
    const auto shift =
        shift_index.emplace(std::make_pair(tap.dx, tap.dy), pinned.shifts.size());
    if (shift.second) pinned.shifts.push_back(shift.first->first);
    const std::string& input =
        parsed_of.at(tap.stage)->canonical_name(tap.input);
    pinned.views[tap.stage][input] = overlay::BatchStream{};
    shift_of_view[{tap.stage, input}] = shift.first->second;
  }
  for (const auto& [stage, inputs] : pinned.views) {
    for (const auto& entry : inputs) {
      pinned.view_shifts.push_back(shift_of_view.at({stage, entry.first}));
    }
  }
  return pinned;
}

Image PipelineGraphRunner::bank_response(PinnedBank& pinned,
                                         const Image& input,
                                         PipelineCost& cost,
                                         PipelineGraphStats& stats) {
  const Bank& bank = pinned.bank;
  telemetry::metrics().counter("vision.filters_submitted").add(bank.finals.size());
  const std::size_t pixels = input.data().size();
  {
    // The frame is one chunk. Encode the image once — fp_from_double_n
    // over double(pixel), the exact bits each tap's double stream would
    // encode to — then fill one clamped buffer per distinct shift and
    // point every tap's view at its shift's buffer.
    VCGRA_TRACE_SPAN("vision.taps");
    staging_.resize(pixels);
    encoded_.resize(pixels);
    std::copy(input.data().begin(), input.data().end(), staging_.begin());
    softfloat::fp_from_double_n(arch_.format, staging_.data(), encoded_.data(),
                                pixels);
    const std::size_t words = pinned.shifts.size() * pixels;
    if (shifted_.size() < words) shifted_.resize(words);
    if (pixels > 0) {
      for (std::size_t k = 0; k < pinned.shifts.size(); ++k) {
        shift_clamped(encoded_.data(), input.width(), input.height(),
                      pinned.shifts[k].first, pinned.shifts[k].second,
                      shifted_.data() + k * pixels);
      }
    }
    std::size_t v = 0;
    for (auto& [stage, inputs] : pinned.views) {
      for (auto& [name, view] : inputs) {
        view = overlay::BatchStream{
            shifted_.data() + pinned.view_shifts[v++] * pixels, nullptr, pixels};
      }
    }
  }

  // A fresh session per frame keeps the chunk counters frame-exact; the
  // stages are stateless (no MAC taps), so carry history is moot anyway.
  const auto session = service_.open_graph_session(bank.graph);
  const runtime::GraphResult run = session->feed_views(pinned.views);
  ++stats.graphs;
  stats.stages += run.stages;
  stats.edges_raw += run.edges_raw;
  stats.edges_converted += run.edges_converted;
  cost.macs += run.fp_ops;
  cost.cycles += run.cycles;
  cost.filters_applied += static_cast<int>(bank.finals.size());

  // Decode each filter's response and fold the pixelwise max in bank
  // order — pixelwise_max's order, without a per-filter image.
  VCGRA_TRACE_SPAN("vision.respond");
  Image response(input.width(), input.height());
  float* out = response.data().data();
  for (std::size_t f = 0; f < bank.finals.size(); ++f) {
    const std::vector<std::uint64_t>& bits =
        graph_response(run, bank.finals[f], pixels);
    softfloat::fp_to_double_n(arch_.format, bits.data(), staging_.data(),
                              pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
      const float value = static_cast<float>(staging_[p]);
      out[p] = f == 0 ? value : std::max(out[p], value);
    }
  }
  return response;
}

PipelineResult PipelineGraphRunner::run(const RgbImage& input,
                                        const Mask& field_of_view,
                                        PipelineGraphStats* graph_stats) {
  PipelineResult result;
  StageImages& stages = result.stages;
  PipelineGraphStats stats;

  // Software preprocessing (identical to the sequential engines).
  stages.green = input.channel(1);
  stages.equalized = equalize_histogram(stages.green, field_of_view);
  Mask valid;
  stages.masked =
      remove_optic_disc_and_border(stages.equalized, field_of_view, &valid);

  stages.denoised =
      bank_response(banks_[0], stages.masked, result.cost, stats);
  stages.matched =
      bank_response(banks_[1], stages.denoised, result.cost, stats);
  stages.textured =
      bank_response(banks_[2], stages.matched, result.cost, stats);

  const float level =
      quantile_level(stages.textured, valid, params_.threshold_quantile);
  stages.segmented = threshold(stages.textured, level);
  for (int y = 0; y < stages.segmented.height(); ++y) {
    for (int x = 0; x < stages.segmented.width(); ++x) {
      if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
    }
  }
  if (graph_stats) *graph_stats = stats;
  return result;
}

PipelineResult run_pipeline_service(const RgbImage& input,
                                    const Mask& field_of_view,
                                    const PipelineParams& params,
                                    const overlay::OverlayArch& arch,
                                    runtime::OverlayService& service) {
  PipelineResult result;
  StageImages& stages = result.stages;

  // Software preprocessing (identical to the sequential engines).
  stages.green = input.channel(1);
  stages.equalized = equalize_histogram(stages.green, field_of_view);
  Mask valid;
  stages.masked =
      remove_optic_disc_and_border(stages.equalized, field_of_view, &valid);

  // Denoise gates everything downstream; run it as a single service task.
  {
    Kernel denoise = gaussian_kernel(params.denoise_size, params.denoise_sigma);
    OverlayConvResult conv =
        service
            .submit_task([&stages, denoise = std::move(denoise), &arch]() {
              VCGRA_TRACE_SPAN("vision.filter");
              return convolve_overlay(stages.masked, denoise, arch);
            })
            .get();
    result.cost.macs += conv.macs;
    result.cost.cycles += conv.cycles;
    result.cost.reconfigurations += conv.reconfigured_pes;
    ++result.cost.filters_applied;
    stages.denoised = std::move(conv.output);
  }

  // Matched-filter bank: all orientations in flight at once.
  stages.matched = bank_response(
      service, stages.denoised,
      matched_filter_bank(params.matched_size, params.matched_sigma,
                          params.matched_length, params.orientations),
      arch, result.cost);

  // Texture pass: four ridge kernels (negated matched kernels).
  stages.textured = bank_response(service, stages.matched, ridge_bank(params),
                                  arch, result.cost);

  // Threshold on the response quantile inside the valid region.
  const float level =
      quantile_level(stages.textured, valid, params.threshold_quantile);
  stages.segmented = threshold(stages.textured, level);
  for (int y = 0; y < stages.segmented.height(); ++y) {
    for (int x = 0; x < stages.segmented.width(); ++x) {
      if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
    }
  }
  return result;
}

}  // namespace vcgra::vision
