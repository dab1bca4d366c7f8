// Service-backed Fig. 5 pipeline.
//
// The sequential overlay pipeline applies its 12 hardware filters
// (1 denoise + 7 matched orientations + 4 texture ridges) one after
// another. Under the runtime service, the independent filters of each
// bank become concurrent tasks on the executor pool — the multi-client
// shape the ROADMAP's production target needs, with per-task latency
// accounted in the service stats.
//
// Determinism: each convolution is a pure function of its input image
// and kernel, and bank fusion (pixelwise max) happens in fixed
// orientation order, so the result is bit-exact with
// run_pipeline_overlay at any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vcgra/runtime/graph.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vision/pipeline.hpp"

namespace vcgra::vision {

/// Full pipeline with the overlay (FloPoCo MAC) engine, hardware filters
/// dispatched through `service`.
PipelineResult run_pipeline_service(const RgbImage& input,
                                    const Mask& field_of_view,
                                    const PipelineParams& params,
                                    const overlay::OverlayArch& arch,
                                    runtime::OverlayService& service);

/// The W-tap adder-tree kernel text convolve_overlay_dcs tiles a filter
/// onto (`param c0..cW-1`, defaults 0). Exposed so tests can compile the
/// specialized kernels from scratch and assert bit-exactness.
std::string dcs_tap_group_kernel(int taps);

/// Cost/result of one Dynamic-Circuit-Specialization convolution.
struct DcsConvResult {
  Image output;
  int jobs = 0;            // tap-group jobs submitted through the service
  int structure_hits = 0;  // ... that performed zero place & route work
  double compile_seconds = 0;     // structural tool-flow time paid
  double specialize_seconds = 0;  // coefficient-binding time paid
  std::uint64_t cycles = 0;   // summed pipelined schedule length of the jobs
  std::uint64_t fp_ops = 0;   // multiplies + adds the grid executed
};

/// Convolution through the real tool flow, the DCS way: the filter's taps
/// are tiled into dot-tree kernels sized to the grid, every tile shape is
/// compiled (placed & routed) at most once per service lifetime, and each
/// tile binds its coefficients via JobRequest::params — so convolving a
/// whole bank of same-sized filters respecializes one cached structure
/// per tap-group width instead of re-running the tool flow per filter.
///
/// Association order is the adder tree + group-order host accumulation,
/// so outputs are NOT comparable to convolve_overlay's sequential-MAC
/// ordering; they are bit-exact against a from-scratch compile of each
/// specialized tap-group kernel (asserted by test_vision).
DcsConvResult convolve_overlay_dcs(const Image& input, const Kernel& kernel,
                                   const overlay::OverlayArch& arch,
                                   runtime::OverlayService& service,
                                   std::uint64_t seed = 1);

/// Tool-flow accounting of a DCS pipeline run.
struct PipelineDcsStats {
  int jobs = 0;            // tap-group jobs over the whole pipeline
  int structure_hits = 0;  // ... that skipped place & route
  double compile_seconds = 0;
  double specialize_seconds = 0;
};

/// Full Fig. 5 pipeline with every hardware filter convolved through
/// convolve_overlay_dcs: the 12 filters tile onto shared dot-tree
/// structures per tap-group width, so the whole demo pipeline re-runs
/// *zero* place & route after the first filter of each width — every
/// later filter (and every later frame on a warm service) is a pure
/// coefficient respecialization. Deterministic: bit-identical at any
/// thread count and across cold/warm services (asserted by test_vision).
///
/// Association order is the DCS adder tree, so stages are close to — but
/// not bit-equal with — run_pipeline_service's sequential-MAC ordering;
/// examples/vessel_segmentation cross-checks the two paths.
PipelineResult run_pipeline_service_dcs(const RgbImage& input,
                                        const Mask& field_of_view,
                                        const PipelineParams& params,
                                        const overlay::OverlayArch& arch,
                                        runtime::OverlayService& service,
                                        PipelineDcsStats* dcs_stats = nullptr);

/// Cost/result of one kernel-graph convolution.
struct GraphConvResult {
  Image output;
  int stages = 0;           // graph stages (tap groups + fold stages)
  int structure_hits = 0;   // admission-time compiles skipped
  int edges_raw = 0;        // interior edges carried as raw bits
  int edges_converted = 0;  // ... that paid a format-convert hop (0 here)
  double compile_seconds = 0;
  double specialize_seconds = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fp_ops = 0;
};

/// Kernel-graph counterpart of convolve_overlay_dcs: the filter's tap
/// groups AND the host-side group fold become ONE KernelGraph — the tap
/// groups feed left-associative chain-add reduction stages
/// (overlay::chain_add_text) over raw-bits edges, so one DAG submission
/// replaces per-group job round trips and the host fp_add_n fold, with
/// zero double round trips anywhere between the input encode and the
/// final image decode. The association order is identical to the DCS
/// engine's group-order host fold, so the output is bit-exact with
/// convolve_overlay_dcs (asserted by test_vision).
GraphConvResult convolve_overlay_graph(const Image& input, const Kernel& kernel,
                                       const overlay::OverlayArch& arch,
                                       runtime::OverlayService& service,
                                       std::uint64_t seed = 1);

/// Graph accounting of a whole pipeline run.
struct PipelineGraphStats {
  int graphs = 0;           // kernel-graph invocations (one per filter bank)
  int stages = 0;           // graph stages across all invocations
  int structure_hits = 0;   // admission compiles skipped
  int edges_raw = 0;        // raw-bits interior edges delivered
  int edges_converted = 0;  // format-convert hops (0: one format throughout)
  double compile_seconds = 0;
  double specialize_seconds = 0;
};

/// Full Fig. 5 pipeline with every hardware filter bank expressed as ONE
/// KernelGraph (all the bank's filters' tap groups plus their reduction
/// stages in a single DAG): three graph submissions replace the DCS
/// path's hundreds of per-group job round trips. Stage outputs are
/// bit-exact with run_pipeline_service_dcs — the graphs preserve the DCS
/// association order — which test_vision asserts; bench_runtime gate [I]
/// holds the speedup.
PipelineResult run_pipeline_service_graph(const RgbImage& input,
                                          const Mask& field_of_view,
                                          const PipelineParams& params,
                                          const overlay::OverlayArch& arch,
                                          runtime::OverlayService& service,
                                          PipelineGraphStats* graph_stats = nullptr);

/// The steady-state frame loop the streaming sessions exist for.
/// Construction admits the three filter banks' kernel graphs ONCE with
/// no baked input streams (the graphs are image-size independent — only
/// the params are bound at admission); run() then streams each frame
/// through per-bank GraphSessions as one chunk of raw-bit views. Per
/// bank, the input image is encoded once in the fabric format and copied
/// into one edge-clamped buffer per distinct tap shift (a 5x5 bank has
/// 25 shifts however many filters it holds); every tap input views its
/// shift's buffer, which the plan executor reads in place. Per-frame
/// cost is host preprocessing plus pure graph datapath: no parsing, no
/// cache lookups, no admission, no job queue, no double tap streams.
/// Outputs are bit-exact with run_pipeline_service_graph — and therefore
/// with run_pipeline_service_dcs — on every frame (asserted by
/// test_graph); bench_runtime gate [I] holds the speedup over the
/// per-job DCS engine and gate [N] the speedup over feeding the same
/// graphs double tap streams.
///
/// run() reuses buffers the runner owns, so one runner serves one
/// caller at a time.
class PipelineGraphRunner {
 public:
  /// One external stream of a pinned bank graph: the tap-group stage
  /// and input (the kernel's real name) it feeds, and the image shift of
  /// the tap it carries.
  struct TapFeed {
    std::string stage;
    std::string input;
    int dx = 0;
    int dy = 0;
  };

  /// One admitted filter bank: its graph, the external streams a frame
  /// feeds it (one per filter tap) and its per-filter response stages.
  struct Bank {
    std::shared_ptr<const runtime::KernelGraph> graph;
    std::vector<TapFeed> taps;
    std::vector<std::string> finals;  // per-filter response stages, bank order
  };

  PipelineGraphRunner(const PipelineParams& params,
                      const overlay::OverlayArch& arch,
                      runtime::OverlayService& service,
                      std::uint64_t seed = 1);
  PipelineGraphRunner(const PipelineGraphRunner&) = delete;
  PipelineGraphRunner& operator=(const PipelineGraphRunner&) = delete;

  /// Segment one frame. `graph_stats` reports this frame's invocation
  /// counters; admission accounting lives in admission_stats().
  PipelineResult run(const RgbImage& input, const Mask& field_of_view,
                     PipelineGraphStats* graph_stats = nullptr);

  /// Tool-flow cost paid once in the constructor (compiles, structure
  /// hits, admitted graphs/stages). Frames never add to it.
  const PipelineGraphStats& admission_stats() const { return admitted_; }

  /// The admitted banks in pipeline order: 0 denoise, 1 matched, 2 ridges.
  const Bank& bank(std::size_t index) const { return banks_.at(index).bank; }

 private:
  struct PinnedBank {
    Bank bank;
    /// Distinct (dx, dy) tap shifts; buffer k of a frame holds shift k.
    std::vector<std::pair<int, int>> shifts;
    /// Admission-built chunk: stage -> canonical input -> view. run()
    /// only points each view at its shift's buffer.
    runtime::GraphChunkViews views;
    /// Shift index of every view, in the views' iteration order.
    std::vector<std::size_t> view_shifts;
  };

  PinnedBank admit_bank(const std::vector<Kernel>& bank, std::uint64_t seed);
  Image bank_response(PinnedBank& bank, const Image& input,
                      PipelineCost& cost, PipelineGraphStats& stats);

  runtime::OverlayService& service_;
  overlay::OverlayArch arch_;
  PipelineParams params_;
  PipelineGraphStats admitted_;
  std::vector<PinnedBank> banks_;  // denoise, matched, ridges
  // Frame scratch shared by every bank and frame: the image as doubles
  // (encode staging, then response decode), its encoding, and the shift
  // buffers, sized for the bank with the most shifts.
  std::vector<double> staging_;
  std::vector<std::uint64_t> encoded_;
  std::vector<std::uint64_t> shifted_;
};

}  // namespace vcgra::vision
