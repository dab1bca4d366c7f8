#include "vcgra/vision/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace vcgra::vision {

Image equalize_histogram(const Image& input, const Mask& field_of_view) {
  constexpr int kBins = 256;
  std::vector<std::uint64_t> histogram(kBins, 0);
  std::uint64_t count = 0;
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (field_of_view.at(x, y) < 0.5f) continue;
      const int bin = std::min(
          kBins - 1, static_cast<int>(std::clamp(input.at(x, y), 0.0f, 1.0f) *
                                          (kBins - 1) +
                                      0.5f));
      ++histogram[static_cast<std::size_t>(bin)];
      ++count;
    }
  }
  std::vector<float> cdf(kBins, 0.0f);
  std::uint64_t running = 0;
  for (int b = 0; b < kBins; ++b) {
    running += histogram[static_cast<std::size_t>(b)];
    cdf[static_cast<std::size_t>(b)] =
        count ? static_cast<float>(running) / static_cast<float>(count) : 0.0f;
  }
  Image out(input.width(), input.height());
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (field_of_view.at(x, y) < 0.5f) {
        out.at(x, y) = 0.0f;
        continue;
      }
      const int bin = std::min(
          kBins - 1, static_cast<int>(std::clamp(input.at(x, y), 0.0f, 1.0f) *
                                          (kBins - 1) +
                                      0.5f));
      out.at(x, y) = cdf[static_cast<std::size_t>(bin)];
    }
  }
  return out;
}

Image remove_optic_disc_and_border(const Image& input, const Mask& field_of_view,
                                   Mask* valid_region) {
  // Optic disc: brightest 2% of in-FOV pixels, dilated; border: erode FOV.
  std::vector<float> values;
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (field_of_view.at(x, y) >= 0.5f) values.push_back(input.at(x, y));
    }
  }
  float disc_level = 1.0f;
  if (!values.empty()) {
    // 98th percentile; a view of under 50 pixels takes its maximum.
    const std::size_t k =
        std::min(values.size() - values.size() / 50, values.size() - 1);
    std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                     values.end());
    disc_level = values[k];
  }

  Mask valid(input.width(), input.height(), 0.0f);
  constexpr int kBorder = 6;
  constexpr int kDilate = 5;
  // Mark disc pixels.
  Mask disc(input.width(), input.height(), 0.0f);
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (field_of_view.at(x, y) >= 0.5f && input.at(x, y) >= disc_level) {
        disc.at(x, y) = 1.0f;
      }
    }
  }
  // First pass: classify pixels.
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (field_of_view.at(x, y) < 0.5f) continue;
      bool near_border = false;
      for (int d = -kBorder; d <= kBorder && !near_border; d += kBorder) {
        if (field_of_view.sample(x + d, y) < 0.5f ||
            field_of_view.sample(x, y + d) < 0.5f) {
          near_border = true;
        }
      }
      bool near_disc = false;
      for (int dy = -kDilate; dy <= kDilate && !near_disc; ++dy) {
        for (int dx = -kDilate; dx <= kDilate && !near_disc; ++dx) {
          if (disc.sample(x + dx, y + dy) >= 0.5f) near_disc = true;
        }
      }
      if (!near_border && !near_disc) valid.at(x, y) = 1.0f;
    }
  }
  // Second pass: masked-out pixels take the valid-region mean so the
  // downstream filters see no artificial edges at the mask boundary.
  double mean = 0.0;
  std::uint64_t mean_count = 0;
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (valid.at(x, y) >= 0.5f) {
        mean += input.at(x, y);
        ++mean_count;
      }
    }
  }
  const float fill = mean_count ? static_cast<float>(mean / mean_count) : 0.0f;
  Image out(input.width(), input.height(), fill);
  for (int y = 0; y < input.height(); ++y) {
    for (int x = 0; x < input.width(); ++x) {
      if (valid.at(x, y) >= 0.5f) out.at(x, y) = input.at(x, y);
    }
  }
  if (valid_region) *valid_region = valid;
  return out;
}

float quantile_level(const Image& image, const Mask& region, double quantile) {
  std::vector<float> values;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      if (region.at(x, y) >= 0.5f) values.push_back(image.at(x, y));
    }
  }
  if (values.empty()) return 0.0f;
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(quantile, 0.0, 1.0) * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

namespace {

/// Both engines share the stage logic; `conv` abstracts the convolution.
template <typename ConvFn>
PipelineResult run_pipeline_impl(const RgbImage& input, const Mask& field_of_view,
                                 const PipelineParams& params, ConvFn&& conv) {
  PipelineResult result;
  StageImages& stages = result.stages;

  // --- software preprocessing -------------------------------------------------
  stages.green = input.channel(1);
  stages.equalized = equalize_histogram(stages.green, field_of_view);
  Mask valid;
  stages.masked = remove_optic_disc_and_border(stages.equalized, field_of_view, &valid);

  // --- hardware modules ---------------------------------------------------------
  // Denoise (Gaussian).
  const Kernel denoise =
      gaussian_kernel(params.denoise_size, params.denoise_sigma);
  stages.denoised = conv(stages.masked, denoise);
  ++result.cost.filters_applied;

  // Matched-filter bank: strongest response across orientations.
  const std::vector<Kernel> bank = matched_filter_bank(
      params.matched_size, params.matched_sigma, params.matched_length,
      params.orientations);
  std::vector<Image> responses;
  responses.reserve(bank.size());
  for (const Kernel& kernel : bank) {
    responses.push_back(conv(stages.denoised, kernel));
    ++result.cost.filters_applied;
  }
  stages.matched = pixelwise_max(responses);

  // Texture filter: in the fused response map vessels are bright ridges,
  // so the texture pass uses *ridge* kernels (negated matched kernels) to
  // retain only elongated structures of sufficient thickness. Four
  // orientations cover diagonal vessels as well.
  std::vector<Image> textured;
  for (const double angle : {0.0, 45.0, 90.0, 135.0}) {
    Kernel ridge = matched_filter_kernel(
        params.texture_size, params.texture_sigma, params.texture_length, angle);
    for (double& w : ridge.weights) w = -w;
    textured.push_back(conv(stages.matched, ridge));
    ++result.cost.filters_applied;
  }
  stages.textured = pixelwise_max(textured);

  // Threshold on the response quantile inside the valid region.
  const float level = quantile_level(stages.textured, valid, params.threshold_quantile);
  stages.segmented = threshold(stages.textured, level);
  for (int y = 0; y < stages.segmented.height(); ++y) {
    for (int x = 0; x < stages.segmented.width(); ++x) {
      if (valid.at(x, y) < 0.5f) stages.segmented.at(x, y) = 0.0f;
    }
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(const RgbImage& input, const Mask& field_of_view,
                            const PipelineParams& params) {
  return run_pipeline_impl(input, field_of_view, params,
                           [](const Image& image, const Kernel& kernel) {
                             return convolve(image, kernel);
                           });
}

PipelineResult run_pipeline_overlay(const RgbImage& input, const Mask& field_of_view,
                                    const PipelineParams& params,
                                    const overlay::OverlayArch& arch) {
  PipelineCost cost;
  auto result = run_pipeline_impl(
      input, field_of_view, params,
      [&](const Image& image, const Kernel& kernel) {
        OverlayConvResult conv = convolve_overlay(image, kernel, arch);
        cost.macs += conv.macs;
        cost.cycles += conv.cycles;
        cost.reconfigurations += conv.reconfigured_pes;
        return std::move(conv.output);
      });
  result.cost.macs = cost.macs;
  result.cost.cycles = cost.cycles;
  result.cost.reconfigurations = cost.reconfigurations;
  return result;
}

}  // namespace vcgra::vision
