#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "vcgra/telemetry/json.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0
               : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kPerOctave * kOctaves), 0) {}

void LatencyHistogram::add(double seconds) {
  const double ns = seconds * 1e9;
  const double position = ns > 1 ? std::log2(ns) * kPerOctave : 0;
  const std::size_t index = std::min(buckets_.size() - 1,
                                     static_cast<std::size_t>(position));
  ++buckets_[index];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void WindowResult::merge(const WindowResult& other) {
  ops += other.ops;
  failed += other.failed;
  elements += other.elements;
  wall.merge(other.wall);
  slice_p99.insert(slice_p99.end(), other.slice_p99.begin(),
                   other.slice_p99.end());
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank =
      std::clamp(std::ceil(q * static_cast<double>(count_)), 1.0,
                 static_cast<double>(count_));
  double below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double in = static_cast<double>(buckets_[i]);
    if (below + in >= rank) {
      const double fraction = (rank - below - 0.5) / in;
      return std::exp2((static_cast<double>(i) + fraction) / kPerOctave) * 1e-9;
    }
    below += in;
  }
  return std::exp2(static_cast<double>(buckets_.size()) / kPerOctave) * 1e-9;
}

namespace {

// SplitMix64 finalizer: each word is mixed with its position
// independently, so the sum below vectorizes and stays order-sensitive.
inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

}  // namespace

std::uint64_t digest_words(const std::uint64_t* words, std::size_t n,
                           std::uint64_t h) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += mix(words[i] + static_cast<std::uint64_t>(i) * kGolden);
  }
  return mix(h ^ sum ^ (static_cast<std::uint64_t>(n) << 1));
}

std::uint64_t digest_streams(
    const std::map<std::string, std::vector<vcgra::softfloat::FpValue>>&
        streams) {
  std::uint64_t h = 0;
  for (const auto& [name, values] : streams) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      sum += mix(values[i].bits() + static_cast<std::uint64_t>(i) * kGolden);
    }
    for (const char c : name) h = mix(h ^ static_cast<unsigned char>(c));
    h = mix(h ^ sum ^ (static_cast<std::uint64_t>(values.size()) << 1));
  }
  return h;
}

std::uint64_t digest_floats(const std::vector<float>& values, std::uint64_t h) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof bits);
    sum += mix(bits + static_cast<std::uint64_t>(i) * kGolden);
  }
  return mix(h ^ sum ^ (static_cast<std::uint64_t>(values.size()) << 1));
}

std::vector<double> span_seconds(const std::string& trace_json,
                                 const std::string& name) {
  std::vector<double> out;
  vcgra::telemetry::JsonValue doc;
  std::string error;
  if (!vcgra::telemetry::parse_json(trace_json, &doc, &error)) return out;
  const vcgra::telemetry::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const vcgra::telemetry::JsonValue& event : events->array) {
    const vcgra::telemetry::JsonValue* ph = event.find("ph");
    const vcgra::telemetry::JsonValue* ev_name = event.find("name");
    const vcgra::telemetry::JsonValue* dur = event.find("dur");
    if (ph == nullptr || ev_name == nullptr || dur == nullptr) continue;
    if (ph->string != "X" || ev_name->string != name) continue;
    out.push_back(dur->number * 1e-6);  // Chrome trace durations are in us
  }
  return out;
}

}  // namespace perfbench
