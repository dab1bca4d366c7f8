// The interpreter oracle for jobs run through runtime::OverlayService.
//
// The service executes every job on the precompiled-plan executor. Its
// reference is overlay::Simulator run directly on the SAME artifact the
// overlay cache builds — a canonical (alpha-renamed) compile plus a
// coefficient specialization — with the job's real stream names
// translated at both ends, exactly as the service translates them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/params.hpp"
#include "vcgra/vcgra/simulator.hpp"

namespace vcgra::testing {

/// The Compiled artifact a service builds for one job configuration.
inline overlay::Compiled service_artifact(
    const overlay::ParsedKernel& parsed, const overlay::OverlayArch& arch,
    std::uint64_t seed = 1, const overlay::ParamBinding& params = {}) {
  const overlay::ParamBinding binding =
      overlay::merge_params(parsed.params, params);
  return overlay::specialize(
      overlay::compile_structure_canonical(parsed, arch, seed),
      parsed.names_are_canonical ? binding : parsed.to_canonical(binding));
}

/// Real-name double inputs rekeyed to the artifact's canonical names.
inline std::map<std::string, std::vector<double>> canonical_inputs(
    const overlay::ParsedKernel& parsed,
    const std::map<std::string, std::vector<double>>& inputs) {
  std::map<std::string, std::vector<double>> canonical;
  for (const auto& [name, stream] : inputs) {
    canonical[parsed.canonical_name(name)] = stream;
  }
  return canonical;
}

/// Canonical output names of an interpreter run translated back to the
/// kernel's real names.
inline void real_output_names(const overlay::ParsedKernel& parsed,
                              overlay::RunResult& run) {
  if (parsed.names_are_canonical) return;
  std::map<std::string, std::vector<softfloat::FpValue>> real;
  for (const int out : parsed.dfg.outputs()) {
    const auto index = static_cast<std::size_t>(out);
    const auto it = run.outputs.find(parsed.canonical_dfg.nodes()[index].name);
    if (it != run.outputs.end()) {
      real[parsed.dfg.nodes()[index].name] = it->second;
    }
  }
  run.outputs = std::move(real);
}

/// One job as the service would run it, on the interpreter.
inline overlay::RunResult simulate_job(
    const std::string& kernel_text, const overlay::OverlayArch& arch,
    const std::map<std::string, std::vector<double>>& inputs,
    std::uint64_t seed = 1, const overlay::ParamBinding& params = {}) {
  const overlay::ParsedKernel parsed = overlay::parse_kernel_symbolic(kernel_text);
  overlay::RunResult run =
      overlay::Simulator(service_artifact(parsed, arch, seed, params))
          .run_doubles(canonical_inputs(parsed, inputs));
  real_output_names(parsed, run);
  return run;
}

}  // namespace vcgra::testing
