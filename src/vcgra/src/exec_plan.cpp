#include "vcgra/vcgra/exec_plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::overlay {

using softfloat::FpValue;

namespace {

constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

/// Elements processed per tape sweep: large enough to amortize the
/// per-op dispatch, small enough that a handful of live stream blocks
/// stays cache-resident (1024 x 8 B = 8 KiB per buffer).
constexpr std::size_t kBlockElems = 1024;

}  // namespace

ExecPlan ExecPlan::lower(const Compiled& compiled, const SimOptions& options) {
  ExecPlan plan;
  plan.format = compiled.arch.format;
  plan.sim = options;

  // Reconstruct per-node execution exactly like the interpreter does —
  // settings by node, operand lists and hop latencies recovered from the
  // routed nets. Hops are keyed by (from, to, operand): two routed edges
  // between one node pair (e.g. x*x dual-operand reuse) carry their own
  // latencies instead of silently overwriting each other.
  //
  // This block deliberately duplicates Simulator::run's recovery rather
  // than sharing a helper: the recovery rules are part of what the
  // differential suite cross-checks, so a future recovery bug in one
  // engine fails the suite loudly instead of corrupting both silently.
  std::map<int, const PeSettings*> pe_settings_of_node;
  for (const auto& pe : compiled.settings.pes) {
    if (pe.used) pe_settings_of_node[pe.dfg_node] = &pe;
  }
  std::map<std::tuple<int, int, int>, int> hops_between;
  for (const auto& net : compiled.settings.routes) {
    const int hops = std::max<int>(0, static_cast<int>(net.hops.size()) - 1);
    hops_between[{net.from_node, net.to_node, net.to_operand}] = hops;
  }
  std::map<int, std::vector<std::pair<int, int>>> operands_of;  // node -> (idx, src)
  for (const auto& net : compiled.settings.routes) {
    if (net.to_node >= 0 && pe_settings_of_node.count(net.to_node)) {
      operands_of[net.to_node].emplace_back(net.to_operand, net.from_node);
    }
  }
  for (auto& [node, list] : operands_of) {
    std::sort(list.begin(), list.end());
  }

  const auto hop_of = [&](int from, int to, int operand) {
    const auto it = hops_between.find({from, to, operand});
    return it == hops_between.end() ? 0 : it->second;
  };

  // Dense buffers: declared inputs first, then each value-producing PE.
  std::map<int, std::int32_t> buffer_of;
  for (const auto& [name, node] : compiled.input_node_by_name) {
    buffer_of[node] = plan.num_buffers;
    plan.input_buffer_by_name[name] = plan.num_buffers++;
  }

  std::map<int, int> ready_at;  // inputs implicitly ready at cycle 0
  int deepest = 0;
  std::vector<int> order;
  for (const auto& [node, settings] : pe_settings_of_node) order.push_back(node);
  std::sort(order.begin(), order.end());  // DFG ids are topological

  for (const int node : order) {
    const PeSettings& pe = *pe_settings_of_node.at(node);
    const auto& operands = operands_of[node];
    int start = 0;
    std::vector<std::int32_t> arg_bufs;
    std::vector<std::int32_t> arg_srcs;
    for (const auto& [idx, src] : operands) {
      const auto it = buffer_of.find(src);
      if (it == buffer_of.end()) {
        throw std::invalid_argument(common::strprintf(
            "ExecPlan: operand stream for node %d missing (src %d)", node, src));
      }
      arg_bufs.push_back(it->second);
      arg_srcs.push_back(src);
      start = std::max(start,
                       ready_at[src] + hop_of(src, node, idx) * options.hop_latency);
    }

    Op op;
    op.node = node;
    int latency = 0;
    switch (pe.op) {
      case OpKind::kMul:
        latency = options.mul_latency;
        if (arg_bufs.size() == 1) {
          op.code = OpCode::kMulCoeff;
          op.a = arg_bufs[0];
          op.src_a = arg_srcs[0];
          op.coeff_bits = pe.coeff_bits;
        } else if (arg_bufs.size() == 2) {
          op.code = OpCode::kMulStream;
          op.a = arg_bufs[0];
          op.b = arg_bufs[1];
          op.src_a = arg_srcs[0];
          op.src_b = arg_srcs[1];
        } else {
          throw std::invalid_argument(
              "ExecPlan: mul needs one or two stream operands");
        }
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
        latency = options.add_latency;
        if (arg_bufs.size() != 2) {
          throw std::invalid_argument("ExecPlan: add/sub needs two streams");
        }
        op.code = pe.op == OpKind::kAdd ? OpCode::kAdd : OpCode::kSub;
        op.a = arg_bufs[0];
        op.b = arg_bufs[1];
        op.src_a = arg_srcs[0];
        op.src_b = arg_srcs[1];
        if (pe.op == OpKind::kSub) {
          op.xor_mask = std::uint64_t{1}
                        << (compiled.arch.format.we + compiled.arch.format.wf);
        }
        break;
      case OpKind::kMac:
        latency = options.mul_latency + options.add_latency;
        if (arg_bufs.size() != 1) {
          throw std::invalid_argument("ExecPlan: mac needs one stream operand");
        }
        op.code = OpCode::kMac;
        op.a = arg_bufs[0];
        op.src_a = arg_srcs[0];
        op.coeff_bits = pe.coeff_bits;
        // count == 0 is kept as-is: the interpreter's counter never
        // matches, so such a PE consumes forever and emits nothing.
        op.count = pe.count;
        op.mac_slot = plan.num_mac_ops++;
        break;
      case OpKind::kPass:
        // Pure routing: the node's stream IS its operand's stream. The
        // PE still occupies a pipeline stage, so it keeps a schedule
        // entry but dissolves out of the tape entirely.
        if (arg_bufs.empty()) {
          throw std::invalid_argument("ExecPlan: pass needs a stream operand");
        }
        buffer_of[node] = arg_bufs[0];
        ready_at[node] = start + 1;
        deepest = std::max(deepest, ready_at[node]);
        continue;
      default:
        throw std::invalid_argument("ExecPlan: unexpected PE op");
    }
    op.dst = plan.num_buffers++;
    buffer_of[node] = op.dst;
    plan.tape.push_back(op);
    ready_at[node] = start + latency;
    deepest = std::max(deepest, ready_at[node]);
  }

  for (const auto& [name, node] : compiled.output_node_by_name) {
    const auto src_it = compiled.output_source.find(node);
    if (src_it == compiled.output_source.end()) {
      throw std::invalid_argument("ExecPlan: output without source");
    }
    const int src = src_it->second;
    const auto buf_it = buffer_of.find(src);
    if (buf_it == buffer_of.end()) {
      throw std::invalid_argument("ExecPlan: output stream missing");
    }
    deepest = std::max(deepest,
                       ready_at[src] + hop_of(src, node, 0) * options.hop_latency);
    plan.outputs.push_back({name, buf_it->second, src});
  }
  plan.pipeline_depth = deepest;

  // Fusion peephole: a coefficient-multiply whose stream is consumed by
  // exactly one add/sub (and nothing else — no other op, no output)
  // folds into that consumer as kAxpy/kXpay. The arithmetic is the
  // identical two-rounding sequence; only the intermediate buffer's
  // store/load round trip disappears. The schedule above was computed
  // before fusion, so cycles/depth accounting is untouched.
  {
    std::vector<std::int32_t> producer(
        static_cast<std::size_t>(plan.num_buffers), -1);
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (plan.tape[i].code == OpCode::kMulCoeff) {
        producer[static_cast<std::size_t>(plan.tape[i].dst)] =
            static_cast<std::int32_t>(i);
      }
    }
    std::vector<int> uses(static_cast<std::size_t>(plan.num_buffers), 0);
    for (const Op& op : plan.tape) {
      ++uses[static_cast<std::size_t>(op.a)];
      if (op.b >= 0) ++uses[static_cast<std::size_t>(op.b)];
    }
    for (const OutputSlot& slot : plan.outputs) {
      ++uses[static_cast<std::size_t>(slot.buffer)];
    }
    std::vector<bool> erased(plan.tape.size(), false);
    const auto fusable = [&](std::int32_t buf) {
      return buf >= 0 && producer[static_cast<std::size_t>(buf)] >= 0 &&
             !erased[static_cast<std::size_t>(
                 producer[static_cast<std::size_t>(buf)])] &&
             uses[static_cast<std::size_t>(buf)] == 1;
    };
    for (Op& op : plan.tape) {
      if (op.code != OpCode::kAdd && op.code != OpCode::kSub) continue;
      if (fusable(op.b)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.b)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kAxpy;  // xor_mask (sub's flip) hits the product
        op.b = mul.a;
        op.src_b = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
      } else if (fusable(op.a)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.a)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kXpay;  // xor_mask (sub's flip) hits operand b
        op.a = mul.a;
        op.src_a = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
      }
    }
    std::vector<Op> fused_tape;
    fused_tape.reserve(plan.tape.size());
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (!erased[i]) fused_tape.push_back(plan.tape[i]);
    }
    plan.tape = std::move(fused_tape);
  }

  // Streamability: every buffer's exact rate per input sample is 1/period
  // — period 1 for inputs, multiplied by `count` at each decimating MAC,
  // 0 for a stream that never emits (count 0). A period that would
  // overflow is treated as unequal to everything.
  {
    std::vector<std::uint64_t> period(
        static_cast<std::size_t>(plan.num_buffers), 1);
    for (const Op& op : plan.tape) {
      std::uint64_t p = period[static_cast<std::size_t>(op.a)];
      if (op.b >= 0 && period[static_cast<std::size_t>(op.b)] != p) {
        plan.streamable = false;
      }
      if (op.code == OpCode::kMac &&
          __builtin_mul_overflow(p, std::uint64_t{op.count}, &p)) {
        plan.streamable = false;
      }
      period[static_cast<std::size_t>(op.dst)] = p;
    }
  }
  return plan;
}

// --- ExecArena ---------------------------------------------------------------

ExecArena& ExecArena::this_thread() {
  thread_local ExecArena arena;
  return arena;
}

namespace {

/// Global mirrors of the per-thread arena stats. Steady state records
/// zero grows: a nonzero exec.arena_grows delta over a warm interval
/// means some job shape outgrew every arena it landed on.
struct ArenaMetrics {
  telemetry::Counter& grows = telemetry::metrics().counter("exec.arena_grows");
  telemetry::Gauge& capacity_words =
      telemetry::metrics().gauge("exec.arena_capacity_words");
  telemetry::Gauge& high_water_words =
      telemetry::metrics().gauge("exec.arena_high_water_words");
};

ArenaMetrics& arena_metrics() {
  static ArenaMetrics* m = new ArenaMetrics();  // registry refs never dangle
  return *m;
}

}  // namespace

template <typename T>
void ExecArena::ensure(std::vector<T>& vec, std::size_t n) {
  if (vec.capacity() < n) {
    ++stats_.grows;
    arena_metrics().grows.add();
    vec.reserve(std::max(n, vec.capacity() * 2));
  }
  vec.resize(n);
}

void ExecArena::begin_job(std::size_t buffers, std::size_t jobs,
                          std::size_t mac_ops) {
  ++stats_.jobs;
  used_ = 0;
  ensure(lengths_, buffers * jobs);
  ensure(offsets_, buffers * jobs);
  ensure(stripes_, buffers);
  ensure(mac_states_, mac_ops);
  std::fill(lengths_.begin(), lengths_.end(), kAbsent);
  std::fill(stripes_.begin(), stripes_.end(), Stripe{});
  std::fill(mac_states_.begin(), mac_states_.end(), MacState{});
}

void ExecArena::reserve_words(std::size_t words) {
  stats_.high_water_words = std::max(stats_.high_water_words, words);
  if (pool_.size() < words) {
    ++stats_.grows;
    arena_metrics().grows.add();
    pool_.resize(std::max(words, pool_.size() * 2));
    // Largest arena wins: the gauges answer "how big did arenas get",
    // not "what does thread k hold" (that is thread_arena_stats()).
    arena_metrics().capacity_words.set(static_cast<std::int64_t>(pool_.size()));
  }
  if (static_cast<std::int64_t>(stats_.high_water_words) >
      arena_metrics().high_water_words.value()) {
    arena_metrics().high_water_words.set(
        static_cast<std::int64_t>(stats_.high_water_words));
  }
  stats_.capacity_words = pool_.size();
  used_ = 0;
}

std::uint64_t* ExecArena::take(std::size_t words) {
  if (used_ + words > pool_.size()) {
    throw std::logic_error("ExecArena: job reservation exceeded");
  }
  std::uint64_t* out = pool_.data() + used_;
  used_ += words;
  return out;
}

ResolvedJob& ExecArena::scratch_job(std::size_t streams) {
  ensure(scratch_, streams);
  scratch_.clear();
  return scratch_;
}

// --- PlanExecutor ------------------------------------------------------------

PlanExecutor::PlanExecutor(std::shared_ptr<const ExecPlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) {
    throw std::invalid_argument("PlanExecutor: null plan handle");
  }
}

namespace {

/// Where the core leaves each job's results.
struct CoreOutput {
  /// One per job. An `error` set on entry excludes that job; the core
  /// sets it on a job the acceptance rules reject and fills `run`
  /// (outputs and counters) for every other job.
  PlanExecutor::BatchOutcome* outcomes = nullptr;
  /// Per-job raw-bits flags; nullptr means every job takes `raw`.
  const std::vector<bool>* raw_flags = nullptr;
  bool raw = false;
  /// Views mode (one job): outputs become borrowed arena views here
  /// instead of copies in the outcome.
  PlanExecutor::RunView* view = nullptr;
};

/// One job's acceptance rules — the interpreter's, in its order — and
/// its closed-form op totals: fills column `j` of the segment lengths
/// and the job's counters, returns its input length, or throws the
/// exception a lone run of the job throws. A carried MAC fill completes
/// its window early, so a chunk emits every fold the carry plus this
/// chunk's samples complete.
std::size_t size_job(const ExecPlan& plan, const ResolvedJob& job,
                     std::size_t j, std::size_t njobs,
                     const StreamCarry* carry, std::size_t* lens,
                     RunResult& run) {
  std::size_t length = 0;  // first nonzero wins, mismatches throw
  for (const ResolvedStream& entry : job) {
    if (length == 0) length = entry.stream.size;
    if (entry.stream.size != length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
  }
  const auto len_of = [&](std::int32_t buffer) -> std::size_t& {
    return lens[static_cast<std::size_t>(buffer) * njobs + j];
  };
  for (const ResolvedStream& entry : job) {
    if (entry.buffer < 0 || entry.buffer >= plan.num_buffers) {
      throw std::invalid_argument(
          "PlanExecutor: resolved stream buffer index out of range");
    }
    const BatchStream& s = entry.stream;
    if (s.size > 0 && !s.bits && !s.doubles && !s.values) {
      throw std::invalid_argument("PlanExecutor: input stream has no data");
    }
    std::size_t& slot = len_of(entry.buffer);
    if (slot != kAbsent) {
      throw std::invalid_argument("PlanExecutor: duplicate resolved input stream");
    }
    slot = s.size;
  }

  std::uint64_t fp_ops = 0, mac_ops = 0;
  for (const ExecPlan::Op& op : plan.tape) {
    const std::size_t la = len_of(op.a);
    if (la == kAbsent) {
      throw std::runtime_error(common::strprintf(
          "PlanExecutor: operand stream for node %d missing (src %d)", op.node,
          op.src_a));
    }
    std::size_t lb = 0;
    if (op.b >= 0) {
      lb = len_of(op.b);
      if (lb == kAbsent) {
        throw std::runtime_error(common::strprintf(
            "PlanExecutor: operand stream for node %d missing (src %d)",
            op.node, op.src_b));
      }
    }
    std::size_t ld = la;
    switch (op.code) {
      case ExecPlan::OpCode::kMulCoeff:
        fp_ops += la;
        break;
      case ExecPlan::OpCode::kMulStream:
        // The interpreter streams args[0]'s length and indexes into
        // args[1]; a shorter second operand would read out of bounds
        // there, so reject it loudly here.
        if (lb < la) {
          throw std::runtime_error(
              "PlanExecutor: mul stream operands shorter than the first");
        }
        fp_ops += la;
        break;
      case ExecPlan::OpCode::kAdd:
      case ExecPlan::OpCode::kSub:
        if (la != lb) {
          throw std::runtime_error("PlanExecutor: add/sub needs two equal streams");
        }
        fp_ops += la;
        break;
      case ExecPlan::OpCode::kAxpy:
      case ExecPlan::OpCode::kXpay:
        // A fused multiply + add: the product stream the interpreter
        // materializes has operand b's (kAxpy) / operand a's (kXpay)
        // length, and the add still demands equal streams.
        if (la != lb) {
          throw std::runtime_error("PlanExecutor: add/sub needs two equal streams");
        }
        fp_ops += 2 * la;
        break;
      case ExecPlan::OpCode::kMac: {
        const std::size_t fill =
            carry ? carry->mac[static_cast<std::size_t>(op.mac_slot)].filled : 0;
        ld = op.count ? (fill + la) / op.count : 0;
        fp_ops += 2 * la;
        mac_ops += la;
        break;
      }
    }
    len_of(op.dst) = ld;
  }
  for (const ExecPlan::OutputSlot& slot : plan.outputs) {
    if (len_of(slot.buffer) == kAbsent) {
      throw std::runtime_error("PlanExecutor: output stream missing");
    }
  }

  // Session counters are cumulative, and cycles stay closed-form over
  // the whole stream: at initiation interval 1 a session fills its
  // pipeline once, not once per chunk.
  std::uint64_t samples = length;
  if (carry) {
    samples += carry->total_samples;
    fp_ops += carry->fp_ops;
    mac_ops += carry->mac_ops;
  }
  run.pipeline_depth = plan.pipeline_depth;
  run.cycles = static_cast<std::uint64_t>(plan.pipeline_depth) +
               (samples > 0 ? samples - 1 : 0);
  run.fp_ops = fp_ops;
  run.mac_ops = mac_ops;
  return length;
}

/// dst = op(a, b) over `n` aligned elements.
void apply_elementwise(const softfloat::FpFormat& format, const ExecPlan::Op& op,
                       const std::uint64_t* pa, const std::uint64_t* pb,
                       std::uint64_t* pd, std::size_t n) {
  switch (op.code) {
    case ExecPlan::OpCode::kMulCoeff:
      softfloat::fp_mul_coeff_n(format, pa, op.coeff_bits, pd, n);
      break;
    case ExecPlan::OpCode::kMulStream:
      softfloat::fp_mul_n(format, pa, pb, pd, n);
      break;
    case ExecPlan::OpCode::kAdd:
      softfloat::fp_add_n(format, pa, pb, pd, n);
      break;
    case ExecPlan::OpCode::kSub:
      softfloat::fp_add_xor_n(format, pa, pb, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kAxpy:
      softfloat::fp_axpy_n(format, pa, pb, op.coeff_bits, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kXpay:
      softfloat::fp_xpay_n(format, pa, op.coeff_bits, pb, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kMac:
      break;  // never elementwise
  }
}

/// The tape sweep over the stripes the core laid out. Every buffer's
/// written words are a prefix of its stripe, and a job's segment only
/// becomes readable once every earlier job's segment is complete, so
/// one `produced` cursor per stripe is the whole progress state.
struct Sweep {
  softfloat::FpFormat format;
  std::size_t njobs;
  const std::vector<std::size_t>& lens;
  const std::vector<std::size_t>& offsets;
  std::vector<ExecArena::Stripe>& stripes;
  std::vector<ExecArena::MacState>& mac;

  std::uint64_t* at(std::int32_t buffer, std::size_t pos) const {
    return stripes[static_cast<std::size_t>(buffer)].data + pos;
  }

  /// Advance one op as far as its operands allow.
  void step(const ExecPlan::Op& op) {
    const ExecArena::Stripe& sa = stripes[static_cast<std::size_t>(op.a)];
    ExecArena::Stripe& sd = stripes[static_cast<std::size_t>(op.dst)];
    if (op.code == ExecPlan::OpCode::kMac) return fold(op, sa, sd);
    if (op.code == ExecPlan::OpCode::kMulStream &&
        stripes[static_cast<std::size_t>(op.b)].size != sa.size) {
      return mul_misaligned(op, sa, sd);
    }
    // Aligned: a, b and dst have equal lengths in every job, so one
    // stripe position is one element of one job in all three.
    std::size_t avail = sa.produced;
    if (op.b >= 0) {
      avail = std::min(avail, stripes[static_cast<std::size_t>(op.b)].produced);
    }
    if (avail <= sd.produced) return;
    const std::size_t done = sd.produced;
    apply_elementwise(format, op, at(op.a, done),
                      op.b >= 0 ? at(op.b, done) : nullptr, at(op.dst, done),
                      avail - done);
    sd.produced = avail;
  }

  /// Decimating MAC: folds job by job, restarting the accumulator at
  /// the start of every job segment but the stripe's first (which keeps
  /// a carried or fresh state).
  void fold(const ExecPlan::Op& op, const ExecArena::Stripe& sa,
            ExecArena::Stripe& sd) {
    ExecArena::MacState& state = mac[static_cast<std::size_t>(op.mac_slot)];
    if (op.count == 0) {  // never emits; the accumulator is unobservable
      state.consumed = sa.produced;
      return;
    }
    const std::size_t a0 = static_cast<std::size_t>(op.a) * njobs;
    for (std::size_t j = 0; j < njobs && state.consumed < sa.produced; ++j) {
      const std::size_t len = lens[a0 + j];
      if (len == kAbsent) continue;
      const std::size_t begin = offsets[a0 + j];
      const std::size_t end = begin + len;
      if (state.consumed >= end) continue;
      if (state.consumed == begin && begin > 0) {
        state.acc = 0;
        state.filled = 0;
      }
      const std::size_t n = std::min(end, sa.produced) - state.consumed;
      sd.produced += softfloat::fp_mac_n(
          format, at(op.a, state.consumed), op.coeff_bits, op.count,
          at(op.dst, sd.produced), n, &state.acc, &state.filled);
      state.consumed += n;
    }
  }

  /// A two-stream mul whose second operand is longer than the first in
  /// some job: a and dst still align, b is read per job segment.
  void mul_misaligned(const ExecPlan::Op& op, const ExecArena::Stripe& sa,
                      ExecArena::Stripe& sd) {
    const ExecArena::Stripe& sb = stripes[static_cast<std::size_t>(op.b)];
    const std::size_t a0 = static_cast<std::size_t>(op.a) * njobs;
    const std::size_t b0 = static_cast<std::size_t>(op.b) * njobs;
    for (std::size_t j = 0; j < njobs; ++j) {
      const std::size_t len = lens[a0 + j];
      if (len == kAbsent) continue;
      const std::size_t begin = offsets[a0 + j];
      const std::size_t end = begin + len;
      if (sd.produced >= end) continue;
      const std::size_t b_begin = offsets[b0 + j];
      const std::size_t b_ready = sb.produced > b_begin ? sb.produced - b_begin : 0;
      const std::size_t avail =
          std::min({end, sa.produced, begin + std::min(b_ready, len)});
      if (avail > sd.produced) {
        const std::size_t done = sd.produced;
        softfloat::fp_mul_n(format, at(op.a, done),
                            at(op.b, b_begin + (done - begin)), at(op.dst, done),
                            avail - done);
        sd.produced = avail;
      }
      if (avail < end) return;  // later jobs wait for this one
    }
  }
};

/// The one execution core behind every PlanExecutor entry point: size
/// and validate each job (capturing a rejection per job), lay each
/// buffer out as a stripe of the accepted jobs' segments, encode every
/// input once, sweep the tape once in kBlockElems blocks over the
/// stripes, and materialize the outputs once in the requested mode.
/// `carry` (one job only) seeds the MAC states and receives them back.
void execute_core(const ExecPlan& plan, const ResolvedJob* jobs,
                  std::size_t njobs, StreamCarry* carry, const CoreOutput& out) {
  const std::size_t buffers = static_cast<std::size_t>(plan.num_buffers);
  const std::size_t mac_ops = static_cast<std::size_t>(plan.num_mac_ops);
  if (carry != nullptr) {
    if (carry->mac.empty()) {
      carry->mac.resize(mac_ops);
    } else if (carry->mac.size() != mac_ops) {
      throw std::invalid_argument(
          "PlanExecutor: carry was opened against a different plan shape");
    }
  }

  ExecArena& arena = ExecArena::this_thread();
  arena.begin_job(buffers, njobs, mac_ops);
  std::vector<std::size_t>& lens = arena.lengths();
  std::size_t length = 0;
  for (std::size_t j = 0; j < njobs; ++j) {
    PlanExecutor::BatchOutcome& o = out.outcomes[j];
    if (o.error) continue;
    try {
      length = size_job(plan, jobs[j], j, njobs, carry, lens.data(), o.run);
    } catch (...) {
      // A rejected job contributes nothing to the stripes; the rest of
      // the batch is unaffected.
      o.error = std::current_exception();
      o.run = RunResult{};
      for (std::size_t b = 0; b < buffers; ++b) lens[b * njobs + j] = kAbsent;
    }
  }

  // Stripes: per buffer, the accepted jobs' segments back to back in job
  // order, so aligned operand stripes match element for element.
  std::vector<ExecArena::Stripe>& stripes = arena.stripes();
  std::vector<std::size_t>& offsets = arena.offsets();
  for (std::size_t b = 0; b < buffers; ++b) {
    for (std::size_t j = 0; j < njobs; ++j) {
      const std::size_t i = b * njobs + j;
      if (lens[i] == kAbsent) continue;
      offsets[i] = stripes[b].size;
      stripes[b].size += lens[i];
      ++stripes[b].segments;
    }
  }
  // A raw-bits input that is its stripe's only segment is read in place:
  // the stripe borrows the caller's storage. The sweep only ever writes
  // op destinations, never input buffers, so the const_cast never
  // becomes a write.
  const auto borrowed = [&](const ResolvedStream& entry) {
    return entry.stream.bits != nullptr &&
           stripes[static_cast<std::size_t>(entry.buffer)].segments == 1;
  };
  for (std::size_t j = 0; j < njobs; ++j) {
    if (out.outcomes[j].error) continue;
    for (const ResolvedStream& entry : jobs[j]) {
      if (!borrowed(entry)) continue;
      stripes[static_cast<std::size_t>(entry.buffer)].data =
          const_cast<std::uint64_t*>(entry.stream.bits);
    }
  }
  std::size_t total_words = 0;
  for (const ExecArena::Stripe& stripe : stripes) {
    if (stripe.data == nullptr) total_words += stripe.size;
  }
  arena.reserve_words(total_words);
  for (ExecArena::Stripe& stripe : stripes) {
    if (stripe.data == nullptr) stripe.data = arena.take(stripe.size);
  }

  // Boundary pass: every provided stream of every accepted job that is
  // not read in place — bits copied, doubles batch-encoded, FpValues
  // unwrapped into its segment.
  const softfloat::FpFormat format = plan.format;
  std::uint64_t span_start = telemetry::child_span_start();
  for (std::size_t j = 0; j < njobs; ++j) {
    if (out.outcomes[j].error) continue;
    for (const ResolvedStream& entry : jobs[j]) {
      if (borrowed(entry)) continue;
      const std::size_t b = static_cast<std::size_t>(entry.buffer);
      std::uint64_t* dst = stripes[b].data + offsets[b * njobs + j];
      const BatchStream& s = entry.stream;
      if (s.bits) {
        std::copy(s.bits, s.bits + s.size, dst);
      } else if (s.doubles) {
        softfloat::fp_from_double_n(format, s.doubles, dst, s.size);
      } else {
        for (std::size_t k = 0; k < s.size; ++k) dst[k] = s.values[k].bits();
      }
    }
  }
  telemetry::record_child_span("exec.encode", span_start);
  span_start = telemetry::child_span_start();

  std::vector<ExecArena::MacState>& mac = arena.mac_states();
  if (carry != nullptr) {
    // `consumed` restarts at zero: it indexes this chunk's stripe.
    for (std::size_t s = 0; s < mac_ops; ++s) {
      mac[s].acc = carry->mac[s].acc;
      mac[s].filled = carry->mac[s].filled;
    }
  }
  // Inputs are the plan's first buffers. Each block releases the next
  // kBlockElems input positions and lets every op catch up to them.
  const std::size_t num_inputs = plan.input_buffer_by_name.size();
  std::size_t input_words = 0;
  for (std::size_t b = 0; b < num_inputs; ++b) {
    input_words = std::max(input_words, stripes[b].size);
  }
  Sweep sweep{format, njobs, lens, offsets, stripes, mac};
  for (std::size_t pos = 0; pos < input_words;) {
    pos = std::min(input_words, pos + kBlockElems);
    for (std::size_t b = 0; b < num_inputs; ++b) {
      stripes[b].produced = std::min(stripes[b].size, pos);
    }
    for (const ExecPlan::Op& op : plan.tape) sweep.step(op);
  }
  telemetry::record_child_span("exec.tape", span_start);
  span_start = telemetry::child_span_start();

  for (std::size_t j = 0; j < njobs; ++j) {
    PlanExecutor::BatchOutcome& o = out.outcomes[j];
    if (o.error) continue;
    const bool raw = out.raw_flags ? (*out.raw_flags)[j] : out.raw;
    for (const ExecPlan::OutputSlot& slot : plan.outputs) {
      const std::size_t i = static_cast<std::size_t>(slot.buffer) * njobs + j;
      const std::uint64_t* p =
          stripes[static_cast<std::size_t>(slot.buffer)].data + offsets[i];
      if (out.view) {
        out.view->outputs.emplace_back(
            slot.name, PlanExecutor::BitStreamView{p, lens[i]});
      } else if (raw) {
        o.run.bit_outputs.emplace(slot.name,
                                  std::vector<std::uint64_t>(p, p + lens[i]));
      } else {
        std::vector<FpValue> stream(lens[i]);
        for (std::size_t k = 0; k < lens[i]; ++k) {
          stream[k] = FpValue(format, p[k]);
        }
        o.run.outputs.emplace(slot.name, std::move(stream));
      }
    }
  }
  telemetry::record_child_span("exec.decode", span_start);

  if (carry != nullptr && !out.outcomes[0].error) {
    for (std::size_t s = 0; s < mac_ops; ++s) {
      carry->mac[s].acc = mac[s].acc;
      carry->mac[s].filled = mac[s].filled;
      carry->mac[s].consumed += mac[s].consumed;
    }
    carry->total_samples += length;
    carry->fp_ops = out.outcomes[0].run.fp_ops;
    carry->mac_ops = out.outcomes[0].run.mac_ops;
  }
}

BatchStream view_of(const std::vector<double>& stream) {
  return {nullptr, stream.data(), stream.size()};
}
BatchStream view_of(const std::vector<FpValue>& stream) {
  return {nullptr, nullptr, stream.size(), stream.data()};
}
const BatchStream& view_of(const BatchStream& stream) { return stream; }

/// Resolve one name-keyed job into `job`, with the single-job acceptance
/// order (length mismatch before unknown name).
template <typename StreamMap>
void resolve_named(const ExecPlan& plan, const StreamMap& inputs,
                   ResolvedJob& job) {
  std::size_t length = 0;
  for (const auto& [name, stream] : inputs) {
    const std::size_t size = view_of(stream).size;
    if (length == 0) length = size;
    if (size != length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
  }
  for (const auto& [name, stream] : inputs) {
    const auto it = plan.input_buffer_by_name.find(name);
    if (it == plan.input_buffer_by_name.end()) {
      throw std::invalid_argument("PlanExecutor: unknown input stream '" +
                                  name + "'");
    }
    job.push_back(ResolvedStream{it->second, view_of(stream)});
  }
}

/// One name-keyed job through the core, rethrowing its rejection.
template <typename StreamMap>
RunResult run_one(const ExecPlan& plan, const StreamMap& inputs,
                  StreamCarry* carry, bool raw,
                  PlanExecutor::RunView* view = nullptr) {
  ResolvedJob& job = ExecArena::this_thread().scratch_job(inputs.size());
  resolve_named(plan, inputs, job);
  PlanExecutor::BatchOutcome outcome;
  CoreOutput out;
  out.outcomes = &outcome;
  out.raw = raw;
  out.view = view;
  execute_core(plan, &job, 1, carry, out);
  if (outcome.error) std::rethrow_exception(outcome.error);
  return std::move(outcome.run);
}

void check_raw_flags(const std::vector<bool>& raw_outputs, std::size_t njobs) {
  if (!raw_outputs.empty() && raw_outputs.size() != njobs) {
    throw std::invalid_argument(
        "PlanExecutor: raw_outputs must be empty or one flag per job");
  }
}

}  // namespace

RunResult PlanExecutor::run(
    const std::map<std::string, std::vector<FpValue>>& inputs) const {
  return run_one(*plan_, inputs, nullptr, false);
}

RunResult PlanExecutor::run_doubles(
    const std::map<std::string, std::vector<double>>& inputs) const {
  return run_one(*plan_, inputs, nullptr, false);
}

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch(
    const std::vector<BatchInputs>& jobs,
    const std::vector<bool>& raw_outputs) const {
  check_raw_flags(raw_outputs, jobs.size());
  std::vector<BatchOutcome> outcomes(jobs.size());
  std::vector<ResolvedJob> resolved(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    try {
      resolve_named(*plan_, jobs[j], resolved[j]);
    } catch (...) {
      outcomes[j].error = std::current_exception();
    }
  }
  CoreOutput out;
  out.outcomes = outcomes.data();
  out.raw_flags = raw_outputs.empty() ? nullptr : &raw_outputs;
  execute_core(*plan_, resolved.data(), jobs.size(), nullptr, out);
  return outcomes;
}

std::int32_t PlanExecutor::resolve_input(const std::string& name) const {
  const auto it = plan_->input_buffer_by_name.find(name);
  if (it == plan_->input_buffer_by_name.end()) {
    throw std::invalid_argument("PlanExecutor: unknown input stream '" + name +
                                "'");
  }
  return it->second;
}

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch_resolved(
    const std::vector<ResolvedJob>& jobs,
    const std::vector<bool>& raw_outputs) const {
  check_raw_flags(raw_outputs, jobs.size());
  std::vector<BatchOutcome> outcomes(jobs.size());
  CoreOutput out;
  out.outcomes = outcomes.data();
  out.raw_flags = raw_outputs.empty() ? nullptr : &raw_outputs;
  execute_core(*plan_, jobs.data(), jobs.size(), nullptr, out);
  return outcomes;
}

RunResult PlanExecutor::run_chunk(const BatchInputs& chunk, StreamCarry* carry,
                                  bool raw_output) const {
  if (carry == nullptr) {
    throw std::invalid_argument("PlanExecutor: run_chunk needs a carry");
  }
  if (!plan_->streamable) {
    throw std::invalid_argument(
        "PlanExecutor: plan is not streamable (a two-operand op pairs "
        "streams decimated at different rates); run it one-shot");
  }
  return run_one(*plan_, chunk, carry, raw_output);
}

PlanExecutor::RunView PlanExecutor::run_views(const BatchInputs& inputs) const {
  RunView view;
  view.outputs.reserve(plan_->outputs.size());
  const RunResult run = run_one(*plan_, inputs, nullptr, true, &view);
  view.cycles = run.cycles;
  view.fp_ops = run.fp_ops;
  view.mac_ops = run.mac_ops;
  view.pipeline_depth = run.pipeline_depth;
  return view;
}

}  // namespace vcgra::overlay
