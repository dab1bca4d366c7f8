#include "vcgra/softfloat/batch.hpp"

#include <algorithm>

#include "batch_simd.hpp"
#include "fp_core.hpp"

namespace vcgra::softfloat {

namespace {

using fpcore::add_one;
using fpcore::CoeffMul;
using fpcore::decode_one;
using fpcore::encode_one;
using fpcore::Fmt;
using fpcore::mul_one;
using fpcore::mul_one_coeff;
using u64 = std::uint64_t;

/// SIMD kicks in above this length: below it the vector setup (constant
/// broadcasts, dispatch) costs more than it saves.
constexpr std::size_t kSimdThreshold = 32;

bool use_simd(std::size_t n) { return n >= kSimdThreshold && simd::available(); }

/// fp_mac_n runs at most this many whole windows side by side; their
/// accumulators and one gathered column live on the stack.
constexpr std::size_t kMacLanes = 256;

}  // namespace

std::uint64_t fp_encode_double(const FpFormat& format, double value) {
  return encode_one(Fmt(format), value);
}

double fp_decode_double(const FpFormat& format, std::uint64_t bits) {
  return decode_one(Fmt(format), bits);
}

void fp_mul_n(const FpFormat& format, const std::uint64_t* a,
              const std::uint64_t* b, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::mul_n(m, a, b, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one(m, a[i], b[i]);
}

void fp_mul_coeff_n(const FpFormat& format, const std::uint64_t* a,
                    std::uint64_t coeff, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::mul_coeff_n(m, a, coeff, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) out[i] = mul_one_coeff(m, a[i], c);
}

void fp_axpy_n(const FpFormat& format, const std::uint64_t* a,
               const std::uint64_t* x, std::uint64_t coeff,
               std::uint64_t mul_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::axpy_n(m, a, x, coeff, mul_xor, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, a[i], mul_one_coeff(m, x[i], c) ^ mul_xor);
  }
}

void fp_xpay_n(const FpFormat& format, const std::uint64_t* x,
               std::uint64_t coeff, const std::uint64_t* b,
               std::uint64_t b_xor, std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::xpay_n(m, x, coeff, b, b_xor, out, n);
    return;
  }
  const CoeffMul c(m, coeff);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = add_one(m, mul_one_coeff(m, x[i], c), b[i] ^ b_xor);
  }
}

void fp_add_xor_n(const FpFormat& format, const std::uint64_t* a,
                  const std::uint64_t* b, std::uint64_t b_xor,
                  std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::add_xor_n(m, a, b, b_xor, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = add_one(m, a[i], b[i] ^ b_xor);
}

std::size_t fp_mac_n(const FpFormat& format, const std::uint64_t* x,
                     std::uint64_t coeff, std::uint32_t count,
                     std::uint64_t* out, std::size_t n,
                     std::uint64_t* acc_bits, std::uint32_t* filled) {
  // Each step's add consumes the previous step's rounded result, so one
  // window is a serial chain; but every window restarts from +0, so
  // whole windows are independent chains. They run side by side as the
  // lanes of one fp_axpy_n per window position, which keeps each
  // window's own add order (and so its rounding) bit for bit.
  const Fmt m(format);
  const CoeffMul c(m, coeff);
  u64 acc = *acc_bits;
  std::uint32_t fill = *filled;
  std::size_t emitted = 0;
  std::size_t i = 0;
  const auto serial = [&](std::size_t end) {
    for (; i < end; ++i) {
      acc = add_one(m, acc, mul_one_coeff(m, x[i], c));
      if (++fill == count) {
        out[emitted++] = acc;
        acc = m.zero(0);
        fill = 0;
      }
    }
  };
  if (fill < count) {  // also false for count == 0, which never emits
    // Finish the window carried in from the previous block.
    if (fill != 0) serial(std::min<std::size_t>(n, count - fill));
    std::size_t windows = (n - i) / count;
    if (windows >= kSimdThreshold) {
      u64 lanes[kMacLanes] = {};
      u64 column[kMacLanes] = {};
      while (windows > 0) {
        // Even groups, so a remainder never runs as a handful of lanes.
        const std::size_t groups = (windows + kMacLanes - 1) / kMacLanes;
        const std::size_t g = (windows + groups - 1) / groups;
        std::fill_n(lanes, g, m.zero(0));
        for (std::uint32_t s = 0; s < count; ++s) {
          const u64* src = x + i + s;
          for (std::size_t w = 0; w < g; ++w) column[w] = src[w * count];
          fp_axpy_n(format, lanes, column, coeff, 0, lanes, g);
        }
        std::copy_n(lanes, g, out + emitted);
        emitted += g;
        i += g * count;
        windows -= g;
      }
    }
  }
  // The trailing partial window (or the whole block, below the threshold).
  serial(n);
  *acc_bits = acc;
  *filled = fill;
  return emitted;
}

void fp_from_double_n(const FpFormat& format, const double* in,
                      std::uint64_t* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::from_double_n(m, in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = encode_one(m, in[i]);
}

void fp_to_double_n(const FpFormat& format, const std::uint64_t* in,
                    double* out, std::size_t n) {
  const Fmt m(format);
  if (use_simd(n)) {
    simd::to_double_n(m, in, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = decode_one(m, in[i]);
}

}  // namespace vcgra::softfloat
