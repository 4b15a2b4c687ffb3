#include "tensor/gemm_backend.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace zero::tensor {

namespace {

class F32Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp32"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return static_cast<std::size_t>(n * k) * sizeof(float);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    std::memcpy(dst, src, PackedBytes(n, k));
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
    std::memcpy(dst, reinterpret_cast<const float*>(packed) + row * k,
                static_cast<std::size_t>(k) * sizeof(float));
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    // Exact passthrough: identical floats through the identical kernel
    // and dispatch, so the fp32 serving path stays memcmp-bit-exact
    // with the trainer's eval forward.
    Gemm(false, true, m, n, k, alpha, a,
         reinterpret_cast<const float*>(packed), beta, c);
  }
};

class F16Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "fp16"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return static_cast<std::size_t>(HalfPanelElems(n, k)) * sizeof(Half);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    PackHalfPanelsT(src, n, k, reinterpret_cast<Half*>(dst));
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
    DecodeHalfPanelRow(reinterpret_cast<const Half*>(packed), n, k, row, dst);
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    GemmHalfPanelsT(m, n, k, alpha, a, reinterpret_cast<const Half*>(packed),
                    beta, c);
  }
};

// Packed layout: [ float scale[ceil(n*k/block)] ][ int8 code[n*k] ], the
// matrix quantized as one row-major run. Codes and scales come from
// tensor/quantize's fp32 quantizer (same rounding, same poison-block
// policy); the fp16 wire scales are pre-decoded to fp32 once at pack
// time so the GEMM's decode is one multiply per element.
class Int8Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "int8"; }
  [[nodiscard]] std::size_t PackedBytes(std::int64_t n,
                                        std::int64_t k) const override {
    return ScaleBytes(n * k) + static_cast<std::size_t>(n * k);
  }
  void Pack(const float* src, std::int64_t n, std::int64_t k,
            std::byte* dst) const override {
    const std::int64_t numel = n * k;
    std::vector<std::byte> wire(QuantWireBytes(numel, kBlock));
    QuantizeF32(src, numel, kBlock, wire.data());
    const std::int64_t blocks = QuantBlocks(numel, kBlock);
    HalfToFloat(reinterpret_cast<const Half*>(wire.data()),
                reinterpret_cast<float*>(dst),
                static_cast<std::size_t>(blocks));
    std::memcpy(dst + ScaleBytes(numel),
                wire.data() + static_cast<std::size_t>(2 * blocks),
                static_cast<std::size_t>(numel));
  }
  void DecodeRow(const std::byte* packed, std::int64_t n, std::int64_t k,
                 std::int64_t row, float* dst) const override {
    ZERO_CHECK(row >= 0 && row < n, "matrix row decode out of range");
    const float* scales = reinterpret_cast<const float*>(packed);
    const std::int8_t* codes = Codes(packed, n * k);
    for (std::int64_t e = row * k; e < (row + 1) * k; ++e) {
      dst[e - row * k] = static_cast<float>(codes[e]) * scales[e / kBlock];
    }
  }
  void GemmWeightT(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const std::byte* packed,
                   float beta, float* c) const override {
    GemmQuantWeightT(m, n, k, alpha, a, Codes(packed, n * k),
                     reinterpret_cast<const float*>(packed), kBlock, beta, c);
  }

 private:
  static constexpr std::int64_t kBlock = 64;

  static std::size_t ScaleBytes(std::int64_t numel) {
    return static_cast<std::size_t>(QuantBlocks(numel, kBlock)) *
           sizeof(float);
  }
  static const std::int8_t* Codes(const std::byte* packed,
                                  std::int64_t numel) {
    return reinterpret_cast<const std::int8_t*>(packed + ScaleBytes(numel));
  }
};

}  // namespace

const GemmBackend& GemmBackendByName(std::string_view name) {
  static const F32Backend f32;
  static const F16Backend f16;
  static const Int8Backend int8;
  static const GemmBackend* const kBackends[] = {&f32, &f16, &int8};
  for (const GemmBackend* b : kBackends) {
    if (b->name() == name) return *b;
  }
  std::string known;
  for (const GemmBackend* b : kBackends) {
    if (!known.empty()) known += ", ";
    known += b->name();
  }
  throw ConfigError("unknown GEMM backend '" + std::string(name) +
                    "' (known: " + known + ")");
}

}  // namespace zero::tensor
