#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/parallel.hpp"

namespace dl::nn {

namespace {
std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  DL_REQUIRE(!shape_.empty(), "tensor needs a shape");
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::kaiming(std::vector<std::size_t> shape, std::size_t fan_in,
                       dl::Rng& rng) {
  Tensor t(std::move(shape));
  DL_REQUIRE(fan_in > 0, "fan_in must be positive");
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  DL_REQUIRE(i < shape_.size(), "dimension index out of rank");
  return shape_[i];
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::reshape(std::vector<std::size_t> shape) {
  DL_REQUIRE(shape_numel(shape) == data_.size(),
             "reshape must preserve element count");
  shape_ = std::move(shape);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

// ------------------------------------------------------------ blocked GEMM
//
// All three products reduce to one panel kernel over a k-major B operand:
// C[i, j] += a(i, p) * B[p, j]  with p ascending.  Blocking:
//   - kKc x kJc panels of B stay cache-resident across the row sweep;
//   - a kMr x kNr tile of C stays in registers for a whole k panel: each
//     step loads one kNr-wide B row and kMr A values and does kMr x kNr
//     multiply-adds, and the tile is loaded and stored once per panel;
//   - the column tail (< kNr) and row tail (< kMr) keep the axpy form.
// gemm_bt first transposes B into a k-major thread-local scratch and then
// reuses the same kernel.  Every C element gets c += a * b in ascending p
// in ascending kKc blocks, in the tile and in both tails alike — fixed by
// construction, so results do not depend on how rows are distributed over
// threads and match reference::gemm / reference::gemm_at bit for bit.

namespace {

constexpr std::size_t kKc = 128;  ///< k panel height
constexpr std::size_t kJc = 512;  ///< j panel width
constexpr std::size_t kMr = 4;    ///< register-tile rows of A and C
constexpr std::size_t kNr = 16;   ///< register-tile columns of B and C

/// C[i0..i1) x [j0..j1) += A * B for p in [p0..p1).  `b` is k-major with
/// row stride n.  AT selects the A layout: a(i,p) = a[p*lda + i] (lda = m)
/// when true, a[i*lda + p] (lda = k) when false.
template <bool AT>
void panel_axpy(const float* a, std::size_t lda, const float* b, float* c,
                std::size_t n, std::size_t i0, std::size_t i1, std::size_t p0,
                std::size_t p1, std::size_t j0, std::size_t j1) {
  const auto a_at = [&](std::size_t i, std::size_t p) {
    return AT ? a[p * lda + i] : a[i * lda + p];
  };
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    std::size_t j = j0;
    for (; j + kNr <= j1; j += kNr) {
      // The C tile lives in t0..t3 (registers) for the whole k panel.
      float t0[kNr], t1[kNr], t2[kNr], t3[kNr];
      std::copy_n(c + (i + 0) * n + j, kNr, t0);
      std::copy_n(c + (i + 1) * n + j, kNr, t1);
      std::copy_n(c + (i + 2) * n + j, kNr, t2);
      std::copy_n(c + (i + 3) * n + j, kNr, t3);
      for (std::size_t p = p0; p < p1; ++p) {
        const float a0 = a_at(i + 0, p), a1 = a_at(i + 1, p),
                    a2 = a_at(i + 2, p), a3 = a_at(i + 3, p);
        const float* bp = b + p * n + j;
        for (std::size_t q = 0; q < kNr; ++q) {
          const float bv = bp[q];
          t0[q] += a0 * bv;
          t1[q] += a1 * bv;
          t2[q] += a2 * bv;
          t3[q] += a3 * bv;
        }
      }
      std::copy_n(t0, kNr, c + (i + 0) * n + j);
      std::copy_n(t1, kNr, c + (i + 1) * n + j);
      std::copy_n(t2, kNr, c + (i + 2) * n + j);
      std::copy_n(t3, kNr, c + (i + 3) * n + j);
    }
    if (j == j1) continue;
    // Column tail narrower than the tile: axpy through memory.
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    for (std::size_t p = p0; p < p1; ++p) {
      const float a0 = a_at(i + 0, p), a1 = a_at(i + 1, p),
                  a2 = a_at(i + 2, p), a3 = a_at(i + 3, p);
      const float* bp = b + p * n;
      for (std::size_t jj = j; jj < j1; ++jj) {
        const float bv = bp[jj];
        c0[jj] += a0 * bv;
        c1[jj] += a1 * bv;
        c2[jj] += a2 * bv;
        c3[jj] += a3 * bv;
      }
    }
  }
  // Row tail (< kMr rows).
  for (; i < i1; ++i) {
    float* crow = c + i * n;
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = a_at(i, p);
      const float* bp = b + p * n;
      for (std::size_t jj = j0; jj < j1; ++jj) crow[jj] += av * bp[jj];
    }
  }
}

/// Row-parallel blocked product over a k-major B.
template <bool AT>
void gemm_blocked(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (m == 0 || n == 0 || k == 0) return;
  const std::size_t lda = AT ? m : k;
  // Row grain: a multiple of kMr sized so every thread gets work; the
  // chunk layout does not affect results (C rows are disjoint).
  const std::size_t threads = dl::parallel::max_threads();
  std::size_t grain = (m + threads - 1) / threads;
  grain = std::max<std::size_t>(kMr, (grain + kMr - 1) / kMr * kMr);
  dl::parallel::parallel_for(
      0, m, grain, [&](std::size_t i0, std::size_t i1, std::size_t) {
        for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
          const std::size_t p1 = std::min(k, p0 + kKc);
          for (std::size_t j0 = 0; j0 < n; j0 += kJc) {
            const std::size_t j1 = std::min(n, j0 + kJc);
            panel_axpy<AT>(a, lda, b, c, n, i0, i1, p0, p1, j0, j1);
          }
        }
      });
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate) {
  gemm_blocked<false>(m, k, n, a, b, c, accumulate);
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  // a is stored k x m; computes C[m,n] = sum_p a[p,i] * b[p,j].  The
  // transposed layout is ideal for the register tile: the 4 A values per
  // step are contiguous.
  gemm_blocked<true>(m, k, n, a, b, c, accumulate);
}

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  // b is stored n x k; computes C[m,n] = sum_p a[i,p] * b[j,p].  Transpose
  // B into k-major scratch (tiled, parallel over k), then run the axpy
  // kernel — this keeps the j loop contiguous instead of a scalar
  // k-reduction that cannot vectorize without reassociation.
  if (m == 0 || n == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  thread_local std::vector<float> bt_scratch;
  if (bt_scratch.size() < k * n) bt_scratch.resize(k * n);
  float* bt = bt_scratch.data();
  constexpr std::size_t kTile = 64;
  dl::parallel::parallel_for(
      0, k, kTile, [&](std::size_t p0, std::size_t p1, std::size_t) {
        for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
          const std::size_t j1 = std::min(n, j0 + kTile);
          for (std::size_t j = j0; j < j1; ++j) {
            const float* bj = b + j * k;
            for (std::size_t p = p0; p < p1; ++p) bt[p * n + j] = bj[p];
          }
        }
      });
  gemm_blocked<false>(m, k, n, a, bt, c, accumulate);
}

// ---------------------------------------------------------- naive reference

namespace reference {

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

}  // namespace reference

}  // namespace dl::nn
