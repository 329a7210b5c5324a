#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

int64_t ShapeSize(const std::vector<int64_t>& shape) {
  int64_t size = 1;
  for (int64_t d : shape) {
    MSOPDS_CHECK_GE(d, 0);
    size *= d;
  }
  return size;
}

}  // namespace

Tensor::Tensor() = default;

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), size_(ShapeSize(shape_)) {
  MSOPDS_CHECK_LE(rank(), 2) << "only rank 0..2 tensors are supported";
  data_ = TensorStorage::Create(size_, /*zero=*/true);
}

Tensor Tensor::Scalar(double value) {
  Tensor t{std::vector<int64_t>{}};
  t.data_->data()[0] = value;
  return t;
}

Tensor Tensor::FromVector(std::vector<double> values) {
  Tensor t;
  t.shape_ = {static_cast<int64_t>(values.size())};
  t.size_ = static_cast<int64_t>(values.size());
  t.data_ = TensorStorage::Create(t.size_, /*zero=*/false);
  std::copy(values.begin(), values.end(), t.data_->data());
  return t;
}

Tensor Tensor::FromMatrix(int64_t rows, int64_t cols,
                          std::vector<double> values) {
  MSOPDS_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  Tensor t;
  t.shape_ = {rows, cols};
  t.size_ = rows * cols;
  MSOPDS_CHECK_LE(t.rank(), 2);
  t.data_ = TensorStorage::Create(t.size_, /*zero=*/false);
  std::copy(values.begin(), values.end(), t.data_->data());
  return t;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  return Full(std::move(shape), 1.0);
}

Tensor Tensor::Full(std::vector<int64_t> shape, double value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Clone() const {
  if (!defined()) return Tensor();
  Tensor t;
  t.shape_ = shape_;
  t.size_ = size_;
  t.data_ = TensorStorage::Create(size_, /*zero=*/false);
  if (size_ > 0) {
    std::memcpy(t.data_->data(), data_->data(),
                static_cast<size_t>(size_) * sizeof(double));
  }
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  MSOPDS_CHECK_GE(axis, 0);
  MSOPDS_CHECK_LT(axis, rank());
  return shape_[static_cast<size_t>(axis)];
}

double* Tensor::data() {
  MSOPDS_CHECK(defined());
  return data_->data();
}

const double* Tensor::data() const {
  MSOPDS_CHECK(defined());
  return data_->data();
}

double Tensor::item() const {
  MSOPDS_CHECK_EQ(size_, 1);
  return data_->data()[0];
}

double& Tensor::at(int64_t i) {
  MSOPDS_CHECK_EQ(rank(), 1);
  MSOPDS_CHECK_GE(i, 0);
  MSOPDS_CHECK_LT(i, size_);
  return data_->data()[i];
}

double Tensor::at(int64_t i) const {
  return const_cast<Tensor*>(this)->at(i);
}

double& Tensor::at(int64_t i, int64_t j) {
  MSOPDS_CHECK_EQ(rank(), 2);
  MSOPDS_CHECK_GE(i, 0);
  MSOPDS_CHECK_LT(i, shape_[0]);
  MSOPDS_CHECK_GE(j, 0);
  MSOPDS_CHECK_LT(j, shape_[1]);
  return data_->data()[i * shape_[1] + j];
}

double Tensor::at(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

void Tensor::Fill(double value) {
  MSOPDS_CHECK(defined());
  double* values = data_->data();
  for (int64_t i = 0; i < size_; ++i) values[i] = value;
}

double Tensor::Sum() const {
  if (!defined()) return 0.0;
  const double* values = data_->data();
  // Within-chunk partials use simd.h's fixed 4-lane order; the chunk
  // grid (kReduceGrain) and the pairwise fold tree are unchanged, so the
  // result is still a pure function of the values at any thread count.
  return ThreadPool::Global().ParallelReduceSum(
      size_, kReduceGrain, [values](int64_t begin, int64_t end) {
        return simd::Sum(values + begin, end - begin);
      });
}

double ChunkedSum::Result() {
  if (fill_ > 0) CloseChunk();
  return FoldPartialSums(chunk_sums_);
}

void ChunkedSum::CloseChunk() {
  chunk_sums_.push_back(simd::Sum(chunk_.data(), static_cast<int64_t>(fill_)));
  fill_ = 0;
}

double Tensor::MaxAbs() const {
  if (!defined()) return 0.0;
  const double* values = data_->data();
  return ThreadPool::Global().ParallelReduceMax(
      size_, kReduceGrain, 0.0, [values](int64_t begin, int64_t end) {
        return simd::MaxAbs(values + begin, end - begin);
      });
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ",";
    out << shape_[i];
  }
  out << "]{";
  if (defined()) {
    const int64_t n = std::min<int64_t>(size_, max_elements);
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0) out << ", ";
      out << data_->data()[i];
    }
    if (size_ > max_elements) out << ", ...";
  }
  out << "}";
  return out.str();
}

bool AllClose(const Tensor& a, const Tensor& b, double tolerance) {
  if (!a.defined() || !b.defined()) return a.defined() == b.defined();
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace msopds
