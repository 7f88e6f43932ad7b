#include "src/tensor/tensor_io.h"

#include <cstdint>
#include <string>
#include <utility>

namespace inferturbo {

void PutTensor(BinaryWriter* out, const Tensor& t) {
  out->PutI64(t.rows());
  out->PutI64(t.cols());
  out->PutBytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
}

Status GetTensor(BinaryReader* in, Tensor* t) {
  std::int64_t rows = 0, cols = 0;
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&rows));
  INFERTURBO_RETURN_NOT_OK(in->GetI64(&cols));
  if (rows < 0 || cols < 0 ||
      (rows > 0 && cols > 0 &&
       static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) *
               sizeof(float) >
           in->remaining())) {
    return Status::IoError("corrupt tensor shape in checkpoint: " +
                           std::to_string(rows) + "x" + std::to_string(cols));
  }
  Tensor loaded(rows, cols);
  INFERTURBO_RETURN_NOT_OK(in->GetBytes(
      loaded.data(), static_cast<std::size_t>(loaded.size()) * sizeof(float)));
  *t = std::move(loaded);
  return Status::OK();
}

}  // namespace inferturbo
