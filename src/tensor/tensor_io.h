#ifndef INFERTURBO_TENSOR_TENSOR_IO_H_
#define INFERTURBO_TENSOR_TENSOR_IO_H_

#include "src/common/binary_io.h"
#include "src/common/status.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// Bit-exact tensor framing for checkpoints: shape, then the raw IEEE
/// float bytes.
void PutTensor(BinaryWriter* out, const Tensor& t);

/// Inverse of PutTensor. A shape the remaining bytes cannot hold is an
/// IoError, never an allocation.
Status GetTensor(BinaryReader* in, Tensor* t);

}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_TENSOR_IO_H_
