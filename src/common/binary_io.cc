#include "src/common/binary_io.h"

namespace inferturbo {

Status BinaryReader::GetString(std::string* out) {
  std::uint64_t size = 0;
  INFERTURBO_RETURN_NOT_OK(GetU64(&size));
  INFERTURBO_RETURN_NOT_OK(CheckCount(size, 1));
  out->assign(data_.data() + pos_, static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return Status::OK();
}

}  // namespace inferturbo
