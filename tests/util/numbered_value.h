#ifndef ESSDDS_TESTS_UTIL_NUMBERED_VALUE_H_
#define ESSDDS_TESTS_UTIL_NUMBERED_VALUE_H_

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace essdds::test {

/// The value "v<n>" that key-value tests store under key n. Built by
/// appending to the prefix: GCC 12 at -O2 reports a false -Wrestrict on
/// `"v" + std::to_string(n)` once the concatenation is inlined.
inline Bytes NumberedValue(uint64_t n) {
  std::string s = "v";
  s += std::to_string(n);
  return ToBytes(s);
}

}  // namespace essdds::test

#endif  // ESSDDS_TESTS_UTIL_NUMBERED_VALUE_H_
