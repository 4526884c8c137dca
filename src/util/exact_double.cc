#include "util/exact_double.h"

#include <charconv>

namespace popp {

void AppendExactDouble(std::string* out, double v) {
  // Sign, 17 digits, the point and a four-character exponent fit in 25.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

std::string ExactDouble(double v) {
  std::string out;
  AppendExactDouble(&out, v);
  return out;
}

}  // namespace popp
