#ifndef POPP_UTIL_EXACT_DOUBLE_H_
#define POPP_UTIL_EXACT_DOUBLE_H_

#include <string>

/// \file
/// The one exact text rendering of a binary64 value, shared by every
/// artifact that must round-trip doubles bit-for-bit: CSV release cells,
/// popp-plan and popp-tree documents, serve policy fingerprints and check
/// reproducer recipes.
///
/// The rendering is printf's "%.17g": 17 significant decimal digits
/// uniquely identify every double, and strtod's correctly-rounded parse
/// maps the text back to the identical bits — denormals, ±huge values and
/// signed zero included ("inf", "-inf", "nan" and "-nan" for the
/// non-finite values). It is produced with std::to_chars, which is
/// specified to match printf byte for byte and does not go through the C
/// locale or a stdio buffer.

namespace popp {

/// Appends the "%.17g" rendering of `v` to `out`.
void AppendExactDouble(std::string* out, double v);

/// The "%.17g" rendering of `v`.
std::string ExactDouble(double v);

}  // namespace popp

#endif  // POPP_UTIL_EXACT_DOUBLE_H_
