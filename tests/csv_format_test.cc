// The release formatter (data/csv.h) and the exact-double writer
// (util/exact_double.h) against the snprintf rule they replaced. The rule
// itself lives in check::CheckCsvFormat as the reference; the literal
// cases below pin it independently of that reference.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "check/generators.h"
#include "check/oracles.h"
#include "data/csv.h"
#include "util/exact_double.h"
#include "util/rng.h"

namespace popp {
namespace {

std::string Cell(double v) {
  std::string out;
  AppendCsvCell(&out, v);
  return out;
}

TEST(CsvFormatTest, EdgeValuesRenderLiterally) {
  using Limits = std::numeric_limits<double>;
  // Integral branch: "%.0f", sign of zero kept.
  EXPECT_EQ(Cell(0.0), "0");
  EXPECT_EQ(Cell(-0.0), "-0");
  EXPECT_EQ(Cell(42.0), "42");
  EXPECT_EQ(Cell(-7.0), "-7");
  EXPECT_EQ(Cell(999999999999999.0), "999999999999999");
  EXPECT_EQ(Cell(-999999999999999.0), "-999999999999999");
  // From 1e15 on, and for every non-integral or non-finite value: "%.17g".
  EXPECT_EQ(Cell(1e15), "1000000000000000");
  EXPECT_EQ(Cell(-1e15), "-1000000000000000");
  EXPECT_EQ(Cell(9007199254740993.0), "9007199254740992");
  EXPECT_EQ(Cell(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(Cell(0.1), "0.10000000000000001");
  EXPECT_EQ(Cell(0.5), "0.5");
  EXPECT_EQ(Cell(999999999999999.5), "999999999999999.5");
  EXPECT_EQ(Cell(Limits::denorm_min()), "4.9406564584124654e-324");
  EXPECT_EQ(Cell(Limits::min()), "2.2250738585072014e-308");
  EXPECT_EQ(Cell(Limits::max()), "1.7976931348623157e+308");
  EXPECT_EQ(Cell(Limits::infinity()), "inf");
  EXPECT_EQ(Cell(-Limits::infinity()), "-inf");
  EXPECT_EQ(Cell(Limits::quiet_NaN()), "nan");
  EXPECT_EQ(Cell(std::copysign(Limits::quiet_NaN(), -1.0)), "-nan");
  // The exact-double writer never takes the integral branch.
  EXPECT_EQ(ExactDouble(42.0), "42");
  EXPECT_EQ(ExactDouble(-0.0), "-0");
  EXPECT_EQ(ExactDouble(1e15), "1000000000000000");
  EXPECT_EQ(ExactDouble(1e17), "1e+17");
  EXPECT_EQ(ExactDouble(0.1), "0.10000000000000001");
  std::string appended = "x=";
  AppendExactDouble(&appended, 2.5);
  EXPECT_EQ(appended, "x=2.5");
}

TEST(CsvFormatTest, EdgeListMatchesSnprintf) {
  const check::OracleResult result =
      check::CheckCsvFormat(check::FormatEdgeValues());
  EXPECT_TRUE(result.passed) << result.message;
}

TEST(CsvFormatTest, TwoMillionRandomBitPatternsMatchSnprintf) {
  Rng rng(20070415);
  std::vector<double> values(2'000'000);
  for (double& v : values) v = std::bit_cast<double>(rng.Next());
  const check::OracleResult result = check::CheckCsvFormat(values);
  EXPECT_TRUE(result.passed) << result.message;
}

TEST(CsvFormatTest, MixedProbesMatchSnprintf) {
  // Raw bit patterns almost never land on the integral branch; the probe
  // mix also covers integers on both sides of 1e15, halves, and values a
  // few ulps from each edge.
  Rng rng(77);
  const check::OracleResult result =
      check::CheckCsvFormat(check::GenerateFormatProbes(500'000, rng));
  EXPECT_TRUE(result.passed) << result.message;
}

TEST(CsvFormatTest, AppendCsvAppendsAndQuotesEachLabel) {
  Dataset d({"x", "y,z"}, {"plain", "has,comma", "has\"quote"});
  d.AddRow({1.0, -0.0}, 1);
  d.AddRow({0.25, 1e15}, 2);
  d.AddRow({-3.0, 7.0}, 0);
  const std::string want =
      "x,\"y,z\",class\n"
      "1,-0,\"has,comma\"\n"
      "0.25,1000000000000000,\"has\"\"quote\"\n"
      "-3,7,plain\n";
  EXPECT_EQ(ToCsvString(d), want);

  // Appends after existing bytes; a reused buffer gives the same bytes.
  std::string buffer = "prefix\n";
  AppendCsv(d, CsvOptions{}, &buffer);
  EXPECT_EQ(buffer, "prefix\n" + want);
  buffer.clear();
  CsvOptions no_header;
  no_header.has_header = false;
  no_header.delimiter = ';';
  AppendCsv(d, no_header, &buffer);
  EXPECT_EQ(buffer,
            "1;-0;has,comma\n"
            "0.25;1000000000000000;\"has\"\"quote\"\n"
            "-3;7;plain\n");
}

}  // namespace
}  // namespace popp
