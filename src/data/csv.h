#ifndef POPP_DATA_CSV_H_
#define POPP_DATA_CSV_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

/// \file
/// CSV import/export for datasets.
///
/// Format: one header line with attribute names followed by the class
/// column name; each data line holds numeric attribute values and a class
/// label string in the last field. This is the layout of the UCI covertype
/// distribution after column selection, so a user with the real data can
/// load it directly and rerun every experiment against it.
///
/// The tokenizer is RFC-4180-flavored: fields may be double-quoted, quoted
/// fields may contain the delimiter, escaped quotes ("") and line breaks,
/// lines may end in LF or CRLF, and the final record does not need a
/// trailing newline. Parsing is incremental (`CsvRecordParser` consumes
/// arbitrary byte windows), so the streaming release engine reads
/// gigabyte-scale files in bounded memory through the exact same code path
/// as the one-shot `ParseCsv`.

namespace popp {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// If true, the first line is a header naming the columns.
  bool has_header = true;
};

/// One parsed CSV record with the physical line it started on (quoted
/// fields may span lines, so consecutive records need not be consecutive
/// lines).
struct CsvRecord {
  std::vector<std::string> fields;
  size_t line = 0;
};

/// Incremental CSV tokenizer: feed arbitrary byte windows, collect complete
/// records. A quoted field interrupted by a window boundary resumes
/// seamlessly in the next Feed call. Blank lines are skipped. Call Finish
/// exactly once at end of input to flush a final record without a trailing
/// newline (and to diagnose an unterminated quote).
class CsvRecordParser {
 public:
  explicit CsvRecordParser(char delimiter = ',');

  /// Consumes `bytes`; complete records are appended to `records`.
  void Feed(const char* bytes, size_t size, std::vector<CsvRecord>* records);

  /// Signals end of input. Emits the final unterminated record, if any.
  Status Finish(std::vector<CsvRecord>* records);

 private:
  enum class State {
    kRecordStart,  ///< before the first byte of a record
    kFieldStart,   ///< just after a delimiter
    kUnquoted,     ///< inside an unquoted field
    kQuoted,       ///< inside a quoted field
    kQuoteQuote,   ///< saw a '"' inside a quoted field (escape or close)
  };

  void EndField();
  void EndOfLine(std::vector<CsvRecord>* records);

  char delim_;
  State state_ = State::kRecordStart;
  /// A '\r' outside quotes is withheld until the next byte decides whether
  /// it belongs to a CRLF terminator or is literal field data.
  bool cr_pending_ = false;
  std::string field_;
  std::vector<std::string> fields_;
  size_t line_ = 1;
  size_t record_line_ = 1;
};

/// Streaming consumer of parsed CSV records: header handling, number
/// parsing, schema discovery and growth (class labels are added in order of
/// first appearance), and row accumulation. Shared by the one-shot
/// ParseCsv/ReadCsv and the chunked reader in src/stream, so both agree
/// byte-for-byte on what a CSV means.
class CsvDatasetBuilder {
 public:
  explicit CsvDatasetBuilder(const CsvOptions& options);

  /// Consumes one record (the first may be the header per the options).
  Status Consume(const CsvRecord& record);

  /// End-of-input validation (an input with no header and no rows is an
  /// error, matching the historical ParseCsv contract).
  Status Finish() const;

  bool have_schema() const { return have_schema_; }

  /// Rows consumed since the last TakeChunk.
  size_t PendingRows() const { return data_.NumRows(); }

  /// Moves the accumulated rows out as a dataset carrying the schema as
  /// grown so far (class ids are stable across chunks: the dictionary only
  /// appends). Callable repeatedly; the builder keeps the schema.
  Dataset TakeChunk();

 private:
  CsvOptions options_;
  bool saw_first_record_ = false;
  bool have_schema_ = false;
  std::vector<std::string> attr_names_;
  Dataset data_;
  std::vector<AttrValue> row_;  // scratch
};

/// Reads a dataset from a CSV file. The last column is the class label
/// (string); all preceding columns must parse as finite numbers ("nan",
/// "inf" and "infinity" are rejected with the line and attribute). The file is
/// streamed through the incremental parser, never materialized whole.
Result<Dataset> ReadCsv(const std::string& path,
                        const CsvOptions& options = {});

/// Parses a dataset from an in-memory CSV string (same format as ReadCsv).
Result<Dataset> ParseCsv(const std::string& text,
                         const CsvOptions& options = {});

/// Writes `data` to `path` in the format ReadCsv accepts.
Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvOptions& options = {});

/// Serializes `data` to a CSV string (AppendCsv into a fresh string).
std::string ToCsvString(const Dataset& data, const CsvOptions& options = {});

/// The release formatter: appends the CSV text of `data` — the header line
/// when `options.has_header`, then every row — to `*out`. Names containing
/// the delimiter, a quote, or a line break are quoted (with "" escaping) so
/// every dataset round-trips. Class labels are quoted once per class, not
/// once per row.
void AppendCsv(const Dataset& data, const CsvOptions& options,
               std::string* out);

/// Appends the exact serialization of one data cell: a finite integral
/// value with |v| < 1e15 prints with no decimals ("%.0f", so -0.0 prints
/// "-0"); every other value prints with 17 significant digits
/// (AppendExactDouble, "%.17g"), so IEEE-754 doubles round-trip
/// bit-exactly.
void AppendCsvCell(std::string* out, AttrValue v);

/// AppendCsvCell into a fresh string (diagnostics and tests).
std::string FormatCsvCell(AttrValue v);

}  // namespace popp

#endif  // POPP_DATA_CSV_H_
