#include "data/csv.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "data/value.h"
#include "fault/file.h"
#include "util/exact_double.h"

namespace popp {
namespace {

/// Parses one attribute cell. Only finite numbers are data: strtod also
/// accepts "nan", "inf" and "infinity" (any case, either sign), which no
/// transform can fit, so they are rejected here with the cell's position.
Result<double> ParseNumber(const std::string& text, size_t line_no,
                           const std::string& attr_name) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::ostringstream oss;
    oss << "line " << line_no << ": cannot parse number '" << text << "'";
    return Status::InvalidArgument(oss.str());
  }
  if (!std::isfinite(v)) {
    std::ostringstream oss;
    oss << "line " << line_no << ", attribute '" << attr_name
        << "': non-finite value '" << text
        << "' (cells must be finite numbers)";
    return Status::InvalidArgument(oss.str());
  }
  return v;
}

/// Quotes a name field when it contains bytes the tokenizer treats
/// specially; plain names are written verbatim (keeps existing files and
/// golden fixtures byte-stable).
std::string QuoteIfNeeded(const std::string& field, char delim) {
  const bool needs =
      field.find(delim) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void AppendCsvCell(std::string* out, AttrValue v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    // Fixed notation with no decimals is "%.0f": at most 16 digits and a
    // sign here, and -0.0 keeps its sign ("-0").
    char buf[24];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::fixed, 0);
    out->append(buf, r.ptr);
    return;
  }
  AppendExactDouble(out, v);
}

std::string FormatCsvCell(AttrValue v) {
  std::string out;
  AppendCsvCell(&out, v);
  return out;
}

// ------------------------------------------------------------------------
// CsvRecordParser

CsvRecordParser::CsvRecordParser(char delimiter) : delim_(delimiter) {}

void CsvRecordParser::EndField() {
  fields_.push_back(std::move(field_));
  field_.clear();
}

void CsvRecordParser::EndOfLine(std::vector<CsvRecord>* records) {
  ++line_;
  if (state_ == State::kRecordStart) {
    // Blank line (or bare CRLF): skip, keep scanning.
    record_line_ = line_;
    return;
  }
  EndField();
  records->push_back(CsvRecord{std::move(fields_), record_line_});
  fields_.clear();
  state_ = State::kRecordStart;
  record_line_ = line_;
}

void CsvRecordParser::Feed(const char* bytes, size_t size,
                           std::vector<CsvRecord>* records) {
  for (size_t i = 0; i < size; ++i) {
    const char c = bytes[i];
    if (cr_pending_) {
      cr_pending_ = false;
      if (c == '\n') {
        EndOfLine(records);
        continue;
      }
      // Lone '\r' not ending a line: literal field data.
      field_ += '\r';
      if (state_ == State::kRecordStart || state_ == State::kFieldStart ||
          state_ == State::kQuoteQuote) {
        state_ = State::kUnquoted;
      }
    }
    switch (state_) {
      case State::kRecordStart:
      case State::kFieldStart:
        if (c == '"') {
          state_ = State::kQuoted;
        } else if (c == delim_) {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          EndOfLine(records);
        } else if (c == '\r') {
          cr_pending_ = true;
        } else {
          field_ += c;
          state_ = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == delim_) {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          EndOfLine(records);
        } else if (c == '\r') {
          cr_pending_ = true;
        } else {
          field_ += c;  // a '"' mid-field is literal
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state_ = State::kQuoteQuote;
        } else {
          if (c == '\n') ++line_;
          field_ += c;  // delimiter, CR and LF are all data here
        }
        break;
      case State::kQuoteQuote:
        if (c == '"') {
          field_ += '"';  // "" escape
          state_ = State::kQuoted;
        } else if (c == delim_) {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          EndOfLine(records);
        } else if (c == '\r') {
          cr_pending_ = true;
        } else {
          // Lenient: bytes after a closing quote join the field unquoted.
          field_ += c;
          state_ = State::kUnquoted;
        }
        break;
    }
  }
}

Status CsvRecordParser::Finish(std::vector<CsvRecord>* records) {
  if (state_ == State::kQuoted) {
    std::ostringstream oss;
    oss << "line " << record_line_
        << ": unterminated quoted field at end of input";
    return Status::InvalidArgument(oss.str());
  }
  // A trailing '\r' or a missing final newline both terminate the last
  // record.
  cr_pending_ = false;
  if (state_ != State::kRecordStart) {
    EndOfLine(records);
  }
  return Status::Ok();
}

// ------------------------------------------------------------------------
// CsvDatasetBuilder

CsvDatasetBuilder::CsvDatasetBuilder(const CsvOptions& options)
    : options_(options) {}

Status CsvDatasetBuilder::Consume(const CsvRecord& record) {
  if (!saw_first_record_ && options_.has_header) {
    saw_first_record_ = true;
    if (record.fields.size() < 2) {
      return Status::InvalidArgument(
          "header must have at least one attribute and the class column");
    }
    attr_names_.assign(record.fields.begin(), record.fields.end() - 1);
    data_ = Dataset(Schema(attr_names_, {}));
    have_schema_ = true;
    return Status::Ok();
  }
  saw_first_record_ = true;
  if (!have_schema_) {
    if (record.fields.size() < 2) {
      return Status::InvalidArgument("rows need >= 2 columns");
    }
    attr_names_.resize(record.fields.size() - 1);
    for (size_t i = 0; i + 1 < record.fields.size(); ++i) {
      attr_names_[i] = "attr" + std::to_string(i + 1);
    }
    data_ = Dataset(Schema(attr_names_, {}));
    have_schema_ = true;
  }
  if (record.fields.size() != attr_names_.size() + 1) {
    std::ostringstream oss;
    oss << "line " << record.line << ": expected " << attr_names_.size() + 1
        << " fields, got " << record.fields.size();
    return Status::InvalidArgument(oss.str());
  }
  row_.resize(attr_names_.size());
  for (size_t i = 0; i < attr_names_.size(); ++i) {
    auto parsed = ParseNumber(record.fields[i], record.line, attr_names_[i]);
    if (!parsed.ok()) return parsed.status();
    row_[i] = parsed.value();
  }
  const ClassId label =
      data_.mutable_schema().GetOrAddClass(record.fields.back());
  data_.AddRow(row_, label);
  return Status::Ok();
}

Status CsvDatasetBuilder::Finish() const {
  if (!have_schema_) {
    return Status::InvalidArgument("empty CSV input");
  }
  return Status::Ok();
}

Dataset CsvDatasetBuilder::TakeChunk() {
  Dataset chunk = std::move(data_);
  data_ = Dataset(chunk.schema());
  return chunk;
}

// ------------------------------------------------------------------------
// One-shot entry points

Result<Dataset> ParseCsv(const std::string& text, const CsvOptions& options) {
  CsvRecordParser parser(options.delimiter);
  CsvDatasetBuilder builder(options);
  std::vector<CsvRecord> records;
  parser.Feed(text.data(), text.size(), &records);
  POPP_RETURN_IF_ERROR(parser.Finish(&records));
  for (const CsvRecord& record : records) {
    POPP_RETURN_IF_ERROR(builder.Consume(record));
  }
  POPP_RETURN_IF_ERROR(builder.Finish());
  return builder.TakeChunk();
}

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options) {
  fault::InputFile in;
  POPP_RETURN_IF_ERROR(in.Open(path));
  CsvRecordParser parser(options.delimiter);
  CsvDatasetBuilder builder(options);
  std::vector<CsvRecord> records;
  char buffer[1 << 16];
  for (;;) {
    auto got = in.Read(buffer, sizeof(buffer));
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;
    parser.Feed(buffer, got.value(), &records);
    for (const CsvRecord& record : records) {
      POPP_RETURN_IF_ERROR(builder.Consume(record));
    }
    records.clear();
  }
  POPP_RETURN_IF_ERROR(parser.Finish(&records));
  for (const CsvRecord& record : records) {
    POPP_RETURN_IF_ERROR(builder.Consume(record));
  }
  POPP_RETURN_IF_ERROR(builder.Finish());
  return builder.TakeChunk();
}

void AppendCsv(const Dataset& data, const CsvOptions& options,
               std::string* out) {
  const char d = options.delimiter;
  const size_t num_attrs = data.NumAttributes();
  const size_t num_rows = data.NumRows();
  // A first guess (short cells, short labels); growth doubles from there.
  out->reserve(out->size() + num_rows * (num_attrs + 1) * 8);
  if (options.has_header) {
    for (size_t a = 0; a < num_attrs; ++a) {
      out->append(QuoteIfNeeded(data.schema().AttributeName(a), d));
      out->push_back(d);
    }
    out->append("class\n");
  }
  // Each label's field and line break, quoted once per class.
  std::vector<std::string> label_tails;
  label_tails.reserve(data.NumClasses());
  for (const std::string& name : data.schema().class_names()) {
    label_tails.push_back(QuoteIfNeeded(name, d) + '\n');
  }
  std::vector<const AttrValue*> columns(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    columns[a] = data.Column(a).data();
  }
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t a = 0; a < num_attrs; ++a) {
      AppendCsvCell(out, columns[a][r]);
      out->push_back(d);
    }
    out->append(label_tails[static_cast<size_t>(data.labels()[r])]);
  }
}

std::string ToCsvString(const Dataset& data, const CsvOptions& options) {
  std::string out;
  AppendCsv(data, options, &out);
  return out;
}

Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvOptions& options) {
  return fault::WriteFileAtomic(path, ToCsvString(data, options));
}

}  // namespace popp
