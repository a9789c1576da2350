#include "src/table/csv_loader.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/table/table_builder.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace cvopt {
namespace {

// Reads CSV records one at a time, as RFC 4180 frames them: a double-quoted
// field may hold the delimiter, "" escapes and line breaks, and outside
// quotes a record ends at \n, dropping a \r just before it (or before the
// end of the text). A quote anywhere in a field opens or closes quoting.
class RecordReader {
 public:
  enum class Read { kRecord, kEnd, kUnterminatedQuote };

  RecordReader(const std::string& text, char delim)
      : text_(text), delim_(delim) {}

  // Reads the next record into *fields; *blank is set when it is an empty
  // line. An empty last line is no record (kEnd).
  Read Next(std::vector<std::string>* fields, bool* blank) {
    if (pos_ >= text_.size()) return Read::kEnd;
    line_ = next_line_;
    fields->clear();
    std::string field;
    bool in_quotes = false;
    bool content = false;  // anything besides the line ending
    bool ended = false;    // by a \n rather than the end of the text
    const size_t n = text_.size();
    while (pos_ < n && !ended) {
      const char c = text_[pos_++];
      if (c == '\n') ++next_line_;
      if (in_quotes) {
        if (c != '"') {
          field += c;
        } else if (pos_ < n && text_[pos_] == '"') {
          field += '"';
          ++pos_;
        } else {
          in_quotes = false;
        }
        continue;
      }
      if (c == '\n') {
        ended = true;
        continue;
      }
      if (c == '\r' && (pos_ == n || text_[pos_] == '\n')) continue;
      content = true;
      if (c == '"') {
        in_quotes = true;
      } else if (c == delim_) {
        fields->push_back(std::move(field));
        field.clear();
      } else {
        field += c;
      }
    }
    if (in_quotes) return Read::kUnterminatedQuote;
    if (!ended && !content) return Read::kEnd;
    fields->push_back(std::move(field));
    *blank = !content;
    return Read::kRecord;
  }

  // Physical line (1-based) on which the last record read starts.
  size_t line() const { return line_; }

 private:
  const std::string& text_;
  const char delim_;
  size_t pos_ = 0;
  size_t next_line_ = 1;  // physical line at pos_
  size_t line_ = 0;
};

// Length of s without trailing ASCII blanks. strtoll / strtod skip leading
// blanks, so trailing ones are accepted too.
size_t TrimmedLength(const std::string& s) {
  size_t n = s.size();
  while (n > 0 && (s[n - 1] == ' ' || s[n - 1] == '\t')) --n;
  return n;
}

bool ParseInt(const std::string& s, int64_t* out) {
  const size_t n = TrimmedLength(s);
  if (n == 0) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + n) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  const size_t n = TrimmedLength(s);
  if (n == 0) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + n) return false;
  *out = v;
  return true;
}

// Widens each column whose value does not parse as its current type:
// int64 -> double -> string.
void WidenTypes(const std::vector<std::string>& fields,
                std::vector<DataType>* types) {
  for (size_t c = 0; c < fields.size(); ++c) {
    int64_t iv;
    double dv;
    DataType& type = (*types)[c];
    if (type == DataType::kInt64 && !ParseInt(fields[c], &iv)) {
      type = DataType::kDouble;
    }
    if (type == DataType::kDouble && !ParseDouble(fields[c], &dv)) {
      type = DataType::kString;
    }
  }
}

}  // namespace

Result<Table> TableFromCsv(const std::string& csv_text, const Schema& schema,
                           const CsvOptions& options) {
  RecordReader reader(csv_text, options.delimiter);
  TableBuilder builder(schema);
  // The line count bounds the row count.
  builder.Reserve(
      static_cast<size_t>(std::count(csv_text.begin(), csv_text.end(), '\n')) +
      1);
  std::vector<std::string> fields;
  bool blank = false;
  bool header = options.has_header;
  for (;;) {
    const RecordReader::Read read = reader.Next(&fields, &blank);
    if (read == RecordReader::Read::kEnd) break;
    const size_t ln = reader.line();
    if (read == RecordReader::Read::kUnterminatedQuote) {
      return Status::InvalidArgument(
          StrFormat("unterminated quote on line %zu", ln));
    }
    if (header) {
      header = false;
      continue;
    }
    if (blank) continue;
    if (fields.size() != schema.num_fields()) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, schema has %zu", ln,
                    fields.size(), schema.num_fields()));
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      switch (schema.field(c).type) {
        case DataType::kInt64: {
          int64_t v;
          if (!ParseInt(fields[c], &v)) {
            return Status::InvalidArgument(
                StrFormat("line %zu col %zu: '%s' is not an integer", ln,
                          c + 1, fields[c].c_str()));
          }
          row.emplace_back(v);
          break;
        }
        case DataType::kDouble: {
          double v;
          if (!ParseDouble(fields[c], &v)) {
            return Status::InvalidArgument(
                StrFormat("line %zu col %zu: '%s' is not a number", ln,
                          c + 1, fields[c].c_str()));
          }
          row.emplace_back(v);
          break;
        }
        case DataType::kString:
          row.emplace_back(fields[c]);
          break;
      }
    }
    CVOPT_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return std::move(builder).Finish();
}

Result<Table> TableFromCsvInferred(const std::string& csv_text,
                                   const CsvOptions& options) {
  RecordReader reader(csv_text, options.delimiter);
  std::vector<std::string> header_fields;
  bool blank = false;
  switch (reader.Next(&header_fields, &blank)) {
    case RecordReader::Read::kEnd:
      return Status::InvalidArgument("empty CSV input");
    case RecordReader::Read::kUnterminatedQuote:
      return Status::InvalidArgument("unterminated quote in header");
    case RecordReader::Read::kRecord:
      break;
  }
  const size_t width = header_fields.size();

  // Infer: start at the narrowest type and widen on counter-examples, over
  // the first inference_rows records after the header (blank lines count).
  std::vector<DataType> types(width, DataType::kInt64);
  size_t left = std::max<size_t>(1, options.inference_rows);
  if (!options.has_header) {
    --left;  // the first record is data
    if (!blank) WidenTypes(header_fields, &types);
  }
  std::vector<std::string> fields;
  while (left > 0) {
    const RecordReader::Read read = reader.Next(&fields, &blank);
    if (read == RecordReader::Read::kEnd) break;
    --left;
    if (read == RecordReader::Read::kUnterminatedQuote ||
        (!blank && fields.size() != width)) {
      return Status::InvalidArgument(StrFormat(
          "line %zu malformed during inference", reader.line()));
    }
    if (!blank) WidenTypes(fields, &types);
  }

  std::vector<Field> schema_fields;
  for (size_t c = 0; c < width; ++c) {
    const std::string name =
        options.has_header ? header_fields[c] : StrFormat("col%zu", c);
    schema_fields.push_back({name, types[c]});
  }
  return TableFromCsv(csv_text, Schema(std::move(schema_fields)), options);
}

Result<Table> TableFromCsvFile(const std::string& path, const Schema& schema,
                               const CsvOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  // A directory opens too, but its "size" is an lseek artifact (up to
  // LLONG_MAX), which the buffer below cannot hold.
  struct stat st;
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot size: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  std::string text(static_cast<size_t>(size), '\0');
  const size_t got = std::fread(text.data(), 1, text.size(), f);
  std::fclose(f);
  // Fault-injection stand-in for a truncated read; exercised by the
  // CVOPT_FAILPOINTS test sweep to prove the loader's error path is clean.
  CVOPT_FAILPOINT("csv.read");
  if (got != text.size()) return Status::Internal("short read: " + path);
  return TableFromCsv(text, schema, options);
}

}  // namespace cvopt
