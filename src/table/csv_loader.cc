#include "src/table/csv_loader.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/table/table_builder.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace cvopt {
namespace {

// Splits one CSV record honoring double-quoted fields with "" escapes.
// Returns false on an unterminated quote.
bool SplitRecord(const std::string& line, char delim,
                 std::vector<std::string>* out) {
  out->clear();
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      out->push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (in_quotes) return false;
  out->push_back(std::move(field));
  return true;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// Splits the text into lines, dropping a trailing empty line and handling
// both \n and \r\n endings.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  for (auto& l : lines) {
    if (!l.empty() && l.back() == '\r') l.pop_back();
  }
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

}  // namespace

Result<Table> TableFromCsv(const std::string& csv_text, const Schema& schema,
                           const CsvOptions& options) {
  const std::vector<std::string> lines = SplitLines(csv_text);
  TableBuilder builder(schema);
  std::vector<std::string> fields;
  const size_t start = options.has_header && !lines.empty() ? 1 : 0;
  builder.Reserve(lines.size() - start);  // line count bounds the row count
  for (size_t ln = start; ln < lines.size(); ++ln) {
    if (lines[ln].empty()) continue;
    if (!SplitRecord(lines[ln], options.delimiter, &fields)) {
      return Status::InvalidArgument(
          StrFormat("unterminated quote on line %zu", ln + 1));
    }
    if (fields.size() != schema.num_fields()) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, schema has %zu", ln + 1,
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
                StrFormat("line %zu col %zu: '%s' is not an integer", ln + 1,
                          c + 1, fields[c].c_str()));
          }
          row.emplace_back(v);
          break;
        }
        case DataType::kDouble: {
          double v;
          if (!ParseDouble(fields[c], &v)) {
            return Status::InvalidArgument(
                StrFormat("line %zu col %zu: '%s' is not a number", ln + 1,
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
  const std::vector<std::string> lines = SplitLines(csv_text);
  if (lines.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }
  std::vector<std::string> header_fields;
  if (!SplitRecord(lines[0], options.delimiter, &header_fields)) {
    return Status::InvalidArgument("unterminated quote in header");
  }
  const size_t width = header_fields.size();

  // Infer: start at the narrowest type and widen on counter-examples.
  std::vector<DataType> types(width, DataType::kInt64);
  std::vector<std::string> fields;
  const size_t start = options.has_header ? 1 : 0;
  const size_t end =
      start + std::min(lines.size() - start,
                       std::max<size_t>(1, options.inference_rows));
  for (size_t ln = start; ln < end; ++ln) {
    if (lines[ln].empty()) continue;
    if (!SplitRecord(lines[ln], options.delimiter, &fields) ||
        fields.size() != width) {
      return Status::InvalidArgument(
          StrFormat("line %zu malformed during inference", ln + 1));
    }
    for (size_t c = 0; c < width; ++c) {
      int64_t iv;
      double dv;
      if (types[c] == DataType::kInt64 && !ParseInt(fields[c], &iv)) {
        types[c] = DataType::kDouble;
      }
      if (types[c] == DataType::kDouble && !ParseDouble(fields[c], &dv)) {
        types[c] = DataType::kString;
      }
    }
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
