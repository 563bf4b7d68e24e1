#include "relational/csv.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace cextend {
namespace {

/// Splits one CSV record honoring double-quote escaping. `pos` points at the
/// start of a record in `text` and is advanced past the record's newline.
std::vector<std::string> ParseRecord(const std::string& text, size_t& pos) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          field += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else {
      if (c == '"') {
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(std::move(field));
        field.clear();
      } else if (c == '\n') {
        ++pos;
        break;
      } else if (c != '\r') {
        field += c;
      }
    }
    ++pos;
  }
  fields.push_back(std::move(field));
  return fields;
}

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

StatusOr<Table> ParseCsv(const std::string& text, const Schema& schema) {
  size_t pos = 0;
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  std::vector<std::string> header = ParseRecord(text, pos);
  if (header.size() != schema.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("CSV header has %zu fields, schema has %zu columns",
                  header.size(), schema.NumColumns()));
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (std::string(StrTrim(header[i])) != schema.column(i).name) {
      return Status::InvalidArgument(StrFormat(
          "CSV header field %zu is '%s', expected '%s'", i, header[i].c_str(),
          schema.column(i).name.c_str()));
    }
  }
  Table table{schema};
  size_t line = 1;
  while (pos < text.size()) {
    std::vector<std::string> fields = ParseRecord(text, pos);
    ++line;
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != schema.NumColumns()) {
      return Status::InvalidArgument(
          StrFormat("CSV line %zu has %zu fields, expected %zu", line,
                    fields.size(), schema.NumColumns()));
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const std::string& f = fields[i];
      if (f.empty()) {
        row.push_back(Value::Null());
      } else if (schema.column(i).type == DataType::kInt64) {
        auto v = ParseInt64(f);
        if (!v.has_value()) {
          return Status::InvalidArgument(StrFormat(
              "CSV line %zu column %s: '%s' is not an integer", line,
              schema.column(i).name.c_str(), f.c_str()));
        }
        row.emplace_back(*v);
      } else {
        row.push_back(Value(f));
      }
    }
    CEXTEND_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

StatusOr<Table> ReadCsv(const std::string& path, const Schema& schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), schema);
}

std::string ToCsv(const Table& table) {
  std::ostringstream os;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (c > 0) os << ',';
    os << QuoteField(schema.column(c).name);
  }
  os << '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      if (c > 0) os << ',';
      if (!table.IsNull(r, c)) os << QuoteField(table.GetValue(r, c).ToString());
    }
    os << '\n';
  }
  return os.str();
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot write " + path);
  out << ToCsv(table);
  if (!out.good()) return Status::Internal("I/O error writing " + path);
  return Status::Ok();
}

}  // namespace cextend
