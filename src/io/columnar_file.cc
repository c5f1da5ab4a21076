#include "io/columnar_file.h"

#include <cstring>

#include "common/fnv.h"
#include "io/byte_codec.h"
#include "storage/schema.h"

namespace dex {

namespace {

constexpr char kMagic[8] = {'D', 'X', 'C', 'O', 'L', '0', '0', '1'};
constexpr char kEndMark[8] = {'D', 'X', 'C', 'O', 'L', 'E', 'N', 'D'};
constexpr char kWhat[] = "columnar file";

// Frame encodings. The ids are part of the on-disk format; add new ones at
// the end and bump the magic if an existing id changes meaning.
constexpr uint64_t kEncConstI64 = 0;   // all values equal: one i64
constexpr uint64_t kEncStrideI64 = 1;  // arithmetic progression: base, stride
constexpr uint64_t kEncRawI64 = 2;     // n * 8 bytes
constexpr uint64_t kEncConstF64 = 3;   // all values equal: one f64
constexpr uint64_t kEncRawF64 = 4;     // n * 8 bytes
constexpr uint64_t kEncString = 5;     // dictionary + (const code | raw codes)

// Structural sanity bounds: a corrupt length field must fail fast instead of
// driving a multi-gigabyte allocation.
constexpr uint64_t kMaxFields = 4096;
constexpr uint64_t kMaxRows = 1ull << 40;

void EncodeI64Frame(const Column& col, size_t n, uint64_t* encoding,
                    ByteWriter* payload) {
  const int64_t* v = col.data_i64();
  bool constant = true;
  for (size_t i = 1; i < n && constant; ++i) constant = v[i] == v[0];
  if (n > 0 && constant) {
    *encoding = kEncConstI64;
    payload->I64(v[0]);
    return;
  }
  if (n >= 2) {
    const int64_t stride = v[1] - v[0];
    bool arithmetic = true;
    for (size_t i = 2; i < n && arithmetic; ++i) {
      arithmetic = v[i] - v[i - 1] == stride;
    }
    if (arithmetic) {
      *encoding = kEncStrideI64;
      payload->I64(v[0]);
      payload->I64(stride);
      return;
    }
  }
  *encoding = kEncRawI64;
  payload->Bytes(v, n * sizeof(int64_t));
}

void EncodeF64Frame(const Column& col, size_t n, uint64_t* encoding,
                    ByteWriter* payload) {
  const double* v = col.data_f64();
  bool constant = n > 0;
  for (size_t i = 1; i < n && constant; ++i) {
    // Bit-compare: NaNs and signed zeros must round-trip exactly.
    constant = std::memcmp(&v[i], &v[0], sizeof(double)) == 0;
  }
  if (constant) {
    *encoding = kEncConstF64;
    payload->F64(v[0]);
    return;
  }
  *encoding = kEncRawF64;
  payload->Bytes(v, n * sizeof(double));
}

void EncodeStringFrame(const Column& col, size_t n, ByteWriter* payload) {
  const auto& dict = *col.dict();
  payload->U64(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    payload->Str(dict.At(static_cast<int32_t>(i)));
  }
  const int32_t* codes = col.codes();
  bool constant = n > 0;
  for (size_t i = 1; i < n && constant; ++i) constant = codes[i] == codes[0];
  payload->U64(constant ? 1 : 0);
  if (constant) {
    payload->I64(codes[0]);
  } else {
    payload->Bytes(codes, n * sizeof(int32_t));
  }
}

Status DecodeI64Frame(uint64_t encoding, const std::string& payload, size_t n,
                      Column* col) {
  ByteReader cur(payload, kWhat);
  if (encoding == kEncConstI64) {
    DEX_ASSIGN_OR_RETURN(int64_t v, cur.I64());
    for (size_t i = 0; i < n; ++i) col->AppendInt64(v);
  } else if (encoding == kEncStrideI64) {
    DEX_ASSIGN_OR_RETURN(int64_t base, cur.I64());
    DEX_ASSIGN_OR_RETURN(int64_t stride, cur.I64());
    int64_t v = base;
    for (size_t i = 0; i < n; ++i, v += stride) col->AppendInt64(v);
  } else if (encoding == kEncRawI64) {
    if (payload.size() != n * sizeof(int64_t)) {
      return Status::Corruption("raw int64 frame size mismatch");
    }
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int64_t v;
      std::memcpy(&v, payload.data() + i * sizeof(int64_t), sizeof(int64_t));
      col->AppendInt64(v);
    }
  } else {
    return Status::Corruption("unknown int64 frame encoding " +
                              std::to_string(encoding));
  }
  return Status::OK();
}

Status DecodeF64Frame(uint64_t encoding, const std::string& payload, size_t n,
                      Column* col) {
  ByteReader cur(payload, kWhat);
  if (encoding == kEncConstF64) {
    DEX_ASSIGN_OR_RETURN(double v, cur.F64());
    for (size_t i = 0; i < n; ++i) col->AppendDouble(v);
  } else if (encoding == kEncRawF64) {
    if (payload.size() != n * sizeof(double)) {
      return Status::Corruption("raw double frame size mismatch");
    }
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      double v;
      std::memcpy(&v, payload.data() + i * sizeof(double), sizeof(double));
      col->AppendDouble(v);
    }
  } else {
    return Status::Corruption("unknown double frame encoding " +
                              std::to_string(encoding));
  }
  return Status::OK();
}

Status DecodeStringFrame(const std::string& payload, size_t n, Column* col) {
  ByteReader cur(payload, kWhat);
  DEX_ASSIGN_OR_RETURN(uint64_t dict_n, cur.Count(payload.size()));
  std::vector<std::string> dict;
  dict.reserve(dict_n);
  for (uint64_t i = 0; i < dict_n; ++i) {
    DEX_ASSIGN_OR_RETURN(std::string s, cur.Str());
    dict.push_back(std::move(s));
  }
  DEX_ASSIGN_OR_RETURN(uint64_t constant, cur.U64());
  if (constant > 1) return Status::Corruption("bad string frame const flag");
  auto check_code = [&](int64_t code) -> Status {
    if (code < 0 || static_cast<uint64_t>(code) >= dict_n) {
      return Status::Corruption("string code out of dictionary range");
    }
    return Status::OK();
  };
  if (constant == 1) {
    DEX_ASSIGN_OR_RETURN(int64_t code, cur.I64());
    if (n > 0) DEX_RETURN_NOT_OK(check_code(code));
    for (size_t i = 0; i < n; ++i) col->AppendString(dict[code]);
  } else {
    DEX_ASSIGN_OR_RETURN(std::string_view codes,
                         cur.Bytes(n * sizeof(int32_t)));
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int32_t code;
      std::memcpy(&code, codes.data() + i * sizeof(int32_t), sizeof(int32_t));
      DEX_RETURN_NOT_OK(check_code(code));
      col->AppendString(dict[code]);
    }
  }
  return Status::OK();
}

/// Validates magic + header checksum and parses the header. On success the
/// reader is positioned at the first frame and `meta`/`table_name`/`schema`/
/// `num_rows` are filled.
Status ParseValidatedHeader(ByteReader* cur, ColumnarFileMeta* meta,
                            std::string* table_name, SchemaPtr* schema,
                            uint64_t* num_rows) {
  DEX_RETURN_NOT_OK(cur->Mark(kMagic));
  ColumnarFileMeta m;
  DEX_ASSIGN_OR_RETURN(m.source_uri, cur->Str());
  DEX_ASSIGN_OR_RETURN(m.predicate_repr, cur->Str());
  DEX_ASSIGN_OR_RETURN(uint64_t pure, cur->U64());
  if (pure > 1) return Status::Corruption("bad window flag");
  m.window_pure = pure == 1;
  DEX_ASSIGN_OR_RETURN(m.window_lo, cur->F64());
  DEX_ASSIGN_OR_RETURN(m.window_hi, cur->F64());
  DEX_ASSIGN_OR_RETURN(m.source_size_bytes, cur->U64());
  DEX_ASSIGN_OR_RETURN(m.source_mtime_ms, cur->I64());
  DEX_ASSIGN_OR_RETURN(m.table_byte_size, cur->U64());
  DEX_ASSIGN_OR_RETURN(*table_name, cur->Str());
  DEX_ASSIGN_OR_RETURN(uint64_t num_fields, cur->Count(kMaxFields));
  auto s = std::make_shared<Schema>();
  for (uint64_t i = 0; i < num_fields; ++i) {
    Field f;
    DEX_ASSIGN_OR_RETURN(f.name, cur->Str());
    DEX_ASSIGN_OR_RETURN(uint64_t type, cur->U64());
    if (type > static_cast<uint64_t>(DataType::kBool)) {
      return Status::Corruption("unknown column type " + std::to_string(type));
    }
    f.type = static_cast<DataType>(type);
    DEX_ASSIGN_OR_RETURN(f.qualifier, cur->Str());
    s->AddField(f);
  }
  DEX_ASSIGN_OR_RETURN(*num_rows, cur->Count(kMaxRows));
  DEX_RETURN_NOT_OK(cur->Seal());  // header checksum
  *schema = std::move(s);
  if (meta != nullptr) *meta = std::move(m);
  return Status::OK();
}

}  // namespace

std::string EncodeColumnarFile(const Table& table,
                               const ColumnarFileMeta& meta) {
  ByteWriter out;
  out.Bytes(kMagic, sizeof(kMagic));
  out.Str(meta.source_uri);
  out.Str(meta.predicate_repr);
  out.U64(meta.window_pure ? 1 : 0);
  out.F64(meta.window_lo);
  out.F64(meta.window_hi);
  out.U64(meta.source_size_bytes);
  out.I64(meta.source_mtime_ms);
  out.U64(meta.table_byte_size != 0 ? meta.table_byte_size : table.ByteSize());
  out.Str(table.name());
  out.U64(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Field& f = table.schema()->field(i);
    out.Str(f.name);
    out.U64(static_cast<uint64_t>(f.type));
    out.Str(f.qualifier);
  }
  out.U64(table.num_rows());
  out.Seal();  // header checksum

  const size_t n = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    uint64_t encoding = 0;
    ByteWriter payload;
    switch (col.type()) {
      case DataType::kDouble:
        EncodeF64Frame(col, n, &encoding, &payload);
        break;
      case DataType::kString:
        encoding = kEncString;
        EncodeStringFrame(col, n, &payload);
        break;
      default:  // int64-backed: kInt64, kTimestamp, kBool
        EncodeI64Frame(col, n, &encoding, &payload);
        break;
    }
    out.U64(encoding);
    out.Str(payload.bytes());
    out.U64(Fnv1aString(payload.bytes()));  // frame checksum
  }

  out.Seal();  // whole-file checksum
  out.Bytes(kEndMark, sizeof(kEndMark));
  return out.Take();
}

Status PeekColumnarMeta(const std::string& bytes, ColumnarFileMeta* meta) {
  ByteReader cur(bytes, kWhat);
  std::string table_name;
  SchemaPtr schema;
  uint64_t num_rows = 0;
  return ParseValidatedHeader(&cur, meta, &table_name, &schema, &num_rows);
}

Result<TablePtr> DecodeColumnarFile(const std::string& bytes,
                                    ColumnarFileMeta* meta) {
  ByteReader cur(bytes, kWhat);
  std::string table_name;
  SchemaPtr schema;
  uint64_t num_rows = 0;
  DEX_RETURN_NOT_OK(
      ParseValidatedHeader(&cur, meta, &table_name, &schema, &num_rows));

  // Validate every frame checksum before materializing anything: a decode
  // must be all-or-nothing, never partially trusted rows.
  auto table = std::make_shared<Table>(table_name, schema);
  for (size_t c = 0; c < static_cast<size_t>(schema->num_fields()); ++c) {
    DEX_ASSIGN_OR_RETURN(uint64_t encoding, cur.U64());
    DEX_ASSIGN_OR_RETURN(const std::string payload, cur.Str());
    DEX_ASSIGN_OR_RETURN(uint64_t got, cur.U64());
    if (got != Fnv1aString(payload)) {
      return Status::Corruption("frame checksum mismatch in column '" +
                                schema->field(c).name + "'");
    }
    Column* col = table->mutable_column(c);
    switch (schema->field(c).type) {
      case DataType::kDouble:
        DEX_RETURN_NOT_OK(DecodeF64Frame(encoding, payload, num_rows, col));
        break;
      case DataType::kString:
        if (encoding != kEncString) {
          return Status::Corruption("string column with non-string encoding");
        }
        DEX_RETURN_NOT_OK(DecodeStringFrame(payload, num_rows, col));
        break;
      default:
        DEX_RETURN_NOT_OK(DecodeI64Frame(encoding, payload, num_rows, col));
        break;
    }
  }

  DEX_RETURN_NOT_OK(cur.Seal());  // whole-file checksum
  DEX_RETURN_NOT_OK(cur.Mark(kEndMark));
  DEX_RETURN_NOT_OK(cur.End());
  DEX_RETURN_NOT_OK(table->CommitAppendedRows(num_rows));
  return table;
}

}  // namespace dex
