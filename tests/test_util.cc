#include "test_util.h"

#include <cstdio>
#include <cstdlib>
#include <random>

namespace microspec::testing {

namespace {
std::string RandomName() {
  static std::mt19937_64 rng(std::random_device{}());
  return "/tmp/microspec_test_" + std::to_string(rng());
}
}  // namespace

ScratchDir::ScratchDir() : path_(RandomName()) {
  std::string cmd = "mkdir -p " + path_;
  MICROSPEC_CHECK(std::system(cmd.c_str()) == 0);
}

ScratchDir::~ScratchDir() {
  std::string cmd = "rm -rf " + path_;
  (void)std::system(cmd.c_str());
}

std::unique_ptr<Database> OpenDb(const std::string& dir, bool enable_bees,
                                 bool tuple_bees, bee::BeeBackend backend) {
  DatabaseOptions opts;
  opts.dir = dir;
  opts.enable_bees = enable_bees;
  opts.enable_tuple_bees = tuple_bees;
  opts.backend = backend;
  opts.buffer_pool_frames = 2048;
  // Every test-created database runs the bee verifier in enforce mode: a
  // bee the verifier rejects fails the test that tried to create it.
  opts.verify_mode = bee::VerifyMode::kEnforce;
  auto res = Database::Open(std::move(opts));
  MICROSPEC_CHECK(res.ok());
  return res.MoveValue();
}

std::vector<trace::Span> LaneSpansSince(uint64_t since_ns) {
  std::vector<trace::Span> out;
  for (const auto& t : trace::Tracer::Background().Recent()) {
    for (trace::Span& s : t->Snapshot()) {
      if (s.start_ns >= since_ns) out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<std::string> CollectRows(Operator* op) {
  std::vector<std::string> rows;
  Status st = ForEachRow(op, [&](const Datum* v, const bool* n) {
    std::string row;
    const auto& meta = op->output_meta();
    for (size_t i = 0; i < meta.size(); ++i) {
      if (i > 0) row += "|";
      if (n != nullptr && n[i]) {
        row += "NULL";
        continue;
      }
      switch (meta[i].type) {
        case TypeId::kBool:
          row += DatumToBool(v[i]) ? "t" : "f";
          break;
        case TypeId::kInt32:
        case TypeId::kInt64:
        case TypeId::kDate:
          row += std::to_string(DatumToInt64(v[i]));
          break;
        case TypeId::kFloat64: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", DatumToFloat64(v[i]));
          row += buf;
          break;
        }
        case TypeId::kChar:
          row += std::string(DatumToPointer(v[i]),
                             static_cast<size_t>(meta[i].attlen));
          break;
        case TypeId::kVarchar: {
          std::string_view sv = VarlenaView(v[i]);
          row += std::string(sv);
          break;
        }
      }
    }
    rows.push_back(std::move(row));
  });
  MICROSPEC_CHECK(st.ok());
  return rows;
}

}  // namespace microspec::testing

namespace microspec::testing {

Schema RandomSchema(Rng* rng, int natts, bool allow_nullable,
                    bool allow_low_cardinality) {
  std::vector<Column> cols;
  for (int i = 0; i < natts; ++i) {
    TypeId type = static_cast<TypeId>(rng->Uniform(kNumTypeIds));
    bool not_null = !allow_nullable || rng->Uniform(3) != 0;
    int32_t len = type == TypeId::kChar
                      ? static_cast<int32_t>(rng->UniformRange(1, 24))
                      : 0;
    Column c("c" + std::to_string(i), type, not_null, len);
    if (allow_low_cardinality && not_null && rng->Uniform(4) == 0) {
      c.set_low_cardinality(true);
    }
    cols.push_back(std::move(c));
  }
  return Schema(std::move(cols));
}

void RandomRow(const Schema& schema, Rng* rng, Arena* arena, Datum* values,
               bool* isnull) {
  static const char* kLowCardPool[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < schema.natts(); ++i) {
    const Column& c = schema.column(i);
    isnull[i] = false;
    if (!c.not_null() && rng->Uniform(4) == 0) {
      isnull[i] = true;
      values[i] = 0;
      continue;
    }
    std::string payload;
    bool low_card = c.low_cardinality();
    if (low_card) payload = kLowCardPool[rng->Uniform(4)];
    switch (c.type()) {
      case TypeId::kBool:
        values[i] = DatumFromBool(rng->Uniform(2) == 1);
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        values[i] = DatumFromInt32(
            static_cast<int32_t>(rng->UniformRange(-1000000, 1000000)));
        break;
      case TypeId::kInt64:
        values[i] = DatumFromInt64(rng->UniformRange(-1LL << 40, 1LL << 40));
        break;
      case TypeId::kFloat64:
        values[i] = DatumFromFloat64(rng->NextDouble() * 2000 - 1000);
        break;
      case TypeId::kChar:
        if (!low_card) payload = rng->AlnumString(0, c.attlen());
        values[i] = tupleops::MakeFixedChar(arena, payload, c.attlen());
        break;
      case TypeId::kVarchar:
        if (!low_card) payload = rng->AlnumString(0, 40);
        values[i] = tupleops::MakeVarlena(arena, payload);
        break;
    }
  }
}

std::string RowToString(const Schema& schema, const Datum* values,
                        const bool* isnull) {
  std::string out;
  for (int i = 0; i < schema.natts(); ++i) {
    if (i > 0) out += "|";
    if (isnull != nullptr && isnull[i]) {
      out += "NULL";
      continue;
    }
    const Column& c = schema.column(i);
    switch (c.type()) {
      case TypeId::kBool:
        out += DatumToBool(values[i]) ? "t" : "f";
        break;
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kDate:
        out += std::to_string(DatumToInt64(values[i]));
        break;
      case TypeId::kFloat64: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", DatumToFloat64(values[i]));
        out += buf;
        break;
      }
      case TypeId::kChar:
        out += std::string(DatumToPointer(values[i]),
                           static_cast<size_t>(c.attlen()));
        break;
      case TypeId::kVarchar: {
        std::string_view sv = VarlenaView(values[i]);
        out.append(sv.data(), sv.size());
        break;
      }
    }
  }
  return out;
}

}  // namespace microspec::testing
