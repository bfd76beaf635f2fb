#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bee/deform_program.h"
#include "bee/log_bee.h"
#include "bee/native_jit.h"
#include "bee/tuple_bee.h"
#include "bee/verifier.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "test_util.h"

namespace microspec {
namespace {

using bee::DeformOp;
using bee::DeformProgram;
using bee::DeformStep;
using bee::FormProgram;
using bee::TupleBeeManager;
using testing::RandomRow;
using testing::RandomSchema;
using testing::RowToString;
using testing::ScratchDir;

constexpr int kMaxAtts = 12;
/// Pre-filled into every output cell a routine must not write: cells past
/// the requested natts, and the cell one past the last tuple of a page.
constexpr Datum kSentinel = 0x5EB71E15CAFEF00Dull;

Schema Prefix(const Schema& s, int k) {
  std::vector<Column> cols;
  for (int i = 0; i < k; ++i) cols.push_back(s.column(i));
  return Schema(std::move(cols));
}

/// Differential property check for one relation. Tuples formed by the SCL
/// bee (specialized columns: the low-cardinality NOT NULL ones, as the bee
/// module selects them) must read back identically, at every partial natts
/// from 1 to the full count, through
///   (a) the program-tier GCL bee, scalar and page-batch (GCL-B),
///   (b) the native scalar routine and its `_b` page-batch sibling, both
///       lowered from the verified program and compiled (NULL-free tuples
///       only: the engine routes NULL-carrying tuples to the program tier),
///   (c) the generic metadata-checked loop over the stored schema,
/// and no routine may write past the requested natts or past the page's
/// last tuple. `steps_out` (optional) receives the deform program's steps.
void CheckAllDeformPaths(const Schema& logical, Rng* rng, int nrows,
                         const std::string& symbol,
                         std::vector<DeformStep>* steps_out = nullptr) {
  const int natts = logical.natts();
  ASSERT_LE(natts, kMaxAtts);
  std::vector<int> spec_cols;
  std::vector<Column> stored_cols;
  for (int i = 0; i < natts; ++i) {
    const Column& c = logical.column(i);
    if (c.low_cardinality() && c.not_null()) {
      spec_cols.push_back(i);
    } else {
      stored_cols.push_back(c);
    }
  }
  Schema stored(std::move(stored_cols));
  const bool has_bee = !spec_cols.empty();

  DeformProgram gcl = DeformProgram::Compile(logical, stored, spec_cols);
  FormProgram scl = FormProgram::Compile(logical, stored, spec_cols);
  ASSERT_OK(bee::BeeVerifier::VerifyDeform(gcl, logical, stored, spec_cols));
  ASSERT_OK(bee::BeeVerifier::VerifyForm(scl, logical, stored, spec_cols));
  if (steps_out != nullptr) *steps_out = gcl.steps();
  TupleBeeManager bees(&logical, spec_cols);

  // Native tier (skipped quietly when no compiler exists; the program and
  // generic paths still cross-check each other).
  ScratchDir dir;
  bee::NativeJit jit;
  bee::NativeGclTriple native;
  if (bee::NativeJit::CompilerAvailable()) {
    auto fn = jit.Compile(
        bee::NativeJit::LowerRelationBee(
            gcl.steps(),
            bee::LogApplierProgram::Compile(stored, has_bee).steps(), symbol),
        dir.path(), symbol);
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    native = fn.value();
  }

  // Form every row onto slotted pages, as the heap stores them.
  struct Row {
    Datum in[kMaxAtts];
    bool null[kMaxAtts];
    bool any_null = false;
    size_t page = 0;
    const char* tuple = nullptr;
  };
  Arena arena;
  std::vector<Row> rows(static_cast<size_t>(nrows));
  std::vector<std::vector<char>> pages;
  std::vector<std::vector<uint16_t>> slots;
  std::string buf;
  for (Row& row : rows) {
    RandomRow(logical, rng, &arena, row.in, row.null);
    for (int i = 0; i < natts; ++i) row.any_null = row.any_null || row.null[i];
    uint8_t bee_id = 0;
    if (has_bee) {
      auto interned = bees.Intern(row.in);
      ASSERT_TRUE(interned.ok()) << interned.status().ToString();
      bee_id = interned.value();
    }
    if (scl.applicable(row.null)) {
      scl.Execute(row.in, bee_id, has_bee, &buf);
    } else {
      scl.ExecuteNullable(row.in, row.null, bee_id, has_bee, &buf);
    }
    const uint32_t len = static_cast<uint32_t>(buf.size());
    int slot = pages.empty() ? -1
                             : SlottedPage(pages.back().data())
                                   .InsertTuple(buf.data(), len);
    if (slot < 0) {
      pages.emplace_back(kPageSize);
      slots.emplace_back();
      SlottedPage::Init(pages.back().data());
      slot = SlottedPage(pages.back().data()).InsertTuple(buf.data(), len);
      ASSERT_GE(slot, 0);
    }
    row.page = pages.size() - 1;
    slots.back().push_back(static_cast<uint16_t>(slot));
  }
  {
    size_t r = 0;
    for (size_t p = 0; p < pages.size(); ++p) {
      SlottedPage sp(pages[p].data());
      for (uint16_t slot : slots[p]) {
        uint32_t len = 0;
        rows[r++].tuple = sp.GetTuple(slot, &len);
      }
    }
  }
  const TupleBeeManager* bee_mgr = has_bee ? &bees : nullptr;
  const Datum* const* sections = has_bee ? bees.datum_table() : nullptr;
  std::vector<Schema> prefix;
  for (int k = 0; k <= natts; ++k) prefix.push_back(Prefix(logical, k));

  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    for (int k = 1; k <= natts; ++k) {
      SCOPED_TRACE(symbol + " row " + std::to_string(r) + " natts " +
                   std::to_string(k));
      const std::string expected = RowToString(prefix[k], row.in, row.null);

      // (a) program tier, scalar.
      Datum out[kMaxAtts];
      bool out_null[kMaxAtts];
      std::fill(out, out + kMaxAtts, kSentinel);
      std::fill(out_null, out_null + kMaxAtts, true);
      gcl.Execute(row.tuple, k, out, out_null, bee_mgr);
      EXPECT_EQ(expected, RowToString(prefix[k], out, out_null)) << "program";
      for (int j = k; j < natts; ++j) {
        EXPECT_EQ(out[j], kSentinel) << "program wrote past natts at " << j;
      }

      // (b) native tier, scalar.
      if (native.scalar != nullptr && !row.any_null) {
        Datum nat[kMaxAtts];
        char nat_null[kMaxAtts];
        std::fill(nat, nat + kMaxAtts, kSentinel);
        std::fill(nat_null, nat_null + kMaxAtts, 1);
        native.scalar(row.tuple, k, nat, nat_null, sections);
        EXPECT_EQ(expected, RowToString(prefix[k], nat,
                                        reinterpret_cast<bool*>(nat_null)))
            << "native";
        for (int j = k; j < natts; ++j) {
          EXPECT_EQ(nat[j], kSentinel) << "native wrote past natts at " << j;
          EXPECT_EQ(nat_null[j], 1) << "native cleared isnull past natts";
        }
      }
    }

    // (c) the generic loop over the stored schema sees the stored
    // projection of the row (specialized columns live in the bee's data
    // section, not the tuple).
    Datum proj[kMaxAtts];
    bool proj_null[kMaxAtts];
    int s = 0;
    for (int i = 0; i < natts; ++i) {
      bool spec = false;
      for (int c : spec_cols) spec = spec || (c == i);
      if (spec) continue;
      proj[s] = row.in[i];
      proj_null[s] = row.null[i];
      ++s;
    }
    for (int m = 1; m <= stored.natts(); ++m) {
      Datum gen_out[kMaxAtts];
      bool gen_null[kMaxAtts];
      tupleops::DeformTuple(stored, row.tuple, m, gen_out, gen_null);
      Schema sp = Prefix(stored, m);
      EXPECT_EQ(RowToString(sp, proj, proj_null),
                RowToString(sp, gen_out, gen_null))
          << "generic loop, " << symbol << " row " << r << " natts " << m;
    }
  }

  // GCL-B: one call per page, column-major. The program tier takes every
  // live tuple of the page (it handles NULL-carrying tuples one by one);
  // the native routine takes the page's NULL-free tuples, which for a NOT
  // NULL relation is the whole page. The tuple array carries one extra
  // valid entry so a page-loop overrun writes a sentinel cell instead of
  // faulting.
  for (size_t p = 0; p < pages.size(); ++p) {
    for (int tier = 0; tier < 2; ++tier) {
      const bool is_native = tier == 1;
      if (is_native && native.batch == nullptr) continue;
      std::vector<const Row*> batch_rows;
      for (const Row& row : rows) {
        if (row.page == p && !(is_native && row.any_null)) {
          batch_rows.push_back(&row);
        }
      }
      if (batch_rows.empty()) continue;
      const int n = static_cast<int>(batch_rows.size());
      std::vector<const char*> tuples;
      for (const Row* row : batch_rows) tuples.push_back(row->tuple);
      tuples.push_back(tuples.front());
      for (int k = 1; k <= natts; ++k) {
        SCOPED_TRACE(symbol + (is_native ? " native" : " program") +
                     " batch, page " + std::to_string(p) + " natts " +
                     std::to_string(k));
        std::vector<std::vector<Datum>> cols(
            static_cast<size_t>(natts),
            std::vector<Datum>(static_cast<size_t>(n) + 1, kSentinel));
        std::vector<std::vector<uint8_t>> nulls(
            static_cast<size_t>(natts),
            std::vector<uint8_t>(static_cast<size_t>(n) + 1, 1));
        std::vector<Datum*> colp;
        std::vector<uint8_t*> nullp;
        for (int a = 0; a < natts; ++a) {
          colp.push_back(cols[static_cast<size_t>(a)].data());
          nullp.push_back(nulls[static_cast<size_t>(a)].data());
        }
        if (is_native) {
          native.batch(tuples.data(), n, k, colp.data(),
                       reinterpret_cast<char* const*>(nullp.data()), sections);
        } else {
          gcl.ExecuteBatch(tuples.data(), n, k, colp.data(),
                           reinterpret_cast<bool* const*>(nullp.data()),
                           bee_mgr);
        }
        for (int r = 0; r < n; ++r) {
          Datum out[kMaxAtts];
          bool out_null[kMaxAtts];
          for (int a = 0; a < k; ++a) {
            out[a] = cols[static_cast<size_t>(a)][static_cast<size_t>(r)];
            out_null[a] =
                nulls[static_cast<size_t>(a)][static_cast<size_t>(r)] != 0;
          }
          EXPECT_EQ(RowToString(prefix[k], batch_rows[r]->in,
                                batch_rows[r]->null),
                    RowToString(prefix[k], out, out_null))
              << "tuple " << r;
          for (int a = k; a < natts; ++a) {
            EXPECT_EQ(cols[static_cast<size_t>(a)][static_cast<size_t>(r)],
                      kSentinel)
                << "batch wrote past natts at " << a;
          }
        }
        for (int a = 0; a < natts; ++a) {
          EXPECT_EQ(cols[static_cast<size_t>(a)][static_cast<size_t>(n)],
                    kSentinel)
              << "batch wrote past the page's last tuple";
          EXPECT_EQ(nulls[static_cast<size_t>(a)][static_cast<size_t>(n)], 1)
              << "batch cleared a null past the page's last tuple";
        }
      }
    }
  }
}

/// Randomized schemas: mixed nullability, char(n)/varlena/byval, with and
/// without tuple-bee specialized columns.
class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllDeformPathsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const int natts = 1 + static_cast<int>(rng.Uniform(12));
  Schema logical =
      RandomSchema(&rng, natts, /*allow_nullable=*/true,
                   /*allow_low_cardinality=*/true);
  CheckAllDeformPaths(logical, &rng, /*nrows=*/40,
                      "bee_diff_" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, DifferentialTest,
                         ::testing::Range(0, 24));

/// The column whose fast-path step is `op` at its position in the schemas
/// below (fixed ops before the first varchar, dynamic ops after it).
Column ColumnFor(DeformOp op) {
  switch (op) {
    case DeformOp::kFixed1:
    case DeformOp::kDyn1:
      return Column("t", TypeId::kBool, true);
    case DeformOp::kFixed4:
    case DeformOp::kDyn4:
      return Column("t", TypeId::kInt32, true);
    case DeformOp::kFixed8:
    case DeformOp::kDyn8:
      return Column("t", TypeId::kInt64, true);
    case DeformOp::kFixedChar:
    case DeformOp::kDynChar:
      return Column("t", TypeId::kChar, true, 5);
    case DeformOp::kFixedVarlena:
    case DeformOp::kDynVarlena:
      return Column("t", TypeId::kVarchar, true);
    case DeformOp::kSection:
      break;
  }
  Column c("t", TypeId::kChar, true, 5);
  c.set_low_cardinality(true);
  return c;
}

/// Systematic coverage of the lowering templates: every DeformOp, reached
/// with the cursor left at alignment 1, 4 or 8 by a NOT NULL or nullable
/// prefix column, with and without a tuple-bee section column ahead of it.
class DeformOpDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DeformOpDifferentialTest, EveryAlignmentNullabilityAndSection) {
  const DeformOp op = static_cast<DeformOp>(GetParam());
  const bool dynamic = op >= DeformOp::kDyn1 && op <= DeformOp::kDynVarlena;
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  int variant = 0;
  for (TypeId pre : {TypeId::kBool, TypeId::kInt32, TypeId::kInt64}) {
    for (bool nullable : {false, true}) {
      for (bool section : {false, true}) {
        if (op == DeformOp::kSection && !section) continue;
        Column prefix("p", pre, /*not_null=*/!nullable);
        std::vector<Column> cols = {prefix};
        if (dynamic) {
          cols.emplace_back("v", TypeId::kVarchar, true);
          cols.emplace_back("q", pre, /*not_null=*/!nullable);
        }
        if (section && op != DeformOp::kSection) {
          Column s("s", TypeId::kChar, true, 3);
          s.set_low_cardinality(true);
          cols.push_back(s);
        }
        cols.push_back(ColumnFor(op));
        cols.emplace_back("z", TypeId::kInt32, true);
        Schema logical(std::move(cols));
        const std::string symbol = "bee_op" + std::to_string(GetParam()) +
                                   "_" + std::to_string(variant++);
        SCOPED_TRACE(symbol);
        std::vector<DeformStep> steps;
        CheckAllDeformPaths(logical, &rng, /*nrows=*/24, symbol, &steps);
        bool covered = false;
        for (const DeformStep& s : steps) covered = covered || s.op == op;
        EXPECT_TRUE(covered) << "schema does not exercise the op";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, DeformOpDifferentialTest,
    ::testing::Range(0, static_cast<int>(DeformOp::kSection) + 1));

}  // namespace
}  // namespace microspec
