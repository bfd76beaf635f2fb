#include "bee/log_bee.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bee/deform_program.h"
#include "bee/native_jit.h"
#include "bee/verifier.h"
#include "catalog/schema.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "test_util.h"

namespace microspec {
namespace {

using bee::ComputeLogLenBounds;
using bee::GenericLogApply;
using bee::LogApplierProgram;
using bee::LogApplyOp;
using bee::LogStepOp;

Schema FixedSchema() {
  return Schema({Column("a", TypeId::kInt32, true),
                 Column("b", TypeId::kInt64, true)});
}

/// Forms a stored-layout tuple for FixedSchema into `out`.
std::vector<char> FormFixed(int32_t a, int64_t b, bool with_bee_id = false) {
  Schema schema = FixedSchema();
  Datum values[2] = {DatumFromInt32(a), DatumFromInt64(b)};
  std::vector<char> out(
      tupleops::ComputeTupleSize(schema, values, nullptr));
  tupleops::FormTuple(schema, values, nullptr, out.data(), /*bee_id=*/0,
                      with_bee_id);
  return out;
}

TEST(LogLenBounds, FixedLayoutIsExact) {
  bee::LogLenBounds bounds = ComputeLogLenBounds(FixedSchema());
  EXPECT_EQ(bounds.min_len, bounds.max_len);
  std::vector<char> img = FormFixed(1, 2);
  EXPECT_EQ(bounds.min_len, img.size());
}

TEST(LogLenBounds, VarlenLayoutWidens) {
  Schema schema({Column("a", TypeId::kInt32, true),
                 Column("v", TypeId::kVarchar, true)});
  bee::LogLenBounds bounds = ComputeLogLenBounds(schema);
  EXPECT_LT(bounds.min_len, bounds.max_len);
}

TEST(LogApplierProgram, CompilesCanonicalSteps) {
  LogApplierProgram prog = LogApplierProgram::Compile(FixedSchema(), false);
  ASSERT_EQ(prog.steps().size(), 5u);
  for (size_t i = 0; i < prog.steps().size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(prog.steps()[i].op), i)
        << "steps must be in canonical enum order";
  }
  EXPECT_FALSE(prog.Disassemble().empty());
}

class LogApplierApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prog_ = LogApplierProgram::Compile(FixedSchema(), false);
    page_.assign(kPageSize, '\0');
    SlottedPage::Init(page_.data());
  }

  char* page() { return page_.data(); }

  LogApplierProgram prog_;
  std::vector<char> page_;
};

TEST_F(LogApplierApplyTest, InsertDeleteRestoreUpdateRoundTrip) {
  std::vector<char> img = FormFixed(7, 70);
  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kInsert, 0, img.data(),
                        static_cast<uint32_t>(img.size())));
  SlottedPage sp(page());
  uint32_t len = 0;
  const char* t = sp.GetTuple(0, &len);
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(len, img.size());
  EXPECT_EQ(std::memcmp(t, img.data(), len), 0);

  std::vector<char> img2 = FormFixed(8, 80);
  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kUpdateInPlace, 0, img2.data(),
                        static_cast<uint32_t>(img2.size())));
  t = sp.GetTuple(0, &len);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(std::memcmp(t, img2.data(), len), 0);

  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kDelete, 0, nullptr, 0));
  EXPECT_EQ(sp.GetTuple(0, &len), nullptr);

  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kRestore, 0, img.data(),
                        static_cast<uint32_t>(img.size())));
  t = sp.GetTuple(0, &len);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(std::memcmp(t, img.data(), len), 0);
}

TEST_F(LogApplierApplyTest, RejectsNonFreshInsertSlot) {
  std::vector<char> img = FormFixed(1, 2);
  // Slot 3 on an empty page is not the next fresh slot.
  EXPECT_FALSE(prog_.Apply(page(), LogApplyOp::kInsert, 3, img.data(),
                           static_cast<uint32_t>(img.size()))
                   .ok());
}

TEST_F(LogApplierApplyTest, RejectsWrongImageLength) {
  std::vector<char> img = FormFixed(1, 2);
  EXPECT_FALSE(prog_.Apply(page(), LogApplyOp::kInsert, 0, img.data(),
                           static_cast<uint32_t>(img.size() - 1))
                   .ok());
}

TEST_F(LogApplierApplyTest, RejectsNattsDrift) {
  std::vector<char> img = FormFixed(1, 2);
  auto* hdr = reinterpret_cast<TupleHeader*>(img.data());
  hdr->natts += 1;
  EXPECT_FALSE(prog_.Apply(page(), LogApplyOp::kInsert, 0, img.data(),
                           static_cast<uint32_t>(img.size()))
                   .ok());
}

TEST_F(LogApplierApplyTest, RejectsBeeFlagMismatch) {
  // This relation has no tuple bees, so a beeID-tagged image is corrupt.
  std::vector<char> tagged = FormFixed(1, 2, /*with_bee_id=*/true);
  EXPECT_FALSE(prog_.Apply(page(), LogApplyOp::kInsert, 0, tagged.data(),
                           static_cast<uint32_t>(tagged.size()))
                   .ok());
  // And a tuple-bee relation's applier demands the tag.
  LogApplierProgram bee_prog =
      LogApplierProgram::Compile(FixedSchema(), /*has_tuple_bees=*/true);
  std::vector<char> plain = FormFixed(1, 2);
  EXPECT_FALSE(bee_prog
                   .Apply(page(), LogApplyOp::kInsert, 0, plain.data(),
                          static_cast<uint32_t>(plain.size()))
                   .ok());
  ASSERT_OK(bee_prog.Apply(page(), LogApplyOp::kInsert, 0, tagged.data(),
                           static_cast<uint32_t>(tagged.size())));
}

TEST_F(LogApplierApplyTest, DeleteSkipsImageChecks) {
  std::vector<char> img = FormFixed(5, 50);
  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kInsert, 0, img.data(),
                        static_cast<uint32_t>(img.size())));
  // kDelete carries no new image onto the page; no image to validate.
  ASSERT_OK(prog_.Apply(page(), LogApplyOp::kDelete, 0, nullptr, 0));
}

TEST(GenericLogApplyTest, StructuralGuards) {
  std::vector<char> page(kPageSize, '\0');
  SlottedPage::Init(page.data());
  std::vector<char> img = FormFixed(3, 30);
  const uint32_t len = static_cast<uint32_t>(img.size());
  ASSERT_OK(GenericLogApply(page.data(), LogApplyOp::kInsert, 0, img.data(),
                            len));
  // Deleting a dead/missing slot fails.
  EXPECT_FALSE(
      GenericLogApply(page.data(), LogApplyOp::kDelete, 7, nullptr, 0).ok());
  // Restoring a live slot fails.
  EXPECT_FALSE(GenericLogApply(page.data(), LogApplyOp::kRestore, 0,
                               img.data(), len)
                   .ok());
  ASSERT_OK(GenericLogApply(page.data(), LogApplyOp::kDelete, 0, nullptr, 0));
  // Deleting it again fails.
  EXPECT_FALSE(
      GenericLogApply(page.data(), LogApplyOp::kDelete, 0, nullptr, 0).ok());
  ASSERT_OK(GenericLogApply(page.data(), LogApplyOp::kRestore, 0, img.data(),
                            len));
  SlottedPage sp(page.data());
  uint32_t got = 0;
  const char* t = sp.GetTuple(0, &got);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(std::memcmp(t, img.data(), got), 0);
}

/// --- Native log applier differential -----------------------------------------
///
/// The native `_la` routine is lowered from the verified LogApplierProgram;
/// this differential is its proof. Each record runs through the native
/// routine, LogApplierProgram::Apply and (for page-state outcomes)
/// GenericLogApply on three copies of one page: the native result code must
/// be the expected one, the program must accept exactly when the native
/// routine returns 0, and the pages must stay byte-identical — a rejected
/// record leaves its page untouched. The image checks (codes 11-14) are
/// schema knowledge the generic applier does not have, so it sits those out.

/// Logical schemas; the stored layout and specialized columns are derived
/// the way the bee module derives them (low-cardinality NOT NULL columns
/// move into tuple-bee sections).
Schema LogDiffSchema(int which) {
  Column lc("flag", TypeId::kChar, true, 3);
  lc.set_low_cardinality(true);
  switch (which) {
    case 0:  // fixed NOT NULL layout: exact image length
      return FixedSchema();
    case 1:  // the same stored layout behind a tuple-bee section
      return Schema({lc, Column("a", TypeId::kInt32, true),
                     Column("b", TypeId::kInt64, true)});
    case 2:  // fixed layout with a nullable column
      return Schema({Column("a", TypeId::kInt32, true),
                     Column("b", TypeId::kInt64, false),
                     Column("c", TypeId::kBool, true)});
    case 3:  // variable-length layout
      return Schema({Column("a", TypeId::kInt32, true),
                     Column("v", TypeId::kVarchar, true),
                     Column("c", TypeId::kChar, false, 3)});
    default: {
      Rng rng(static_cast<uint64_t>(which) * 6151 + 5);
      return testing::RandomSchema(&rng, 1 + static_cast<int>(rng.Uniform(8)),
                                   /*allow_nullable=*/true,
                                   /*allow_low_cardinality=*/true);
    }
  }
}

class LogApplierDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!bee::NativeJit::CompilerAvailable()) {
      GTEST_SKIP() << "no C compiler on this host";
    }
    logical_ = LogDiffSchema(GetParam());
    std::vector<Column> rest;
    for (int i = 0; i < logical_.natts(); ++i) {
      const Column& c = logical_.column(i);
      if (c.low_cardinality() && c.not_null()) {
        spec_cols_.push_back(i);
      } else {
        rest.push_back(c);
      }
    }
    stored_ = Schema(std::move(rest));
    has_bees_ = !spec_cols_.empty();
    prog_ = LogApplierProgram::Compile(stored_, has_bees_);
    ASSERT_OK(bee::BeeVerifier::VerifyLogApplier(prog_.steps(), logical_,
                                                 stored_, spec_cols_));
    const std::string symbol = "bee_la_diff_" + std::to_string(GetParam());
    auto fn = jit_.Compile(
        bee::NativeJit::LowerRelationBee(
            bee::DeformProgram::Compile(logical_, stored_, spec_cols_)
                .steps(),
            prog_.steps(), symbol),
        dir_.path(), symbol);
    ASSERT_TRUE(fn.ok()) << fn.status().ToString();
    native_ = fn.value().log_apply;
    ResetPages();
  }

  void ResetPages() {
    for (std::vector<char>* p : {&native_page_, &program_page_, &generic_page_}) {
      p->assign(kPageSize, '\0');
      SlottedPage::Init(p->data());
    }
  }

  /// A valid stored-layout image of a random row.
  std::vector<char> Image() {
    Datum values[16];
    bool isnull[16];
    testing::RandomRow(stored_, &rng_, &arena_, values, isnull);
    std::vector<char> img(
        tupleops::ComputeTupleSize(stored_, values, isnull));
    tupleops::FormTuple(stored_, values, isnull, img.data(), /*bee_id=*/0,
                        has_bees_);
    return img;
  }

  /// Applies one record to all three pages; returns the native code.
  int Apply(LogApplyOp op, uint16_t slot, const char* img, uint32_t len,
            bool generic = true) {
    SCOPED_TRACE(std::string(bee::LogApplyOpName(op)) + " slot " +
                 std::to_string(slot) + " len " + std::to_string(len));
    const std::vector<char> before = native_page_;
    const int code = native_(native_page_.data(), static_cast<int>(op), slot,
                             img, len);
    Status ps = prog_.Apply(program_page_.data(), op, slot, img, len);
    EXPECT_EQ(code == 0, ps.ok()) << "native " << code << ", program "
                                  << ps.ToString();
    EXPECT_TRUE(native_page_ == program_page_) << "native vs program page";
    if (code != 0) {
      EXPECT_TRUE(native_page_ == before) << "reject mutated";
    }
    if (generic) {
      Status gs = GenericLogApply(generic_page_.data(), op, slot, img, len);
      EXPECT_EQ(code == 0, gs.ok()) << "native " << code << ", generic "
                                    << gs.ToString();
      EXPECT_TRUE(native_page_ == generic_page_) << "native vs generic page";
    }
    return code;
  }
  int Apply(LogApplyOp op, uint16_t slot, const std::vector<char>& img,
            bool generic = true) {
    return Apply(op, slot, img.data(), static_cast<uint32_t>(img.size()),
                 generic);
  }

  /// Overwrites a 16-bit field at `off` on all three pages alike.
  void Poke(uint32_t off, uint16_t v) {
    for (std::vector<char>* p : {&native_page_, &program_page_, &generic_page_}) {
      std::memcpy(p->data() + off, &v, sizeof(v));
    }
  }
  static uint32_t SlotEntry(uint16_t slot) {
    return kPageHeaderSize + kPageSlotSize * slot;
  }

  Schema logical_;
  Schema stored_;
  std::vector<int> spec_cols_;
  bool has_bees_ = false;
  LogApplierProgram prog_;
  testing::ScratchDir dir_;
  bee::NativeJit jit_;
  bee::NativeLogApplyFn native_ = nullptr;
  std::vector<char> native_page_, program_page_, generic_page_;
  Rng rng_{99};
  Arena arena_;
};

TEST_P(LogApplierDifferentialTest, NativeMatchesProgramAndGeneric) {
  const std::vector<char> a = Image();
  const std::vector<char> b = Image();
  // Insert, update in place (same footprint), delete, restore.
  ASSERT_EQ(Apply(LogApplyOp::kInsert, 0, a), 0);
  ASSERT_EQ(Apply(LogApplyOp::kInsert, 1, b), 0);
  EXPECT_EQ(Apply(LogApplyOp::kUpdateInPlace, 0, a), 0);
  EXPECT_EQ(Apply(LogApplyOp::kDelete, 1, nullptr, 0), 0);
  EXPECT_EQ(Apply(LogApplyOp::kRestore, 1, b), 0);

  // Image checks: 10-14. The image would otherwise insert cleanly at the
  // next fresh slot.
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 2, a.data(), 5), 10);
  std::vector<char> bad = a;
  uint16_t natts;
  std::memcpy(&natts, bad.data(), 2);
  natts = static_cast<uint16_t>(natts + 1);
  std::memcpy(bad.data(), &natts, 2);
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 2, bad, /*generic=*/false), 11);
  bad = a;
  bad[2] = static_cast<char>(bad[2] ^ kTupleHasBeeId);
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 2, bad, /*generic=*/false), 12);
  bad = a;
  uint16_t hoff;
  std::memcpy(&hoff, bad.data() + 4, 2);
  hoff = static_cast<uint16_t>(hoff + 8);
  std::memcpy(bad.data() + 4, &hoff, 2);
  EXPECT_EQ(Apply(LogApplyOp::kRestore, 1, bad, /*generic=*/false), 13);
  const bee::LogLenBounds bounds = ComputeLogLenBounds(stored_);
  std::vector<char> wide(bounds.max_len + 1, '\0');
  std::memcpy(wide.data(), a.data(), a.size());
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 2, wide.data(), bounds.min_len - 1,
                  /*generic=*/false),
            14);
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 2, wide, /*generic=*/false), 14);

  // Page-state checks.
  EXPECT_EQ(Apply(LogApplyOp::kInsert, 5, a), 20);
  EXPECT_EQ(Apply(LogApplyOp::kDelete, 9, nullptr, 0), 30);
  ASSERT_EQ(Apply(LogApplyOp::kDelete, 1, nullptr, 0), 0);
  EXPECT_EQ(Apply(LogApplyOp::kDelete, 1, nullptr, 0), 31);
  EXPECT_EQ(Apply(LogApplyOp::kRestore, 9, b), 40);
  EXPECT_EQ(Apply(LogApplyOp::kRestore, 0, a), 41);
  EXPECT_EQ(Apply(LogApplyOp::kUpdateInPlace, 9, a), 50);
  EXPECT_EQ(Apply(LogApplyOp::kUpdateInPlace, 1, b), 51);
  // A dead slot whose preserved offset sits at the page end: the image
  // would run past it.
  Poke(SlotEntry(1), static_cast<uint16_t>(kPageSize - 2));
  EXPECT_EQ(Apply(LogApplyOp::kRestore, 1, b), 42);
  // A live slot whose footprint is one 8-byte unit: a larger image does
  // not fit in place.
  Poke(SlotEntry(0) + 2, 1);
  EXPECT_EQ(Apply(LogApplyOp::kUpdateInPlace, 0, a), 52);

  // Fill a fresh page to the last byte: every insert lands identically on
  // all three pages, and the one that does not fit is 21.
  ResetPages();
  int code = 0;
  uint16_t slot = 0;
  while (code == 0) {
    const std::vector<char> img = Image();
    code = Apply(LogApplyOp::kInsert, slot, img);
    if (code == 0) ++slot;
  }
  EXPECT_EQ(code, 21);
  EXPECT_GT(slot, 1);
}

INSTANTIATE_TEST_SUITE_P(Schemas, LogApplierDifferentialTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace microspec
