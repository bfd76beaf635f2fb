#ifndef MICROSPEC_TESTS_TEST_UTIL_H_
#define MICROSPEC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/tracing.h"
#include "engine/database.h"
#include "storage/tuple.h"

namespace microspec::testing {

/// Creates a fresh scratch directory under /tmp for one test, removed on
/// destruction.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::microspec::Status _st = (expr);                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::microspec::Status _st = (expr);                   \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                          \
  auto MICROSPEC_CONCAT_(_res_, __LINE__) = (expr);              \
  ASSERT_TRUE(MICROSPEC_CONCAT_(_res_, __LINE__).ok())           \
      << MICROSPEC_CONCAT_(_res_, __LINE__).status().ToString(); \
  lhs = MICROSPEC_CONCAT_(_res_, __LINE__).MoveValue()

/// Opens a database in a subdirectory of `scratch`.
std::unique_ptr<Database> OpenDb(const std::string& dir, bool enable_bees,
                                 bool tuple_bees = false,
                                 bee::BeeBackend backend =
                                     bee::BeeBackend::kProgram);

/// Background-lane spans (trace::Tracer::Background()) that started at or
/// after `since_ns`, in recording order.
std::vector<trace::Span> LaneSpansSince(uint64_t since_ns);

/// Collects every row of `op` as strings for easy comparison: each Datum is
/// rendered by type ("NULL" for nulls).
std::vector<std::string> CollectRows(Operator* op);

/// Property-test helpers: random schemas and rows exercising every type,
/// alignment interleaving, nullability, and low-cardinality annotation.
Schema RandomSchema(Rng* rng, int natts, bool allow_nullable,
                    bool allow_low_cardinality = false);

/// Fills `values`/`isnull` with a random row for `schema`; byref payloads
/// are allocated from `arena`. Low-cardinality columns draw from a pool of
/// at most 4 distinct values so tuple bees stay under their cap.
void RandomRow(const Schema& schema, Rng* rng, Arena* arena, Datum* values,
               bool* isnull);

/// Renders one row as a string using schema types (for equality checks).
std::string RowToString(const Schema& schema, const Datum* values,
                        const bool* isnull);

}  // namespace microspec::testing

#endif  // MICROSPEC_TESTS_TEST_UTIL_H_
