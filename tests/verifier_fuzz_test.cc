#include <gtest/gtest.h>

#include "bee/mutation_fuzz.h"

namespace microspec {
namespace {

using bee::FuzzFamilyReport;
using bee::FuzzReport;
using bee::RunMutationFuzz;

constexpr uint64_t kSeed = 0xC0FFEE;
constexpr int kMutantsPerFamily = 400;

/// The proof obligation from the taxonomy-wide verification work: across
/// thousands of seeded single-step mutants — deform/form program edits,
/// query-bee clause/key tampering, and log-applier step corruption — every
/// catalog-inconsistent mutant must be rejected in enforce mode.
TEST(VerifierFuzz, NoCatalogInconsistentMutantSurvives) {
  FuzzReport rep = RunMutationFuzz(kSeed, kMutantsPerFamily);
  EXPECT_GE(rep.mutants(), 2000);
  EXPECT_EQ(rep.undetected(), 0) << rep.ToString();
  for (const FuzzFamilyReport& f : rep.families) {
    EXPECT_EQ(f.mutants, kMutantsPerFamily) << f.family;
    EXPECT_EQ(f.rejected, f.mutants) << f.family << "\n" << rep.ToString();
  }
}

/// All five families must be present: the harness proves the whole bee IR
/// (GCL, SCL, EVP, EVJ, the log applier), not a subset that quietly stopped
/// running. The native tier is a lowering of the same verified steps.
TEST(VerifierFuzz, CoversEveryFamily) {
  FuzzReport rep = RunMutationFuzz(kSeed, 5);
  std::vector<std::string> want = {"gcl", "scl", "evp", "evj", "logapp"};
  ASSERT_EQ(rep.families.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rep.families[i].family, want[i]);
    EXPECT_GT(rep.families[i].mutants, 0);
  }
}

/// Same seed, same report, byte for byte — CI pins a seed and any
/// regression reproduces locally.
TEST(VerifierFuzz, Deterministic) {
  FuzzReport a = RunMutationFuzz(42, 60);
  FuzzReport b = RunMutationFuzz(42, 60);
  EXPECT_EQ(a.ToString(), b.ToString());
  FuzzReport c = RunMutationFuzz(43, 60);
  EXPECT_EQ(c.mutants(), a.mutants());  // different seed, same coverage
}

}  // namespace
}  // namespace microspec
