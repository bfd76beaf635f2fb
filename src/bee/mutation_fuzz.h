#ifndef MICROSPEC_BEE_MUTATION_FUZZ_H_
#define MICROSPEC_BEE_MUTATION_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

namespace microspec::bee {

/// One mutation family's tally: how many single-step mutants were generated
/// and how many the verifier rejected. Every mutant this harness emits
/// is catalog-inconsistent by construction (each mutation targets an
/// invariant the layout model pins exactly), so `escapes` lists genuine
/// soundness holes, not noise.
struct FuzzFamilyReport {
  std::string family;
  int mutants = 0;
  int rejected = 0;
  std::vector<std::string> escapes;  // descriptions of undetected mutants
};

/// Aggregate over all families. `undetected() == 0` is the proof obligation:
/// no catalog-inconsistent mutant survived verification.
struct FuzzReport {
  std::vector<FuzzFamilyReport> families;

  int mutants() const;
  int rejected() const;
  int undetected() const;
  std::string ToString() const;
};

/// Runs the mutation-fuzz proof harness: for each verification family
/// ("gcl", "scl", "evp", "evj", "logapp") generates `mutants_per_family`
/// single-step mutants of freshly compiled bees from a deterministic RNG
/// seeded with `seed`, and checks that the corresponding BeeVerifier entry
/// point rejects each one. The native tier has no family of its own: it is
/// lowered from the same verified steps. Same seed, same report — byte for
/// byte — so CI can pin a seed.
FuzzReport RunMutationFuzz(uint64_t seed, int mutants_per_family);

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_MUTATION_FUZZ_H_
