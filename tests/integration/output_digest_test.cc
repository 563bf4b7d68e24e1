// Pins the synthesized bytes. Three instances are solved at 1 and 4 threads
// and the FNV-1a digests of R̂1, R̂2 (cell text, row-major) and of the text
// stream are compared against constants recorded from a known-good build.
// A change to phase 1's CC matching, the conflict oracle's or the
// coloring's representation must leave all of them unchanged; a change that
// is meant to alter the output has to re-record them and say why.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard_executor.h"
#include "core/solver.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"

namespace cextend {
namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Digest of every cell's text (NULL renders empty), a unit separator after
/// each cell and a record separator after each row.
uint64_t TableDigest(const Table& t) {
  uint64_t h = kFnvBasis;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      const Value v = t.GetValue(r, c);
      h = Fnv(h, v.is_null() ? std::string() : v.ToString());
      h = Fnv(h, "\x1f");
    }
    h = Fnv(h, "\x1e");
  }
  return h;
}

struct Digests {
  uint64_t r1_hat;
  uint64_t r2_hat;
  uint64_t stream;
};

void ExpectDigests(const Digests& actual, const Digests& expected,
                   const char* what) {
  EXPECT_EQ(actual.r1_hat, expected.r1_hat)
      << what << ": R1 digest 0x" << std::hex << actual.r1_hat;
  EXPECT_EQ(actual.r2_hat, expected.r2_hat)
      << what << ": R2 digest 0x" << std::hex << actual.r2_hat;
  EXPECT_EQ(actual.stream, expected.stream)
      << what << ": stream digest 0x" << std::hex << actual.stream;
}

/// The crowded hand-built instance of phase2_determinism_test: skipped
/// vertices, fresh keys and invalid-row repair all occur.
Digests SolveCrowded(size_t threads) {
  testing_fixtures::CrowdedInstance in =
      testing_fixtures::MakeCrowdedInstance();
  Phase2Options options;
  options.num_threads = threads;
  options.seed = 9;
  std::ostringstream text;
  TextStreamSink stream(text);
  auto result = testing_fixtures::PlanAndExecutePhase2(
      in.v_join, in.persons, in.housing, in.names, in.dcs, in.ccs, in.invalid,
      options, &stream);
  CEXTEND_CHECK(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.skipped_vertices, 0u);
  EXPECT_GT(result->stats.new_r2_tuples, 0u);
  EXPECT_GT(result->stats.invalid_rows, 0u);
  return {TableDigest(result->r1_hat), TableDigest(result->r2_hat),
          Fnv(kFnvBasis, text.str())};
}

/// 5,000 census persons and S_all_DC (owner clique, spouse clique, the 16
/// age-gap DCs and DC10/DC11), with 201 CCs of the good family or, with
/// `intersecting`, of the bad family, whose intersecting CCs go to the ILP.
Digests SolveCensus(size_t threads, bool intersecting) {
  datagen::CensusOptions census;
  census.num_persons = 5000;
  census.num_households = 2000;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 201;
  cc_options.intersecting = intersecting;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  const std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  SolverOptions options;
  options.seed = 5;
  options.phase1.ilp.num_threads = threads;
  options.phase2.num_threads = threads;
  auto planned = PlanCExtension(data->persons, data->housing, data->names,
                                ccs.value(), dcs, options);
  CEXTEND_CHECK(planned.ok()) << planned.status().ToString();
  if (intersecting) {
    EXPECT_GT(planned->stats.phase1.ccs_to_hasse, 0u);
    EXPECT_GT(planned->stats.phase1.ccs_to_ilp, 0u);
  }
  std::ostringstream text;
  TextStreamSink stream(text);
  auto solution =
      ExecuteCExtensionPlan(std::move(planned).value(), data->persons,
                            data->housing, data->names, dcs, options, &stream);
  CEXTEND_CHECK(solution.ok()) << solution.status().ToString();
  return {TableDigest(solution->r1_hat), TableDigest(solution->r2_hat),
          Fnv(kFnvBasis, text.str())};
}

TEST(OutputDigestTest, CrowdedInstanceBytesArePinned) {
  constexpr Digests kExpected = {0xc196b0f61113230bULL, 0xc2dd3576cc31ce28ULL,
                                 0x6cf55699e0a417f8ULL};
  ExpectDigests(SolveCrowded(1), kExpected, "1 thread");
  ExpectDigests(SolveCrowded(4), kExpected, "4 threads");
}

TEST(OutputDigestTest, CensusAllDcBytesArePinned) {
  constexpr Digests kExpected = {0x288c73f0785c5734ULL, 0xd4606f27a5e32c82ULL,
                                 0x5422e50c72f9779cULL};
  ExpectDigests(SolveCensus(1, false), kExpected, "1 thread");
  ExpectDigests(SolveCensus(4, false), kExpected, "4 threads");
}

TEST(OutputDigestTest, CensusIntersectingCcBytesArePinned) {
  constexpr Digests kExpected = {0xe1c4df72e9187113ULL, 0xa210960bf36f694bULL,
                                 0x45460442e74c71f4ULL};
  ExpectDigests(SolveCensus(1, true), kExpected, "1 thread");
  ExpectDigests(SolveCensus(4, true), kExpected, "4 threads");
}

}  // namespace
}  // namespace cextend
