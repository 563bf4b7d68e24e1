// CSV + constraint-spec round trip: the exact pipeline the CLI tool drives.
// Tables are serialized to CSV and parsed back, the constraints come from
// spec text, and the solver's output must satisfy everything — proving the
// text syntax and the programmatic API describe the same instances.

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "constraints/parser.h"
#include "core/join_oracle.h"
#include "core/solver.h"
#include "relational/csv.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

constexpr const char* kSpec = R"(
# Figure 2 of the paper, in spec syntax
cc chicago_owners:    COUNT(Rel = "Owner" & Area = "Chicago") = 4
cc nyc_owners:        COUNT(Rel = "Owner" & Area = "NYC") = 2
cc young_chicago:     COUNT(Age <= 24 & Area = "Chicago") = 3
cc multiling_chicago: COUNT(MultiLing = 1 & Area = "Chicago") = 4

dc one_owner:  !(t0.Rel = "Owner" & t1.Rel = "Owner")
dc spouse_low: !(t0.Rel = "Owner" & t1.Rel = "Spouse" & t1.Age < t0.Age - 50)
dc spouse_up:  !(t0.Rel = "Owner" & t1.Rel = "Spouse" & t1.Age > t0.Age + 50)
dc child_low:  !(t0.Rel = "Owner" & t0.MultiLing = 1 & t1.Rel = "Child" & t1.Age < t0.Age - 50)
dc child_up:   !(t0.Rel = "Owner" & t0.MultiLing = 1 & t1.Rel = "Child" & t1.Age > t0.Age - 12)
)";

TEST(SpecRoundTripTest, CsvAndSpecReproducePaperExample) {
  PaperExample ex = MakePaperExample();

  // CSV round trip of both relations.
  auto persons = ParseCsv(ToCsv(ex.persons), ex.persons.schema());
  auto housing = ParseCsv(ToCsv(ex.housing), ex.housing.schema());
  ASSERT_TRUE(persons.ok() && housing.ok());

  // Constraints from spec text against the attribute schemas.
  Schema r1_attrs{{"Age", DataType::kInt64},
                  {"Rel", DataType::kString},
                  {"MultiLing", DataType::kInt64}};
  Schema r2_attrs{{"Area", DataType::kString}};
  auto spec = ParseConstraintSpec(kSpec, r1_attrs, r2_attrs);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->ccs.size(), 4u);
  ASSERT_EQ(spec->dcs.size(), 5u);

  auto names =
      PairSchema::Infer(persons.value(), housing.value(), "pid", "hid", "hid");
  ASSERT_TRUE(names.ok());
  auto solution = SolveCExtension(persons.value(), housing.value(),
                                  names.value(), spec->ccs, spec->dcs, {});
  ASSERT_TRUE(solution.ok()) << solution.status();

  auto cc_report = EvaluateCcError(spec->ccs, solution->v_join);
  ASSERT_TRUE(cc_report.ok());
  EXPECT_EQ(cc_report->num_exact, 4u) << cc_report->Summary();
  auto dc_report = EvaluateDcError(spec->dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->num_violations, 0u) << dc_report->Summary();

  // The parsed DCs agree with the fixture's hand-built ones on every pair.
  ASSERT_EQ(ex.dcs.size(), spec->dcs.size());
  auto hand = BindAll(ex.dcs, ex.persons);
  auto parsed = BindAll(spec->dcs, ex.persons);
  ASSERT_TRUE(hand.ok() && parsed.ok());
  for (size_t d = 0; d < hand->size(); ++d) {
    for (uint32_t i = 0; i < ex.persons.NumRows(); ++i) {
      for (uint32_t j = 0; j < ex.persons.NumRows(); ++j) {
        if (i == j) continue;
        EXPECT_EQ((*hand)[d].BodyHolds(ex.persons, {i, j}),
                  (*parsed)[d].BodyHolds(ex.persons, {i, j}))
            << "dc " << d << " pair " << i << "," << j;
      }
    }
  }
}

TEST(SpecRoundTripTest, SolutionSurvivesCsvSerialization) {
  PaperExample ex = MakePaperExample();
  auto solution =
      SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs, {});
  ASSERT_TRUE(solution.ok());
  auto r1_hat = ParseCsv(ToCsv(solution->r1_hat), solution->r1_hat.schema());
  ASSERT_TRUE(r1_hat.ok());
  auto dc_report = EvaluateDcError(ex.dcs, r1_hat.value(), "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->num_violations, 0u);
  auto truth =
      join_oracle::MaterializeJoin(r1_hat.value(), ex.housing, ex.names);
  ASSERT_TRUE(truth.ok()) << truth.status();  // all FKs valid after reload
}

}  // namespace
}  // namespace cextend
