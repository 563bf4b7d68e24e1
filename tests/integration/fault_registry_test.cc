// Fault-site registry sync: the single source of truth is
// FaultInjection::KnownSites(). This suite pins, for every registered site:
//
//  1. a live CEXTEND_INJECT_FAULT call site exists in src/ (and no call site
//     names an unregistered site — typos in the string literal would
//     otherwise silently disarm a fault point);
//  2. the site is documented in src/core/README.md's site table and in the
//     fault_injection.h header comment;
//  3. the CI chaos job arms it (.github/workflows/ci.yml);
//  4. a chaos scenario in this binary actually reaches it (FiredCount > 0) —
//     a site nothing can fire is dead resilience coverage.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "core/stream_checkpoint.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "ilp/branch_and_bound.h"
#include "util/fault_injection.h"
#include "util/rng.h"

#ifndef CEXTEND_TEST_SOURCE_DIR
#error "CEXTEND_TEST_SOURCE_DIR must point at the repository root"
#endif

namespace cextend {
namespace {

namespace fs = std::filesystem;

std::string ReadWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  CEXTEND_CHECK(in.is_open()) << path.string();
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every quoted site name passed to CEXTEND_INJECT_FAULT in src/**.
std::set<std::string> ScanSourceTreeForCallSites() {
  const fs::path root = fs::path(CEXTEND_TEST_SOURCE_DIR) / "src";
  std::set<std::string> sites;
  const std::string needle = "CEXTEND_INJECT_FAULT(\"";
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    const std::string text = ReadWholeFile(entry.path());
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      const size_t begin = pos + needle.size();
      const size_t end = text.find('"', begin);
      CEXTEND_CHECK(end != std::string::npos) << entry.path().string();
      sites.insert(text.substr(begin, end - begin));
    }
  }
  return sites;
}

TEST(FaultRegistryTest, EveryCallSiteIsRegisteredAndViceVersa) {
  const std::vector<std::string>& known = FaultInjection::KnownSites();
  const std::set<std::string> registered(known.begin(), known.end());
  EXPECT_EQ(registered.size(), known.size()) << "duplicate registry entries";
  EXPECT_TRUE(std::is_sorted(known.begin(), known.end()));

  const std::set<std::string> in_source = ScanSourceTreeForCallSites();
  for (const std::string& site : registered) {
    EXPECT_TRUE(in_source.count(site))
        << "registered site '" << site << "' has no CEXTEND_INJECT_FAULT "
        << "call site in src/ — stale registry entry";
  }
  for (const std::string& site : in_source) {
    EXPECT_TRUE(registered.count(site))
        << "call site '" << site << "' is not in FaultInjection::KnownSites()"
        << " — add it to the registry (and docs) or fix the typo";
  }
}

TEST(FaultRegistryTest, EverySiteIsDocumentedAndArmedInCi) {
  const fs::path root(CEXTEND_TEST_SOURCE_DIR);
  const std::string readme = ReadWholeFile(root / "src/core/README.md");
  const std::string header =
      ReadWholeFile(root / "src/util/fault_injection.h");
  const std::string ci = ReadWholeFile(root / ".github/workflows/ci.yml");
  for (const std::string& site : FaultInjection::KnownSites()) {
    EXPECT_NE(readme.find(site), std::string::npos)
        << site << " missing from the src/core/README.md site table";
    EXPECT_NE(header.find(site), std::string::npos)
        << site << " missing from the fault_injection.h header comment";
    EXPECT_NE(ci.find(site), std::string::npos)
        << site << " not armed by the CI chaos job (ci.yml)";
  }
}

// ---- Scenario coverage: every site must actually fire. ----

using datagen::CcFamilyOptions;
using datagen::CensusData;
using datagen::CensusOptions;
using datagen::GenerateCcs;
using datagen::GenerateCensus;
using datagen::MakeCensusDcs;

struct Instance {
  CensusData data;
  std::vector<CardinalityConstraint> ccs;
  std::vector<DenialConstraint> dcs;
};

/// Small census instance with DC-invalid rows, so the repair stage (and its
/// per-combo oracles) runs.
const Instance& SmallInstance() {
  static const Instance* instance = [] {
    CensusOptions options;
    options.num_persons = 700;
    options.num_households = 260;
    options.seed = 11;
    auto data = GenerateCensus(options);
    CEXTEND_CHECK(data.ok());
    CcFamilyOptions cc_options;
    cc_options.num_ccs = 30;
    auto ccs = GenerateCcs(data.value(), cc_options);
    CEXTEND_CHECK(ccs.ok()) << ccs.status().ToString();
    return new Instance{std::move(data).value(), std::move(ccs).value(),
                        MakeCensusDcs(/*good_only=*/false)};
  }();
  return *instance;
}

/// Arms `site` alone at p=1 and runs a full solve; the solve may fail (that
/// is the chaos contract's job to check) — here only reachability matters.
uint64_t FireInCensusSolve(const std::string& site) {
  const Instance& instance = SmallInstance();
  ScopedFaults faults(site, /*seed=*/41);
  SolverOptions options;
  options.seed = 17;
  options.phase2.num_shards = 4;
  auto ignored =
      SolveCExtension(instance.data.persons, instance.data.housing,
                      instance.data.names, instance.ccs, instance.dcs, options);
  (void)ignored;
  return FaultInjection::Global().FiredCount(site);
}

/// Random branching ILPs reach the simplex/dual sites (warm starts, basis
/// refactorizations, pivot-cap checks).
uint64_t FireInIlp(const std::string& site) {
  uint64_t fired = 0;
  for (uint64_t seed = 1; seed < 64 && fired == 0; ++seed) {
    Rng rng(seed * 977 + 3);
    size_t n = 4 + static_cast<size_t>(rng.UniformInt(0, 6));
    size_t m = 3 + static_cast<size_t>(rng.UniformInt(0, 4));
    ilp::Model model;
    for (size_t j = 0; j < n; ++j) {
      double upper = rng.Bernoulli(0.4)
                         ? static_cast<double>(rng.UniformInt(1, 8))
                         : ilp::kInfinity;
      model.AddVariable(static_cast<double>(rng.UniformInt(-3, 3)),
                        rng.Bernoulli(0.7), upper);
    }
    for (size_t i = 0; i < m; ++i) {
      std::vector<ilp::LinearTerm> terms;
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.45)) {
          terms.push_back({static_cast<int>(j),
                           static_cast<double>(rng.UniformInt(-3, 3))});
        }
      }
      if (terms.empty()) continue;
      ilp::Sense sense = rng.Bernoulli(0.4)   ? ilp::Sense::kLe
                         : rng.Bernoulli(0.5) ? ilp::Sense::kGe
                                              : ilp::Sense::kEq;
      model.AddConstraint(std::move(terms), sense,
                          static_cast<double>(rng.UniformInt(-6, 10)));
    }
    ScopedFaults faults(site, /*seed=*/seed);
    ilp::SolveIlp(model);
    fired = FaultInjection::Global().FiredCount(site);
  }
  return fired;
}

/// A durable streaming attempt reaches every sink/manifest I/O site (the
/// manifest header append is the first durable write of a run).
uint64_t FireInDurableStream(const std::string& site) {
  const Instance& instance = SmallInstance();
  SolverOptions options;
  options.seed = 17;
  options.phase2.num_shards = 4;
  auto planned =
      PlanCExtension(instance.data.persons, instance.data.housing,
                     instance.data.names, instance.ccs, instance.dcs, options);
  CEXTEND_CHECK(planned.ok()) << planned.status().ToString();
  std::string tag = site;
  for (char& c : tag) {
    if (c == '.') c = '_';
  }
  DurableStreamSpec spec;
  spec.stream_path = ::testing::TempDir() + "/fault_registry_" + tag +
                     ".stream";
  spec.manifest_path = spec.stream_path + ".manifest";
  ScopedFaults faults(site, /*seed=*/43);
  auto ignored = ExecuteCExtensionPlanDurable(
      std::move(planned).value(), instance.data.persons, instance.data.housing,
      instance.data.names, instance.dcs, spec, options);
  (void)ignored;
  return FaultInjection::Global().FiredCount(site);
}

TEST(FaultRegistryTest, EverySiteFiresUnderSomeChaosScenario) {
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  std::map<std::string, uint64_t> fired;
  for (const std::string& site :
       {std::string("oracle.build"), std::string("oracle.pair_budget"),
        std::string("pool.alloc")}) {
    fired[site] = FireInCensusSolve(site);
  }
  for (const std::string& site :
       {std::string("simplex.iteration_cap"), std::string("simplex.refactor"),
        std::string("dual.warm_start")}) {
    fired[site] = FireInIlp(site);
  }
  for (const std::string& site :
       {std::string("sink.write"), std::string("sink.torn_write"),
        std::string("sink.flush"), std::string("manifest.commit")}) {
    fired[site] = FireInDurableStream(site);
  }

  for (const std::string& site : FaultInjection::KnownSites()) {
    auto it = fired.find(site);
    ASSERT_NE(it, fired.end())
        << "no chaos scenario covers site '" << site
        << "' — add one to this test";
    EXPECT_GT(it->second, 0u)
        << "site '" << site << "' never fired under its scenario";
  }
}

}  // namespace
}  // namespace cextend
