// Phase-1 ILP micro-kernels: model build, LP relaxation, and full branch &
// bound on synthetic bin×combo count models with the paper's block
// structure, at several scales — the dense-tableau test oracle
// (tests/ilp/dense_tableau_oracle.h: cold dense solves under a depth-first
// B&B) vs. the sparse revised simplex (warm-started best-first B&B), plus
// the component-decomposed solve at 1/2/8 threads.
//
// Each cell appends a JSON-lines record to the phase-1 perf trajectory
// (default `BENCH_phase1.json`, overridable via CEXTEND_BENCH_PHASE1_JSON;
// set it to `off` to disable). `tools/plot_bench.py` renders the trajectory
// alongside the phase-2 one.
//
// Flags: --smoke (smallest scale only, for the ctest canary), --scales=N
// (first N scales — baseline regeneration skips the slow dense solve at the
// largest scale), --seed=N.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/dense_tableau_oracle.h"
#include "ilp/simplex.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cextend {
namespace {

struct Scale {
  size_t bins;
  size_t combos;
  size_t ccs;
  size_t bins_per_group;  // component granularity
};

/// A synthetic phase-1 instance: groups of bins, each covered by a couple of
/// CCs over random combo subsets; targets counted on a known integral ground
/// truth, so the optimum slack is zero. Mirrors the encoding in
/// core/phase1_ilp.cc (bin-capacity equality rows + CC rows with u/v slack).
struct Instance {
  ilp::Model model;                       // monolithic model
  std::vector<ilp::Model> components;     // one model per bin group
  size_t num_structural = 0;
};

Instance MakeInstance(const Scale& scale, uint64_t seed) {
  Rng rng(seed);
  size_t num_groups = scale.bins / scale.bins_per_group;
  size_t ccs_per_group = (scale.ccs + num_groups - 1) / num_groups;

  struct Cc {
    std::vector<size_t> bins;
    std::vector<size_t> combos;
    int64_t target = 0;
  };
  std::vector<size_t> pool(scale.bins);
  for (size_t b = 0; b < scale.bins; ++b)
    pool[b] = static_cast<size_t>(rng.UniformInt(5, 40));
  std::vector<Cc> ccs;
  std::vector<std::vector<size_t>> group_ccs(num_groups);
  for (size_t g = 0; g < num_groups && ccs.size() < scale.ccs; ++g) {
    for (size_t k = 0; k < ccs_per_group && ccs.size() < scale.ccs; ++k) {
      Cc cc;
      for (size_t b = g * scale.bins_per_group;
           b < (g + 1) * scale.bins_per_group; ++b) {
        if (rng.Bernoulli(0.75)) cc.bins.push_back(b);
      }
      if (cc.bins.empty()) cc.bins.push_back(g * scale.bins_per_group);
      for (size_t c = 0; c < scale.combos; ++c) {
        if (rng.Bernoulli(3.0 / static_cast<double>(scale.combos)))
          cc.combos.push_back(c);
      }
      if (cc.combos.empty()) cc.combos.push_back(rng.UniformInt(
          0, static_cast<int64_t>(scale.combos) - 1));
      group_ccs[g].push_back(ccs.size());
      ccs.push_back(std::move(cc));
    }
  }

  // Ground truth: per bin, spread the pool uniformly over the covered
  // combos (remainder to "unused"), then count targets.
  std::vector<std::vector<size_t>> bin_combos(scale.bins);
  for (const Cc& cc : ccs) {
    for (size_t b : cc.bins) {
      for (size_t c : cc.combos) bin_combos[b].push_back(c);
    }
  }
  std::vector<std::vector<int64_t>> truth(scale.bins);
  for (size_t b = 0; b < scale.bins; ++b) {
    std::sort(bin_combos[b].begin(), bin_combos[b].end());
    bin_combos[b].erase(
        std::unique(bin_combos[b].begin(), bin_combos[b].end()),
        bin_combos[b].end());
    truth[b].assign(scale.combos, 0);
    size_t k = bin_combos[b].size();
    if (k == 0) continue;
    int64_t share = static_cast<int64_t>(pool[b] / (k + 1));
    for (size_t c : bin_combos[b]) truth[b][c] = share;
  }
  for (Cc& cc : ccs) {
    for (size_t b : cc.bins) {
      for (size_t c : cc.combos) cc.target += truth[b][c];
    }
  }

  // Model builder shared by the monolithic and per-component paths.
  auto build = [&](const std::vector<size_t>& bins,
                   const std::vector<size_t>& cc_ids, ilp::Model* model) {
    std::vector<std::vector<int>> var_of(scale.bins);
    for (size_t b : bins) {
      var_of[b].assign(scale.combos, -1);
      for (size_t c : bin_combos[b]) {
        var_of[b][c] = model->AddVariable(0.0, /*is_integer=*/true);
      }
    }
    for (size_t b : bins) {
      std::vector<ilp::LinearTerm> terms;
      for (size_t c : bin_combos[b]) terms.push_back({var_of[b][c], 1.0});
      int unused = model->AddVariable(0.0, /*is_integer=*/true);
      terms.push_back({unused, 1.0});
      model->AddConstraint(std::move(terms), ilp::Sense::kEq,
                           static_cast<double>(pool[b]));
    }
    for (size_t id : cc_ids) {
      const Cc& cc = ccs[id];
      std::vector<ilp::LinearTerm> terms;
      for (size_t b : cc.bins) {
        for (size_t c : cc.combos) {
          if (var_of[b][c] >= 0) terms.push_back({var_of[b][c], 1.0});
        }
      }
      int u = model->AddVariable(1.0, false);
      int v = model->AddVariable(1.0, false);
      terms.push_back({u, 1.0});
      terms.push_back({v, -1.0});
      model->AddConstraint(std::move(terms), ilp::Sense::kEq,
                           static_cast<double>(cc.target));
    }
  };

  Instance instance;
  std::vector<size_t> all_bins(scale.bins);
  for (size_t b = 0; b < scale.bins; ++b) all_bins[b] = b;
  std::vector<size_t> all_ccs(ccs.size());
  for (size_t c = 0; c < ccs.size(); ++c) all_ccs[c] = c;
  build(all_bins, all_ccs, &instance.model);
  instance.num_structural = instance.model.num_variables();
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<size_t> bins;
    for (size_t b = g * scale.bins_per_group;
         b < (g + 1) * scale.bins_per_group; ++b) {
      bins.push_back(b);
    }
    instance.components.emplace_back();
    build(bins, group_ccs[g], &instance.components.back());
  }
  return instance;
}

// Both B&B legs stop at the first zero-slack incumbent (zero slack == all
// CCs satisfied) or after kMaxNodes nodes.
constexpr int64_t kMaxNodes = 500;

ilp::IlpOptions BenchIlpOptions() {
  ilp::IlpOptions options;
  options.objective_target = 0.0;
  options.max_nodes = kMaxNodes;
  return options;
}

void Record(const char* kernel, const Scale& scale, size_t variables,
            size_t rows, double dense_seconds, double sparse_seconds,
            size_t threads) {
  const char* path = getenv("CEXTEND_BENCH_PHASE1_JSON");
  if (path != nullptr && strcmp(path, "off") == 0) return;
  if (path == nullptr || *path == '\0') path = "BENCH_phase1.json";
  FILE* f = fopen(path, "a");
  if (f == nullptr) return;  // perf log is best-effort
  fprintf(f,
          "{\"kernel\": \"%s\", \"bins\": %zu, \"combos\": %zu, "
          "\"ccs\": %zu, \"variables\": %zu, \"rows\": %zu, "
          "\"dense_seconds\": %.6f, \"sparse_seconds\": %.6f, "
          "\"speedup\": %.2f, \"threads\": %zu}\n",
          kernel, scale.bins, scale.combos, scale.ccs, variables, rows,
          dense_seconds, sparse_seconds,
          sparse_seconds > 0 ? dense_seconds / sparse_seconds : 0.0, threads);
  fclose(f);
}

void RunScale(const Scale& scale, uint64_t seed) {
  Stopwatch build_watch;
  Instance instance = MakeInstance(scale, seed);
  double build_seconds = build_watch.ElapsedSeconds();
  size_t vars = instance.model.num_variables();
  size_t rows = instance.model.num_constraints();
  std::printf("## %zu bins x %zu combos, %zu CCs -> %zu vars, %zu rows "
              "(%zu components; built in %.4fs)\n",
              scale.bins, scale.combos, scale.ccs, vars, rows,
              instance.components.size(), build_seconds);
  Record("model_build", scale, vars, rows, 0.0, build_seconds, 1);

  // LP relaxation, dense vs sparse.
  Stopwatch lp_dense_watch;
  ilp::LpResult lp_dense =
      ilp::dense_oracle::SolveLpDenseTableau(instance.model);
  double lp_dense_seconds = lp_dense_watch.ElapsedSeconds();
  Stopwatch lp_sparse_watch;
  ilp::LpResult lp_sparse = ilp::SolveLp(instance.model);
  double lp_sparse_seconds = lp_sparse_watch.ElapsedSeconds();
  CEXTEND_CHECK(lp_dense.status == ilp::LpStatus::kOptimal);
  CEXTEND_CHECK(lp_sparse.status == ilp::LpStatus::kOptimal);
  CEXTEND_CHECK(std::fabs(lp_dense.objective - lp_sparse.objective) < 1e-5);
  std::printf("  lp_relax   dense %8.4fs (%6lld it)  sparse %8.4fs (%6lld it)"
              "  speedup %5.1fx\n",
              lp_dense_seconds, static_cast<long long>(lp_dense.iterations),
              lp_sparse_seconds, static_cast<long long>(lp_sparse.iterations),
              lp_dense_seconds / lp_sparse_seconds);
  Record("lp_relax", scale, vars, rows, lp_dense_seconds, lp_sparse_seconds, 1);

  // Full branch & bound on the monolithic model.
  ilp::dense_oracle::DenseIlpLimits dense_limits;
  dense_limits.max_nodes = kMaxNodes;
  dense_limits.objective_target = 0.0;
  Stopwatch ilp_dense_watch;
  ilp::IlpResult ilp_dense =
      ilp::dense_oracle::SolveIlpDense(instance.model, dense_limits);
  double ilp_dense_seconds = ilp_dense_watch.ElapsedSeconds();
  Stopwatch ilp_sparse_watch;
  ilp::IlpResult ilp_sparse = ilp::SolveIlp(instance.model, BenchIlpOptions());
  double ilp_sparse_seconds = ilp_sparse_watch.ElapsedSeconds();
  std::printf("  ilp_solve  dense %8.4fs (%4lld nodes, %s)  "
              "sparse %8.4fs (%4lld nodes, %lld warm, %s)  speedup %5.1fx\n",
              ilp_dense_seconds, static_cast<long long>(ilp_dense.nodes),
              ilp::IlpStatusToString(ilp_dense.status), ilp_sparse_seconds,
              static_cast<long long>(ilp_sparse.nodes),
              static_cast<long long>(ilp_sparse.warm_solves),
              ilp::IlpStatusToString(ilp_sparse.status),
              ilp_dense_seconds / ilp_sparse_seconds);
  Record("ilp_solve", scale, vars, rows, ilp_dense_seconds,
         ilp_sparse_seconds, 1);

  // Component-decomposed sparse solve at 1/2/8 threads.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Stopwatch watch;
    std::vector<ilp::IlpResult> results(instance.components.size());
    auto solve_one = [&](size_t i) {
      results[i] = ilp::SolveIlp(instance.components[i], BenchIlpOptions());
    };
    ParallelFor(threads, instance.components.size(), solve_one);
    double seconds = watch.ElapsedSeconds();
    double slack = 0.0;
    for (const ilp::IlpResult& r : results) slack += r.objective;
    CEXTEND_CHECK(std::fabs(slack - ilp_sparse.objective) < 1e-5)
        << "decomposed slack diverged";
    std::printf("  ilp_decomposed (%zu threads) %8.4fs  speedup vs dense "
                "%5.1fx\n",
                threads, seconds, ilp_dense_seconds / seconds);
    Record("ilp_decomposed", scale, vars, rows, ilp_dense_seconds, seconds,
           threads);
  }
}

}  // namespace
}  // namespace cextend

int main(int argc, char** argv) {
  bool smoke = false;
  size_t max_scales = 0;  // 0 == all
  uint64_t seed = 29;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strncmp(argv[i], "--scales=", 9) == 0) {
      max_scales = static_cast<size_t>(atoll(argv[i] + 9));
    } else if (strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(atoll(argv[i] + 7));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  std::printf("# phase-1 ILP kernels: dense-tableau oracle vs sparse revised "
              "simplex + decomposition\n");
  std::vector<cextend::Scale> scales = {
      {48, 8, 12, 8},
      {96, 12, 24, 8},
      {200, 16, 50, 8},
      {400, 24, 100, 8},
  };
  if (smoke) scales.resize(1);
  if (max_scales > 0 && max_scales < scales.size()) scales.resize(max_scales);
  for (const cextend::Scale& scale : scales) {
    cextend::RunScale(scale, seed);
  }
  return 0;
}
