#include "core/snowflake.h"

#include <algorithm>
#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {
namespace {

/// Appends `fk` (NULL everywhere) to a copy of `base`, producing a table
/// usable as the R1 role.
Table WithNullFkColumn(const Table& base, const std::string& fk) {
  std::vector<ColumnSpec> specs = base.schema().columns();
  specs.push_back(ColumnSpec{fk, DataType::kInt64});
  std::vector<std::shared_ptr<Dictionary>> dicts;
  std::vector<std::vector<int64_t>> columns;
  for (size_t c = 0; c < base.NumColumns(); ++c) {
    dicts.push_back(base.dictionary(c));
    columns.push_back(base.ColumnCodes(c));
  }
  dicts.push_back(nullptr);
  columns.emplace_back(base.NumRows(), kNullCode);
  return Table(Schema(specs), std::move(dicts), std::move(columns));
}

}  // namespace

StatusOr<SnowflakeResult> SolveSnowflake(const SnowflakeProblem& problem,
                                         const SolverOptions& options) {
  SnowflakeResult result;
  std::map<std::string, std::string> rel_key;
  for (const SnowflakeRelation& rel : problem.relations) {
    if (!result.tables.emplace(rel.name, rel.table).second) {
      return Status::InvalidArgument("duplicate relation " + rel.name);
    }
    rel_key[rel.name] = rel.key;
  }
  if (!result.tables.contains(problem.fact)) {
    return Status::InvalidArgument("fact relation not found: " + problem.fact);
  }

  // Order links BFS-style: fact-sourced links first (input order), then the
  // rest (input order).
  std::vector<const SnowflakeLink*> order;
  for (const SnowflakeLink& link : problem.links) {
    if (link.source == problem.fact) order.push_back(&link);
  }
  for (const SnowflakeLink& link : problem.links) {
    if (link.source != problem.fact) order.push_back(&link);
  }

  // Accumulated join of the fact with completed targets (paper's growing R1).
  Table accumulated = result.tables.at(problem.fact).Clone();

  for (const SnowflakeLink* link : order) {
    auto source_it = result.tables.find(link->source);
    auto target_it = result.tables.find(link->target);
    if (source_it == result.tables.end() || target_it == result.tables.end()) {
      return Status::InvalidArgument(
          StrFormat("link %s -> %s references unknown relation",
                    link->source.c_str(), link->target.c_str()));
    }
    const bool is_fact_link = link->source == problem.fact;
    // R1 role: accumulated join for fact links, the bare source otherwise.
    // The FK column is appended as NULL (it is being synthesized).
    Table base = is_fact_link ? accumulated : source_it->second;
    if (base.schema().Contains(link->fk_column)) {
      return Status::InvalidArgument(
          "FK column already present in source: " + link->fk_column);
    }
    Table r1 = WithNullFkColumn(base, link->fk_column);
    const Table& r2 = target_it->second;
    CEXTEND_ASSIGN_OR_RETURN(
        PairSchema names,
        PairSchema::Infer(r1, r2, rel_key.at(link->source), link->fk_column,
                          rel_key.at(link->target)));
    CEXTEND_ASSIGN_OR_RETURN(
        Solution sol,
        SolveCExtension(r1, r2, names, link->ccs, link->dcs, options));
    result.link_stats.push_back(sol.stats);

    // Persist: the source gains its FK column; the target may have grown.
    if (is_fact_link) {
      // Write the FK back into the stored fact relation and extend the
      // accumulated join with the target's B columns.
      Table& fact = result.tables.at(problem.fact);
      Table fact_with_fk = WithNullFkColumn(fact, link->fk_column);
      size_t fk_col_hat = sol.r1_hat.schema().IndexOrDie(link->fk_column);
      for (size_t r = 0; r < fact_with_fk.NumRows(); ++r) {
        fact_with_fk.SetCode(r, fact_with_fk.NumColumns() - 1,
                             sol.r1_hat.GetCode(r, fk_col_hat));
      }
      fact = std::move(fact_with_fk);
      // v_join = accumulated + B columns of the target; FK column present in
      // r1_hat only, which is fine — CCs of later links read B columns.
      accumulated = std::move(sol.v_join);
    } else {
      source_it->second = std::move(sol.r1_hat);
    }
    result.tables.at(link->target) = std::move(sol.r2_hat);
  }
  return result;
}

}  // namespace cextend
