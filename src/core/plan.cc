#include "core/plan.h"

#include <algorithm>
#include <cstring>

#include "core/fill_state.h"
#include "util/bytes.h"
#include "util/code_interner.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cextend {
namespace {

constexpr char kMagic[4] = {'C', 'X', 'P', 'L'};
constexpr uint32_t kVersion = 2;

/// The valid rows grouped by plan combo id: partitions numbered in
/// first-row order, and the size-descending stable worklist over them. The
/// plan builder cuts shard boundaries from it and PreparePlan builds its
/// partitions from it, so the two always agree on the worklist.
struct PartitionLayout {
  std::vector<size_t> partition_of_combo;    // kNoPartition: no valid row
  std::vector<uint32_t> combo_of_partition;
  std::vector<uint64_t> sizes;               // rows per partition
  std::vector<size_t> worklist;              // partition ids
};

PartitionLayout LayoutPartitions(const SynthesisPlan& plan,
                                 const std::vector<uint8_t>& is_invalid) {
  PartitionLayout layout;
  layout.partition_of_combo.assign(plan.combo_table.size(),
                                   PreparedPlan::kNoPartition);
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    const uint32_t combo = plan.row_combo[r];
    size_t& partition = layout.partition_of_combo[combo];
    if (partition == PreparedPlan::kNoPartition) {
      partition = layout.sizes.size();
      layout.combo_of_partition.push_back(combo);
      layout.sizes.push_back(0);
    }
    ++layout.sizes[partition];
  }
  // Size-descending, ties in insertion order.
  layout.worklist.resize(layout.sizes.size());
  for (size_t i = 0; i < layout.worklist.size(); ++i) layout.worklist[i] = i;
  std::stable_sort(layout.worklist.begin(), layout.worklist.end(),
                   [&](size_t a, size_t b) {
                     return layout.sizes[a] > layout.sizes[b];
                   });
  return layout;
}

}  // namespace

std::string SynthesisPlan::Serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, seed);
  PutU64(&out, num_rows);
  PutU32(&out, static_cast<uint32_t>(b_names.size()));
  for (const std::string& name : b_names) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  PutU32(&out, static_cast<uint32_t>(combo_table.size()));
  for (const std::vector<int64_t>& combo : combo_table) {
    CEXTEND_CHECK(combo.size() == b_names.size());
    for (int64_t code : combo) PutI64(&out, code);
  }
  for (uint32_t combo : row_combo) PutU32(&out, combo);
  PutU32(&out, static_cast<uint32_t>(invalid_rows.size()));
  for (uint32_t row : invalid_rows) PutU32(&out, row);
  PutU32(&out, static_cast<uint32_t>(num_shards()));
  for (uint64_t b : shard_begin) PutU64(&out, b);
  return out;
}

StatusOr<SynthesisPlan> SynthesisPlan::Deserialize(const std::string& bytes) {
  ByteReader in(bytes);
  std::string magic;
  uint32_t version;
  if (!in.Bytes(sizeof(kMagic), &magic) ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a SynthesisPlan (bad magic)");
  }
  if (!in.U32(&version) || version != kVersion) {
    return Status::InvalidArgument("unsupported SynthesisPlan version");
  }
  SynthesisPlan plan;
  uint32_t q, num_combos, num_invalid, num_shards;
  if (!in.U64(&plan.seed) || !in.U64(&plan.num_rows) || !in.U32(&q)) {
    return Status::InvalidArgument("truncated SynthesisPlan header");
  }
  for (uint32_t i = 0; i < q; ++i) {
    uint32_t len;
    std::string name;
    if (!in.U32(&len) || !in.Bytes(len, &name)) {
      return Status::InvalidArgument("truncated SynthesisPlan column names");
    }
    plan.b_names.push_back(std::move(name));
  }
  // Every count below is checked against the bytes its entries need before
  // anything is sized from it, so a corrupt count fails instead of
  // allocating. Combos are distinct, so zero columns admit at most one.
  if (!in.U32(&num_combos) ||
      (q == 0 ? num_combos > 1
              : num_combos > in.Remaining() / (8 * static_cast<size_t>(q)))) {
    return Status::InvalidArgument("truncated SynthesisPlan combo table");
  }
  // Partitions and repair groups are keyed by combo id, so two equal
  // combos would split one partition in two over one candidate list.
  plan.combo_table.assign(num_combos, std::vector<int64_t>(q));
  CodeInterner distinct(q);
  for (auto& combo : plan.combo_table) {
    for (int64_t& code : combo) {
      if (!in.I64(&code)) {
        return Status::InvalidArgument("truncated SynthesisPlan combo table");
      }
    }
    if (!distinct.Intern(combo.data()).inserted) {
      return Status::InvalidArgument("duplicate SynthesisPlan combo");
    }
  }
  if (plan.num_rows > in.Remaining() / 4) {
    return Status::InvalidArgument("truncated SynthesisPlan row combos");
  }
  plan.row_combo.resize(plan.num_rows);
  for (uint32_t& combo : plan.row_combo) {
    if (!in.U32(&combo) || combo >= num_combos) {
      return Status::InvalidArgument("bad SynthesisPlan row combo");
    }
  }
  if (!in.U32(&num_invalid) || num_invalid > in.Remaining() / 4) {
    return Status::InvalidArgument("truncated SynthesisPlan invalid rows");
  }
  plan.invalid_rows.resize(num_invalid);
  for (uint32_t& row : plan.invalid_rows) {
    if (!in.U32(&row) || row >= plan.num_rows) {
      return Status::InvalidArgument("bad SynthesisPlan invalid row");
    }
  }
  if (!in.U32(&num_shards) || num_shards == 0) {
    return Status::InvalidArgument("SynthesisPlan must have >= 1 shard");
  }
  // shard_begin holds num_shards + 1 offsets.
  if (static_cast<size_t>(num_shards) + 1 > in.Remaining() / 8) {
    return Status::InvalidArgument("truncated SynthesisPlan shard map");
  }
  plan.shard_begin.resize(static_cast<size_t>(num_shards) + 1);
  for (size_t i = 0; i < plan.shard_begin.size(); ++i) {
    if (!in.U64(&plan.shard_begin[i]) ||
        (i > 0 && plan.shard_begin[i] < plan.shard_begin[i - 1])) {
      return Status::InvalidArgument("bad SynthesisPlan shard map");
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after SynthesisPlan");
  }
  return plan;
}

StatusOr<SynthesisPlan> BuildSynthesisPlan(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows,
    const SynthesisPlanOptions& options, const ComboIndex* r2_combos,
    PlanBuildTimings* timings) {
  PlanBuildTimings local_timings;
  if (timings == nullptr) timings = &local_timings;
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols,
                           FillState::ResolveBColumns(v_join.schema(), names));

  SynthesisPlan plan;
  plan.seed = options.seed;
  plan.num_rows = v_join.NumRows();
  plan.b_names = names.r2_attrs;
  plan.invalid_rows = invalid_rows;

  std::vector<uint8_t> is_invalid(v_join.NumRows(), 0);
  for (uint32_t r : invalid_rows) is_invalid[r] = 1;

  // ---- solveInvalidTuples pass 1 (Algorithm 4 line 16, selection half). ----
  // Picks each invalid row's min-badness combo (fewest CCs newly satisfied)
  // and writes its B cells. The choice depends only on the row's A values and
  // the CC conditions — never on coloring — which is what makes it *plan*
  // state: freezing it here fixes the repair grouping before any shard runs.
  {
    ScopedTimer timer(&timings->selection_seconds);
    if (!invalid_rows.empty()) {
      ComboIndex built;
      if (r2_combos == nullptr) {
        CEXTEND_ASSIGN_OR_RETURN(built, ComboIndex::Build(r2, names));
        r2_combos = &built;
      }
      const ComboIndex& combos = *r2_combos;
      FootprintMatcher combo_matcher = FootprintMatcher::ForCombos(combos, r2);
      std::vector<BoundPredicate> cc_r1;
      std::vector<std::vector<char>> cc_combo(ccs.size());
      for (size_t c = 0; c < ccs.size(); ++c) {
        CEXTEND_ASSIGN_OR_RETURN(
            BoundPredicate p1,
            BoundPredicate::Bind(ccs[c].r1_condition, v_join));
        cc_r1.push_back(std::move(p1));
        cc_combo[c].assign(combos.num_combos(), 0);
        CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> match,
                                 combo_matcher.Match(ccs[c].r2_condition));
        for (size_t i : match) cc_combo[c][i] = 1;
      }
      for (uint32_t row : invalid_rows) {
        size_t best_combo = 0;
        int64_t best_badness = INT64_MAX;
        for (size_t i = 0; i < combos.num_combos(); ++i) {
          int64_t badness = 0;
          for (size_t c = 0; c < ccs.size(); ++c) {
            if (cc_combo[c][i] && cc_r1[c].Matches(v_join, row)) ++badness;
          }
          if (badness < best_badness) {
            best_badness = badness;
            best_combo = i;
            if (badness == 0) break;
          }
        }
        const std::vector<int64_t>& combo = combos.combo_codes(best_combo);
        for (size_t i = 0; i < b_cols.size(); ++i) {
          v_join.SetCode(row, b_cols[i], combo[i]);
        }
      }
    }
  }

  // ---- Freeze the combo layout and the shard map. ----
  {
    ScopedTimer timer(&timings->layout_seconds);
    // Every row (valid and repaired) now carries its combo; intern them in
    // first-appearance order. Phase 1 may synthesize combos absent from R2,
    // which is why the plan keeps its own table instead of ComboIndex ids.
    std::vector<const int64_t*> b_codes;
    for (size_t col : b_cols) b_codes.push_back(v_join.ColumnCodes(col).data());
    CodeInterner interned(b_cols.size());
    plan.row_combo.resize(v_join.NumRows());
    std::vector<int64_t> key(b_cols.size());
    for (size_t r = 0; r < v_join.NumRows(); ++r) {
      for (size_t i = 0; i < b_codes.size(); ++i) key[i] = b_codes[i][r];
      const auto [id, inserted] = interned.Intern(key.data());
      if (inserted) plan.combo_table.push_back(key);
      plan.row_combo[r] = id;
    }

    const PartitionLayout layout = LayoutPartitions(plan, is_invalid);
    std::vector<uint64_t> worklist_sizes;
    for (size_t p : layout.worklist) worklist_sizes.push_back(layout.sizes[p]);
    uint64_t total = 0;
    for (uint64_t s : worklist_sizes) total += s;

    size_t requested = options.num_shards;
    if (requested == 0) {
      requested = 4 * std::max<size_t>(1, options.num_threads_hint);
    }
    size_t num_shards =
        std::max<size_t>(1, std::min(requested, worklist_sizes.size()));

    // Contiguous worklist ranges balanced by row count: boundary s sits at
    // the first prefix holding at least total*s/num_shards rows. Large
    // partitions lead the worklist, so early shards are the heavy ones.
    plan.shard_begin.assign(num_shards + 1, 0);
    uint64_t cum = 0;
    size_t s = 1;
    for (size_t i = 0; i < worklist_sizes.size(); ++i) {
      cum += worklist_sizes[i];
      while (s < num_shards && cum * num_shards >= total * s) {
        plan.shard_begin[s++] = i + 1;
      }
    }
    for (; s <= num_shards; ++s) plan.shard_begin[s] = worklist_sizes.size();
  }
  return plan;
}

Status ApplyPlanToJoinView(const SynthesisPlan& plan, Table& v_join,
                           const PairSchema& names) {
  if (plan.b_names != names.r2_attrs) {
    return Status::InvalidArgument(
        "SynthesisPlan B columns do not match the pair schema");
  }
  if (plan.num_rows != v_join.NumRows()) {
    return Status::InvalidArgument(
        "SynthesisPlan row count does not match the join view");
  }
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols,
                           FillState::ResolveBColumns(v_join.schema(), names));
  for (size_t r = 0; r < plan.num_rows; ++r) {
    const std::vector<int64_t>& combo = plan.combo_table[plan.row_combo[r]];
    for (size_t i = 0; i < b_cols.size(); ++i) {
      v_join.SetCode(r, b_cols[i], combo[i]);
    }
  }
  return Status::Ok();
}

StatusOr<PreparedPlan> PreparePlan(const SynthesisPlan& plan,
                                   const Table& v_join, const Table& r2,
                                   const PairSchema& names,
                                   const std::vector<DenialConstraint>& dcs,
                                   const ComboIndex* r2_combos,
                                   const DcRowClasses* dc_classes) {
  if (plan.num_rows != v_join.NumRows()) {
    return Status::InvalidArgument(
        "SynthesisPlan row count does not match the join view");
  }
  if (plan.b_names != names.r2_attrs) {
    return Status::InvalidArgument(
        "SynthesisPlan B columns do not match the pair schema");
  }
  if (plan.num_shards() == 0) {
    return Status::InvalidArgument("SynthesisPlan has no shard map");
  }
  PreparedPlan prepared;
  prepared.plan = &plan;
  prepared.v_join = &v_join;
  if (dc_classes == nullptr) {
    CEXTEND_ASSIGN_OR_RETURN(std::vector<BoundDenialConstraint> bound,
                             BindAll(dcs, v_join));
    prepared.owned_dc_classes = std::make_unique<const DcRowClasses>(
        DcRowClasses::Build(v_join, std::move(bound)));
    dc_classes = prepared.owned_dc_classes.get();
  }
  prepared.dc_classes = dc_classes;

  std::vector<uint8_t> is_invalid(plan.num_rows, 0);
  for (uint32_t r : plan.invalid_rows) is_invalid[r] = 1;

  // Partitions over the valid rows, insertion order = first-row order —
  // identical to the monolithic partitioning pass, so the worklist (and
  // therefore every per-partition RNG stream) is unchanged. Candidates are
  // the partition combo's R2 keys (ascending; none for a combo phase 1
  // synthesized).
  if (r2_combos == nullptr) {
    CEXTEND_ASSIGN_OR_RETURN(ComboIndex built, ComboIndex::Build(r2, names));
    prepared.owned_combos =
        std::make_unique<const ComboIndex>(std::move(built));
    r2_combos = prepared.owned_combos.get();
  }
  prepared.combos = r2_combos;
  PartitionLayout layout = LayoutPartitions(plan, is_invalid);
  prepared.partitions.resize(layout.sizes.size());
  for (size_t p = 0; p < prepared.partitions.size(); ++p) {
    PlanPartition& partition = prepared.partitions[p];
    partition.combo = plan.combo_table[layout.combo_of_partition[p]];
    partition.rows.reserve(layout.sizes[p]);
    if (std::optional<size_t> id = prepared.combos->Find(partition.combo)) {
      partition.candidates = prepared.combos->keys(*id);
    }
  }
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    prepared.partitions[layout.partition_of_combo[plan.row_combo[r]]]
        .rows.push_back(static_cast<uint32_t>(r));
  }
  prepared.partition_of_combo = std::move(layout.partition_of_combo);
  prepared.worklist = std::move(layout.worklist);

  if (plan.shard_begin.front() != 0 ||
      plan.shard_begin.back() != prepared.worklist.size()) {
    return Status::InvalidArgument(
        "SynthesisPlan shard map does not cover the partition worklist "
        "(plan built for different tables?)");
  }
  prepared.shard_rows.assign(plan.num_shards(), 0);
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    for (uint64_t i = plan.shard_begin[s]; i < plan.shard_begin[s + 1]; ++i) {
      prepared.shard_rows[s] +=
          prepared.partitions[prepared.worklist[i]].rows.size();
    }
  }

  // Repair grouping: invalid rows grouped by their planned combo, keyed by
  // ComboIndex id ascending (pass-1 selections always come from R2's combos).
  for (uint32_t row : plan.invalid_rows) {
    std::optional<size_t> id =
        prepared.combos->Find(plan.combo_table[plan.row_combo[row]]);
    if (!id.has_value()) {
      return Status::InvalidArgument(
          "SynthesisPlan repair combo not present in R2");
    }
    prepared.repair_groups[*id].push_back(row);
  }

  prepared.fresh_base = 0;
  const size_t k2_col = r2.schema().IndexOrDie(names.key2);
  for (int64_t key : r2.ColumnCodes(k2_col)) {
    prepared.fresh_base = std::max(prepared.fresh_base, key + 1);
  }
  return prepared;
}

std::vector<uint8_t> RepairPartitionFlags(const PreparedPlan& prepared) {
  std::vector<uint8_t> flags(prepared.partitions.size(), 0);
  for (const auto& [combo_id, group] : prepared.repair_groups) {
    const size_t partition =
        prepared.partition_of_combo[prepared.plan->row_combo[group.front()]];
    if (partition != PreparedPlan::kNoPartition) flags[partition] = 1;
  }
  return flags;
}

}  // namespace cextend
