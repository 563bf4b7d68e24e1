#include "core/plan.h"

#include <algorithm>
#include <cstring>

#include "core/fill_state.h"
#include "util/logging.h"
#include "util/sanitize.h"
#include "util/timer.h"

namespace cextend {
namespace {

// ---- Fixed-width little-endian encoding (byte-stable on every host). ----

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

class Reader {
 public:
  explicit Reader(const std::string& bytes) : data_(bytes) {}

  bool U32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool Bytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

constexpr char kMagic[4] = {'C', 'X', 'P', 'L'};
constexpr uint32_t kVersion = 1;

CEXTEND_NO_SANITIZE_INTEGER
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Partition sizes over the valid rows, in first-row insertion order, plus
/// the size-descending stable worklist over them — exactly the grouping the
/// executor (and the monolithic phase 2 before it) derives, so shard
/// boundaries computed here line up with PreparePlan's worklist.
void ComputeWorklistSizes(const SynthesisPlan& plan,
                          const std::vector<uint8_t>& is_invalid,
                          std::vector<uint64_t>* worklist_sizes) {
  std::vector<uint64_t> partition_size;     // insertion order
  std::vector<size_t> partition_of_combo(plan.combo_table.size(), SIZE_MAX);
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    size_t combo = plan.row_combo[r];
    if (partition_of_combo[combo] == SIZE_MAX) {
      partition_of_combo[combo] = partition_size.size();
      partition_size.push_back(0);
    }
    ++partition_size[partition_of_combo[combo]];
  }
  std::vector<size_t> order(partition_size.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return partition_size[a] > partition_size[b];
  });
  worklist_sizes->clear();
  for (size_t i : order) worklist_sizes->push_back(partition_size[i]);
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
  for (uint64_t s : shard_seeds) PutU64(&out, s);
  return out;
}

StatusOr<SynthesisPlan> SynthesisPlan::Deserialize(const std::string& bytes) {
  Reader in(bytes);
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
  if (!in.U32(&num_combos)) {
    return Status::InvalidArgument("truncated SynthesisPlan combo table");
  }
  plan.combo_table.assign(num_combos, std::vector<int64_t>(q));
  for (auto& combo : plan.combo_table) {
    for (int64_t& code : combo) {
      if (!in.I64(&code)) {
        return Status::InvalidArgument("truncated SynthesisPlan combo table");
      }
    }
  }
  plan.row_combo.resize(plan.num_rows);
  for (uint32_t& combo : plan.row_combo) {
    if (!in.U32(&combo) || combo >= num_combos) {
      return Status::InvalidArgument("bad SynthesisPlan row combo");
    }
  }
  if (!in.U32(&num_invalid)) {
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
  plan.shard_begin.resize(num_shards + 1);
  for (size_t i = 0; i < plan.shard_begin.size(); ++i) {
    if (!in.U64(&plan.shard_begin[i]) ||
        (i > 0 && plan.shard_begin[i] < plan.shard_begin[i - 1])) {
      return Status::InvalidArgument("bad SynthesisPlan shard map");
    }
  }
  plan.shard_seeds.resize(num_shards);
  for (uint64_t& s : plan.shard_seeds) {
    if (!in.U64(&s)) {
      return Status::InvalidArgument("truncated SynthesisPlan shard seeds");
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
      std::vector<BoundPredicate> cc_r1;
      std::vector<std::vector<char>> cc_combo(ccs.size());
      for (size_t c = 0; c < ccs.size(); ++c) {
        CEXTEND_ASSIGN_OR_RETURN(
            BoundPredicate p1,
            BoundPredicate::Bind(ccs[c].r1_condition, v_join));
        cc_r1.push_back(std::move(p1));
        cc_combo[c].assign(combos.num_combos(), 0);
        CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> match,
                                 combos.MatchingCombos(ccs[c].r2_condition));
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
    std::unordered_map<std::vector<int64_t>, uint32_t, CodeVectorHash> interned;
    plan.row_combo.resize(v_join.NumRows());
    std::vector<int64_t> key(b_cols.size());
    for (size_t r = 0; r < v_join.NumRows(); ++r) {
      for (size_t i = 0; i < b_cols.size(); ++i) {
        key[i] = v_join.GetCode(r, b_cols[i]);
      }
      auto [it, inserted] = interned.try_emplace(
          key, static_cast<uint32_t>(plan.combo_table.size()));
      if (inserted) plan.combo_table.push_back(key);
      plan.row_combo[r] = it->second;
    }

    std::vector<uint64_t> worklist_sizes;
    ComputeWorklistSizes(plan, is_invalid, &worklist_sizes);
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

    plan.shard_seeds.resize(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      plan.shard_seeds[i] = plan.seed ^ SplitMix64(0xC3A5C85C97CB3127ULL + i);
    }
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
                                   const std::vector<DenialConstraint>& dcs) {
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
  CEXTEND_ASSIGN_OR_RETURN(prepared.bound_dcs, BindAll(dcs, v_join));

  std::vector<uint8_t> is_invalid(plan.num_rows, 0);
  for (uint32_t r : plan.invalid_rows) is_invalid[r] = 1;

  // Partitions over the valid rows, insertion order = first-row order —
  // identical to the monolithic partitioning pass, so the worklist (and
  // therefore every per-partition RNG stream) is unchanged.
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    const std::vector<int64_t>& combo = plan.combo_table[plan.row_combo[r]];
    auto [it, inserted] = prepared.partition_index.try_emplace(
        combo, prepared.partitions.size());
    if (inserted) prepared.partitions.push_back(PlanPartition{combo, {}, {}});
    prepared.partitions[it->second].rows.push_back(static_cast<uint32_t>(r));
  }
  // Candidate keys per partition from R2 (combos absent from V_join skipped).
  size_t k2_col = r2.schema().IndexOrDie(names.key2);
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols_r2,
                           FillState::ResolveBColumns(r2.schema(), names));
  std::vector<int64_t> r2key(b_cols_r2.size());
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    for (size_t i = 0; i < b_cols_r2.size(); ++i) {
      r2key[i] = r2.GetCode(r, b_cols_r2[i]);
    }
    auto it = prepared.partition_index.find(r2key);
    if (it != prepared.partition_index.end()) {
      prepared.partitions[it->second].candidates.push_back(
          r2.GetCode(r, k2_col));
    }
  }
  for (PlanPartition& p : prepared.partitions) {
    std::sort(p.candidates.begin(), p.candidates.end());
  }

  // Size-descending stable worklist (ties keep insertion order).
  prepared.worklist.resize(prepared.partitions.size());
  for (size_t i = 0; i < prepared.worklist.size(); ++i) {
    prepared.worklist[i] = i;
  }
  std::stable_sort(prepared.worklist.begin(), prepared.worklist.end(),
                   [&](size_t a, size_t b) {
                     return prepared.partitions[a].rows.size() >
                            prepared.partitions[b].rows.size();
                   });

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
  if (!plan.invalid_rows.empty()) {
    CEXTEND_ASSIGN_OR_RETURN(prepared.combos, ComboIndex::Build(r2, names));
    prepared.has_combos = true;
    for (uint32_t row : plan.invalid_rows) {
      const std::vector<int64_t>& combo =
          plan.combo_table[plan.row_combo[row]];
      std::optional<size_t> id = prepared.combos.Find(combo);
      if (!id.has_value()) {
        return Status::InvalidArgument(
            "SynthesisPlan repair combo not present in R2");
      }
      prepared.repair_groups[*id].push_back(row);
    }
  }

  prepared.fresh_base = 0;
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    prepared.fresh_base =
        std::max(prepared.fresh_base, r2.GetCode(r, k2_col) + 1);
  }
  return prepared;
}

std::vector<uint8_t> RepairPartitionFlags(const PreparedPlan& prepared) {
  std::vector<uint8_t> flags(prepared.partitions.size(), 0);
  for (const auto& [combo_id, group] : prepared.repair_groups) {
    auto it =
        prepared.partition_index.find(prepared.combos.combo_codes(combo_id));
    if (it != prepared.partition_index.end()) flags[it->second] = 1;
  }
  return flags;
}

}  // namespace cextend
