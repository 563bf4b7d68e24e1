#include "core/phase1_hasse.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>

#include "relational/attr_set.h"
#include "util/logging.h"

namespace cextend {
namespace {

/// Recursive node processing (Algorithm 2 lines 7-13, with the base case of
/// lines 2-6 as the childless specialization). Shared children in a DAG are
/// processed once; every parent still subtracts their targets.
class HasseRecursion {
 public:
  HasseRecursion(FillState& state, const ComboIndex& combos,
                 const std::vector<CardinalityConstraint>& ccs,
                 const std::vector<CcMatch>& matches,
                 const HasseDiagram& diagram, Phase1HasseStats* stats)
      : state_(state),
        combos_(combos),
        ccs_(ccs),
        matches_(matches),
        diagram_(diagram),
        stats_(stats),
        processed_(ccs.size(), false) {}

  void ProcessNode(int node) {
    size_t n = static_cast<size_t>(node);
    if (processed_[n]) return;
    processed_[n] = true;

    int64_t child_total = 0;
    for (int child : diagram_.children(node)) {
      ProcessNode(child);
      child_total += ccs_[static_cast<size_t>(child)].target;
    }

    int64_t needed = ccs_[n].target - child_total;
    if (needed < 0) {
      stats_->shortfall += -needed;
      needed = 0;
    }
    if (needed == 0) return;

    // Bins satisfying sigma_m but no child's sigma_c (paper line 12).
    std::unordered_set<size_t> excluded;
    for (int child : diagram_.children(node)) {
      const CcMatch& cm = matches_[static_cast<size_t>(child)];
      excluded.insert(cm.bins.begin(), cm.bins.end());
    }

    const CcMatch& match = matches_[n];
    if (match.combos.empty()) {
      // No R2 combination realizes the R2-side condition; nothing joinable.
      stats_->shortfall += needed;
      return;
    }
    // Key-count-weighted rotation: spread assignments according to how many
    // R2 tuples realize each combo, so phase II rarely runs out of colors.
    const std::vector<size_t> rotation =
        combos_.ExpandByKeyCount(match.combos);
    size_t next = 0;
    int64_t remaining = needed;
    for (size_t bin : match.bins) {
      if (remaining == 0) break;
      if (excluded.contains(bin)) continue;
      std::vector<uint32_t> rows =
          state_.PopRows(bin, static_cast<size_t>(remaining));
      for (uint32_t row : rows) {
        size_t combo = rotation[next++ % rotation.size()];
        state_.AssignFullCombo(row, combos_.combo_codes(combo));
      }
      remaining -= static_cast<int64_t>(rows.size());
      stats_->rows_assigned += rows.size();
    }
    stats_->shortfall += remaining;
  }

 private:
  FillState& state_;
  const ComboIndex& combos_;
  const std::vector<CardinalityConstraint>& ccs_;
  const std::vector<CcMatch>& matches_;
  const HasseDiagram& diagram_;
  Phase1HasseStats* stats_;
  std::vector<bool> processed_;
};

}  // namespace

void RunPhase1Hasse(FillState& state, const ComboIndex& combos,
                    const std::vector<CardinalityConstraint>& ccs,
                    const std::vector<CcMatch>& matches,
                    const HasseDiagram& diagram, Phase1HasseStats* stats) {
  HasseRecursion recursion(state, combos, ccs, matches, diagram, stats);
  for (size_t comp = 0; comp < diagram.num_components(); ++comp) {
    for (int m : diagram.maximal_elements(static_cast<int>(comp))) {
      recursion.ProcessNode(m);
    }
  }
}

Status RunPhase1HasseStandalone(FillState& state, const ComboIndex& combos,
                                const std::vector<CardinalityConstraint>& ccs,
                                const Schema& r1_schema, const Table& r2,
                                Phase1HasseStats* stats) {
  CEXTEND_ASSIGN_OR_RETURN(CcRelationMatrix relations,
                           ClassifyAll(ccs, r1_schema, r2.schema()));
  for (size_t i = 0; i < relations.size(); ++i) {
    for (size_t j = i + 1; j < relations.size(); ++j) {
      if (relations.At(i, j) == CcRelation::kIntersecting) {
        return Status::FailedPrecondition(
            "Algorithm 2 requires a CC set without intersecting pairs; " +
            ccs[i].name + " intersects " + ccs[j].name);
      }
    }
  }
  CEXTEND_ASSIGN_OR_RETURN(std::vector<CcMatch> matches,
                           MatchCcs(state.binning(), combos, r2, ccs));
  HasseDiagram diagram = HasseDiagram::Build(relations);
  RunPhase1Hasse(state, combos, ccs, matches, diagram, stats);
  return Status::Ok();
}

StatusOr<std::vector<uint32_t>> CompleteLeftoverRows(
    FillState& state, const ComboIndex& combos,
    const std::vector<CardinalityConstraint>& avoid_ccs,
    const std::vector<CcMatch>& avoid_matches, const DcRowClasses& dc_classes,
    LeftoverMode mode, Rng& rng, FinalFillStats* stats) {
  std::vector<uint32_t> invalid;
  std::vector<uint32_t> leftovers = state.DrainPools();
  if (leftovers.empty()) return invalid;

  if (mode == LeftoverMode::kRandom) {
    // Baseline behaviour: uniformly random existing combo per row.
    if (combos.num_combos() == 0) {
      return Status::FailedPrecondition("R2 has no rows to draw combos from");
    }
    for (uint32_t row : leftovers) {
      size_t combo = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(combos.num_combos()) - 1));
      state.AssignFullCombo(row, combos.combo_codes(combo));
      ++stats->completed_rows;
    }
    return invalid;
  }

  // kAvoidCcs: per bin, find the existing combos that newly satisfy no
  // avoid-CC relevant to the bin; fall back to a synthesized unused combo.
  const Binning& binning = state.binning();
  const Table& v_join = state.v_join();

  // cc -> matching bins / matching combos as flat bitsets (one word run per
  // CC) instead of per-CC byte vectors: the per-bin free-combo computation
  // below collapses to word-wise ORs over the relevant CCs' combo masks,
  // cutting the O(num_ccs x num_combos) byte scans on wide R2s.
  size_t num_ccs = avoid_ccs.size();
  size_t bin_words = (binning.num_bins() + 63) / 64;
  size_t combo_words = (combos.num_combos() + 63) / 64;
  std::vector<uint64_t> bin_match(num_ccs * bin_words, 0);
  std::vector<uint64_t> combo_match(num_ccs * combo_words, 0);
  for (size_t c = 0; c < num_ccs; ++c) {
    for (size_t b : avoid_matches[c].bins)
      bin_match[c * bin_words + (b >> 6)] |= uint64_t{1} << (b & 63);
    for (size_t i : avoid_matches[c].combos)
      combo_match[c * combo_words + (i >> 6)] |= uint64_t{1} << (i & 63);
  }
  auto bin_matches_cc = [&](size_t c, size_t bin) {
    return (bin_match[c * bin_words + (bin >> 6)] >> (bin & 63)) & 1;
  };

  // A synthesized fully-unused combo, if one exists: per B column, a value in
  // the active domain used by no avoid-CC (the paper's combo_unused lifted to
  // value level, Example 4.6). Any row completed with it contributes to no
  // CC. The combo may be absent from R2, in which case phase II mints fresh
  // keys (new R2 tuples), as in the paper.
  std::optional<std::vector<int64_t>> synthesized;
  {
    size_t q = state.b_cols().size();
    // Attribute sets of every avoid-CC's R2 condition, resolved against the
    // join view's schema (the B columns share R2's dictionaries).
    std::vector<std::map<std::string, AttrSet>> cc_sets;
    cc_sets.reserve(num_ccs);
    bool sets_ok = true;
    for (size_t c = 0; c < num_ccs; ++c) {
      auto sets = ComputeAttrSets(avoid_ccs[c].r2_condition, v_join.schema());
      if (!sets.ok()) {
        sets_ok = false;
        break;
      }
      cc_sets.push_back(std::move(sets).value());
    }
    std::vector<int64_t> combo(q, kNullCode);
    bool all_columns_ok = sets_ok && q > 0;
    for (size_t col = 0; col < q && all_columns_ok; ++col) {
      size_t vcol = state.b_cols()[col];
      const std::string& col_name = v_join.schema().column(vcol).name;
      bool is_string = v_join.schema().column(vcol).type == DataType::kString;
      std::unordered_set<int64_t> domain;
      for (size_t i = 0; i < combos.num_combos(); ++i)
        domain.insert(combos.combo_codes(i)[col]);
      // Sorted drain: the first unused value is taken below, so hash order
      // would leak into the synthesized combo (platform-dependent output).
      std::vector<int64_t> domain_sorted(domain.begin(), domain.end());
      std::sort(domain_sorted.begin(), domain_sorted.end());
      int64_t chosen = kNullCode;
      for (int64_t v : domain_sorted) {
        bool used = false;
        for (size_t c = 0; c < num_ccs && !used; ++c) {
          auto it = cc_sets[c].find(col_name);
          if (it == cc_sets[c].end()) continue;  // CC does not constrain col
          if (is_string) {
            used = it->second.ContainsString(v_join.DecodeCode(vcol, v)
                                                 .AsString());
          } else {
            used = it->second.ContainsInt(v);
          }
        }
        if (!used) {
          chosen = v;
          break;
        }
      }
      if (chosen == kNullCode) {
        all_columns_ok = false;
      } else {
        combo[col] = chosen;
      }
    }
    if (all_columns_ok) synthesized = combo;
  }

  // Per bin: the list of zero-badness existing combos (computed on first
  // use), expanded by key count so round-robin respects R2's per-combo
  // capacity. Only the CCs whose R1 condition covers the bin can veto a
  // combo. Bins whose vetoed combos coincide share one list: the census CC
  // families give a handful of distinct lists over hundreds of bins, and
  // each expanded list is thousands of entries long.
  std::map<std::vector<uint64_t>, std::vector<size_t>> free_by_bad_mask;
  std::vector<const std::vector<size_t>*> bin_free_combos(binning.num_bins(),
                                                          nullptr);
  auto free_combos_for_bin = [&](size_t bin) -> const std::vector<size_t>& {
    const std::vector<size_t>*& cached = bin_free_combos[bin];
    if (cached != nullptr) return *cached;
    // OR the combo masks of every CC covering the bin; the zero bits are
    // the free combos.
    std::vector<uint64_t> bad_mask(combo_words, 0);
    for (size_t c = 0; c < num_ccs; ++c) {
      if (!bin_matches_cc(c, bin)) continue;
      const uint64_t* mask = combo_match.data() + c * combo_words;
      for (size_t w = 0; w < combo_words; ++w) bad_mask[w] |= mask[w];
    }
    auto [it, inserted] = free_by_bad_mask.try_emplace(bad_mask);
    std::vector<size_t>& free = it->second;
    if (inserted) {
      for (size_t w = 0; w < combo_words; ++w) {
        uint64_t good = ~bad_mask[w];
        while (good != 0) {
          size_t i = (w << 6) + static_cast<size_t>(__builtin_ctzll(good));
          good &= good - 1;
          if (i >= combos.num_combos()) break;
          free.push_back(i);
        }
      }
      free = combos.ExpandByKeyCount(free);
    }
    cached = &free;
    return free;
  };
  // Stagger each bin's rotation start so different bins do not pile their
  // first leftovers onto the same few combos.
  std::vector<size_t> bin_cursor(binning.num_bins());
  for (size_t bin = 0; bin < bin_cursor.size(); ++bin)
    bin_cursor[bin] = bin * 7919;

  // DC-aware per-combo capacity ledgers. A row's clique classes are the
  // binary DCs its bucket is self-adjacent under (owner-owner,
  // spouse-spouse; DcRowClasses::SelfDcs): any two same-class rows sharing
  // an FK violate the DC, so a combo can absorb at most keys(combo) of them.
  // The fill keeps each class's per-combo load under that capacity whenever
  // a candidate allows it, falling back to plain rotation (the paper's
  // behaviour) when all are saturated. DCs that cannot hold on one row (age
  // gaps, owner-child) are in no bucket's list.
  const size_t num_combos = combos.num_combos();
  const bool any_class = !dc_classes.self_dcs.empty();
  CEXTEND_CHECK(!any_class || dc_classes.bucket_of.size() == v_join.NumRows());
  auto classes_of = [&](size_t row) {
    return any_class ? dc_classes.SelfDcs(dc_classes.bucket_of[row])
                     : std::span<const uint32_t>();
  };
  const size_t num_binary = static_cast<size_t>(std::count_if(
      dc_classes.dcs.begin(), dc_classes.dcs.end(),
      [](const BoundDenialConstraint& dc) { return dc.arity() == 2; }));
  std::vector<int64_t> class_load(any_class ? num_binary * num_combos : 0, 0);
  if (any_class) {
    // Seed loads with the rows phase I already assigned.
    std::vector<uint8_t> is_leftover(v_join.NumRows(), 0);
    for (uint32_t r : leftovers) is_leftover[r] = 1;
    std::vector<int64_t> codes(state.b_cols().size());
    for (size_t r = 0; r < v_join.NumRows(); ++r) {
      if (is_leftover[r]) continue;
      bool complete = true;
      for (size_t i = 0; i < state.b_cols().size(); ++i) {
        codes[i] = v_join.GetCode(r, state.b_cols()[i]);
        if (codes[i] == kNullCode) {
          complete = false;
          break;
        }
      }
      if (!complete) continue;
      auto combo = combos.Find(codes);
      if (!combo.has_value()) continue;
      for (uint32_t d : classes_of(r)) ++class_load[d * num_combos + *combo];
    }
  }
  auto pick_from = [&](const std::vector<size_t>& candidates, size_t& cursor,
                       std::span<const uint32_t> classes) -> size_t {
    size_t chosen = candidates[cursor % candidates.size()];
    bool found = classes.empty();
    for (size_t attempt = 0; !found && attempt < candidates.size();
         ++attempt) {
      size_t combo = candidates[(cursor + attempt) % candidates.size()];
      bool fits = true;
      for (uint32_t d : classes) {
        if (class_load[d * num_combos + combo] >=
            static_cast<int64_t>(combos.keys(combo).size())) {
          fits = false;
          break;
        }
      }
      if (fits) {
        chosen = combo;
        cursor = cursor + attempt + 1;
        found = true;
      }
    }
    if (!found) ++cursor;  // all saturated: plain rotation
    for (uint32_t d : classes) ++class_load[d * num_combos + chosen];
    return chosen;
  };

  for (uint32_t row : leftovers) {
    size_t bin = binning.bin_of_row(row);
    const std::vector<size_t>& free = free_combos_for_bin(bin);
    if (!free.empty()) {
      size_t pick = pick_from(free, bin_cursor[bin], classes_of(row));
      state.AssignFullCombo(row, combos.combo_codes(pick));
      ++stats->completed_rows;
    } else if (synthesized.has_value()) {
      state.AssignFullCombo(row, *synthesized);
      ++stats->completed_rows;
    } else {
      invalid.push_back(row);
      ++stats->invalid_rows;
    }
  }
  return invalid;
}

}  // namespace cextend
