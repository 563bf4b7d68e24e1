#include "core/fill_state.h"

#include <bit>

#include "util/logging.h"

namespace cextend {

FootprintMatcher::FootprintMatcher(const Table& table,
                                   std::vector<uint32_t> rows)
    : table_(&table),
      rows_(std::move(rows)),
      words_((rows_.size() + 63) / 64) {}

const std::vector<uint64_t>& FootprintMatcher::AtomBits(
    const BoundPredicate::BoundAtom& atom) {
  auto [it, inserted] = atom_bits_.try_emplace(
      AtomKey{atom.col, atom.op, atom.rhs, atom.rhs_set});
  if (!inserted) return it->second;
  auto [col_it, col_inserted] = codes_.try_emplace(atom.col);
  std::vector<int64_t>& codes = col_it->second;
  if (col_inserted) {
    const int64_t* column = table_->ColumnCodes(atom.col).data();
    codes.reserve(rows_.size());
    for (uint32_t row : rows_) codes.push_back(column[row]);
  }
  std::vector<uint64_t>& bits = it->second;
  bits.assign(words_, 0);
  for (size_t i = 0; i < codes.size(); ++i) {
    if (BoundPredicate::AtomHolds(atom, codes[i])) {
      bits[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return bits;
}

StatusOr<std::vector<size_t>> FootprintMatcher::Match(
    const Predicate& condition) {
  CEXTEND_ASSIGN_OR_RETURN(BoundPredicate pred,
                           BoundPredicate::Bind(condition, *table_));
  std::vector<size_t> out;
  if (pred.always_false() || words_ == 0) return out;
  std::vector<uint64_t> acc(words_, ~uint64_t{0});
  if (rows_.size() % 64 != 0) {
    acc.back() = (uint64_t{1} << (rows_.size() % 64)) - 1;
  }
  for (const BoundPredicate::BoundAtom& atom : pred.atoms()) {
    const std::vector<uint64_t>& bits = AtomBits(atom);
    for (size_t w = 0; w < words_; ++w) acc[w] &= bits[w];
  }
  for (size_t w = 0; w < words_; ++w) {
    for (uint64_t word = acc[w]; word != 0; word &= word - 1) {
      out.push_back(w * 64 + static_cast<size_t>(std::countr_zero(word)));
    }
  }
  return out;
}

StatusOr<std::vector<CcMatch>> MatchCcs(
    const Binning& binning, const ComboIndex& combos, const Table& r2,
    const std::vector<CardinalityConstraint>& ccs) {
  FootprintMatcher bin_matcher(binning.table(), binning.representatives());
  FootprintMatcher combo_matcher(r2, combos.representatives());
  std::vector<CcMatch> matches(ccs.size());
  for (size_t c = 0; c < ccs.size(); ++c) {
    CEXTEND_ASSIGN_OR_RETURN(matches[c].bins,
                             bin_matcher.Match(ccs[c].r1_condition));
    CEXTEND_ASSIGN_OR_RETURN(matches[c].combos,
                             combo_matcher.Match(ccs[c].r2_condition));
  }
  return matches;
}

StatusOr<FillState> FillState::Create(Table* v_join, const PairSchema& names,
                                      const Binning* binning) {
  FillState state;
  state.v_join_ = v_join;
  state.binning_ = binning;
  if (binning->num_rows() != v_join->NumRows()) {
    return Status::InvalidArgument(
        "binning row count does not match the join view");
  }
  CEXTEND_ASSIGN_OR_RETURN(state.b_cols_,
                           ResolveBColumns(v_join->schema(), names));
  state.pools_.resize(binning->num_bins());
  for (size_t r = 0; r < binning->num_rows(); ++r) {
    state.pools_[binning->bin_of_row(r)].push_back(static_cast<uint32_t>(r));
  }
  return state;
}

StatusOr<std::vector<size_t>> FillState::ResolveBColumns(
    const Schema& schema, const PairSchema& names) {
  std::vector<size_t> b_cols;
  for (const std::string& b : names.r2_attrs) {
    auto idx = schema.IndexOf(b);
    if (!idx.has_value())
      return Status::InvalidArgument("schema lacks B column " + b);
    b_cols.push_back(*idx);
  }
  return b_cols;
}

std::vector<uint32_t> FillState::PopRows(size_t bin, size_t k) {
  std::vector<uint32_t>& pool = pools_[bin];
  size_t take = std::min(k, pool.size());
  std::vector<uint32_t> out(pool.end() - static_cast<ptrdiff_t>(take),
                            pool.end());
  pool.resize(pool.size() - take);
  return out;
}

void FillState::AssignFullCombo(uint32_t row,
                                std::span<const int64_t> codes) {
  CEXTEND_DCHECK(codes.size() == b_cols_.size());
  for (size_t i = 0; i < b_cols_.size(); ++i) {
    v_join_->SetCode(row, b_cols_[i], codes[i]);
  }
}

std::vector<uint32_t> FillState::DrainPools() {
  std::vector<uint32_t> out;
  for (auto& pool : pools_) {
    out.insert(out.end(), pool.begin(), pool.end());
    pool.clear();
  }
  return out;
}

size_t FillState::total_unassigned() const {
  size_t total = 0;
  for (const auto& pool : pools_) total += pool.size();
  return total;
}

}  // namespace cextend
