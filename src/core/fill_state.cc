#include "core/fill_state.h"

#include "util/logging.h"

namespace cextend {

StatusOr<std::vector<CcMatch>> MatchCcs(
    const Binning& binning, const ComboIndex& combos,
    const std::vector<CardinalityConstraint>& ccs) {
  std::vector<CcMatch> matches(ccs.size());
  for (size_t c = 0; c < ccs.size(); ++c) {
    CEXTEND_ASSIGN_OR_RETURN(matches[c].bins,
                             binning.MatchingBins(ccs[c].r1_condition));
    CEXTEND_ASSIGN_OR_RETURN(matches[c].combos,
                             combos.MatchingCombos(ccs[c].r2_condition));
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
  for (size_t bin = 0; bin < binning->num_bins(); ++bin) {
    state.pools_[bin] = binning->rows(bin);
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
                                const std::vector<int64_t>& codes) {
  CEXTEND_DCHECK(codes.size() == b_cols_.size());
  for (size_t i = 0; i < b_cols_.size(); ++i) {
    v_join_->SetCode(row, b_cols_[i], codes[i]);
  }
}

void FillState::AssignPartial(
    uint32_t row, const std::vector<std::pair<size_t, int64_t>>& cells) {
  for (const auto& [col, code] : cells) {
    v_join_->SetCode(row, col, code);
  }
  partial_rows_.push_back(row);
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
