#include "core/stats.h"

#include "util/string_util.h"

namespace cextend {

std::string SolveStats::BreakdownTable() const {
  double total = std::max(total_seconds, 1e-12);
  auto row = [&](const char* label, double seconds) {
    return StrFormat("  %-22s %10s  %6.2f%%\n", label,
                     FormatDuration(seconds).c_str(), 100.0 * seconds / total);
  };
  std::string out;
  out += row("Pairwise comparison", phase1.pairwise_seconds);
  out += row("Binning", phase1.binning_seconds);
  out += row("Recursion (Alg. 2)", phase1.recursion_seconds);
  out += row("ILP solver (Alg. 1)", phase1.ilp_seconds);
  out += row("Final fill", phase1.final_fill_seconds);
  out += row("Partitioning", phase2.partition_seconds);
  out += row("Coloring (Alg. 3/4)", phase2.coloring_seconds);
  out += row("Invalid tuples", phase2.invalid_seconds);
  out += StrFormat("  %-22s %10s\n", "Total",
                   FormatDuration(total_seconds).c_str());
  return out;
}

std::string SolveStats::Summary() const {
  std::string out = StrFormat(
      "total=%s phase1=%s phase2=%s ccs(hasse=%zu ilp=%zu) invalid=%zu "
      "new_r2=%zu skipped=%zu",
      FormatDuration(total_seconds).c_str(),
      FormatDuration(phase1_seconds).c_str(),
      FormatDuration(phase2_seconds).c_str(), phase1.ccs_to_hasse,
      phase1.ccs_to_ilp, invalid_tuples, phase2.new_r2_tuples,
      phase2.skipped_vertices);
  out += StrFormat(" mem(peak_resident=%zuB shards=%zu inflight_hwm=%zu)",
                   phase2.peak_resident_bytes, phase2.shards_emitted,
                   phase2.max_shards_in_flight);
  if (phase2.resumed_shards > 0 || phase2.manifest_commits > 0) {
    out += StrFormat(" durable(resumed=%zu commits=%zu)",
                     phase2.resumed_shards, phase2.manifest_commits);
  }
  if (ladder.AnyDegradation()) {
    out += StrFormat(
        " ladder(naive=%zu biclique_overflow=%zu cold=%zu shard_regen=%zu)",
        ladder.naive_oracle_fallbacks, ladder.biclique_overflows,
        ladder.cold_solve_fallbacks, ladder.shard_regenerations);
  }
  return out;
}

}  // namespace cextend
