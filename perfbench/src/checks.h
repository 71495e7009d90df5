// Output checks the benchmark computes itself from a finished episode's
// records, independent of the library's own summaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "mcs/environment.h"

namespace perfbench {

/// The cells sensed in each cycle, split out of an ordered action log by
/// the per-cycle selection counts.
using CycleSelections = std::vector<std::vector<std::uint32_t>>;

/// Accounting of one finished episode, recomputed from its action log and
/// per-cycle records: the log splits into the recorded per-cycle counts,
/// selections are distinct within each cycle and match the selection
/// matrix, every count lies within [min_observations, cap], and the
/// summary (when given) matches what the records imply. Appends one line
/// per violation to `problems`; returns the per-cycle selections.
CycleSelections check_accounting(const std::string& what,
                                 const drcell::mcs::SparseMcsEnvironment& env,
                                 const std::vector<std::uint32_t>& actions,
                                 double epsilon,
                                 const drcell::core::CampaignResult* result,
                                 std::vector<std::string>& problems);

/// Same, for a past episode whose environment has been reset: no
/// selection-matrix comparison.
CycleSelections check_episode_accounting(
    const std::string& what, const drcell::mcs::SensingTask& task,
    const drcell::mcs::EnvOptions& options,
    const drcell::mcs::EpisodeStats& stats,
    const std::vector<std::uint32_t>& actions,
    std::vector<std::string>& problems);

/// Per-cycle error of the naive predictor that fills every unsensed cell
/// of a cycle with the mean of that cycle's sensed values, under the
/// task's error metric.
std::vector<double> mean_predictor_errors(const drcell::mcs::SensingTask& task,
                                          const CycleSelections& cycles);

/// Running sums for the "beats the mean-of-sensed predictor" check.
struct ErrorTally {
  double method = 0.0;
  double naive = 0.0;
  std::size_t cycles = 0;

  void add(const std::vector<double>& method_errors,
           const std::vector<double>& naive_errors);
  /// Appends a problem unless the method's run-mean error is below the
  /// naive predictor's.
  void check(const std::string& what, std::vector<std::string>& problems) const;
  /// "<method run-mean> vs <naive run-mean>".
  std::string summary() const;
};

/// Per-cell selection rates (fraction of cycles each cell was sensed).
std::vector<double> selection_rates(std::size_t num_cells,
                                    const CycleSelections& cycles);

bool same_stats(const drcell::mcs::EpisodeStats& a,
                const drcell::mcs::EpisodeStats& b);

}  // namespace perfbench
