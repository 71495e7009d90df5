#include "checks.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

}  // namespace

CycleSelections check_episode_accounting(
    const std::string& what, const drcell::mcs::SensingTask& task,
    const drcell::mcs::EnvOptions& options,
    const drcell::mcs::EpisodeStats& stats,
    const std::vector<std::uint32_t>& actions,
    std::vector<std::string>& problems) {
  const std::size_t cells = task.num_cells();
  const std::size_t cap = options.max_selections_per_cycle == 0
                              ? cells
                              : std::min(options.max_selections_per_cycle, cells);
  const std::size_t floor = std::min({options.min_observations, cap, cells});
  const auto bad = [&](const std::string& msg) {
    problems.push_back(what + ": " + msg);
  };

  CycleSelections out;
  if (stats.cycles != task.num_cycles()) bad("episode did not cover every cycle");
  if (stats.cycle_selected.size() != stats.cycles ||
      stats.cycle_errors.size() != stats.cycles) {
    bad("per-cycle records do not match the cycle count");
    return out;
  }
  std::size_t total = 0;
  for (std::size_t n : stats.cycle_selected) total += n;
  if (total != actions.size() || total != stats.total_selections) {
    bad("action log, per-cycle counts and total selections disagree");
    return out;
  }

  std::size_t pos = 0;
  std::vector<std::uint8_t> seen(cells, 0);
  for (std::size_t c = 0; c < stats.cycles; ++c) {
    const std::size_t n = stats.cycle_selected[c];
    std::vector<std::uint32_t> picked(actions.begin() + pos,
                                      actions.begin() + pos + n);
    pos += n;
    if (n < floor || n > cap) bad("cycle " + std::to_string(c) +
                                  " sensed " + std::to_string(n) +
                                  " cells, outside [min_observations, cap]");
    for (std::uint32_t cell : picked) {
      if (cell >= cells) {
        bad("action out of range");
        continue;
      }
      if (seen[cell]) bad("cell selected twice in cycle " + std::to_string(c));
      seen[cell] = 1;
    }
    for (std::uint32_t cell : picked)
      if (cell < cells) seen[cell] = 0;
    const double err = stats.cycle_errors[c];
    if (!std::isfinite(err) || err < 0.0)
      bad("cycle " + std::to_string(c) + " has a non-finite or negative error");
    out.push_back(std::move(picked));
  }

  double cost = 0.0;
  for (const auto& picked : out)
    for (std::uint32_t cell : picked)
      cost += options.cell_costs.empty() ? options.cost
                                         : options.cell_costs[cell];
  if (!close(stats.total_cost, cost)) bad("total cost is not the sum of step costs");
  return out;
}

CycleSelections check_accounting(const std::string& what,
                                 const drcell::mcs::SparseMcsEnvironment& env,
                                 const std::vector<std::uint32_t>& actions,
                                 double epsilon,
                                 const drcell::core::CampaignResult* result,
                                 std::vector<std::string>& problems) {
  const drcell::mcs::EpisodeStats& stats = env.stats();
  CycleSelections out = check_episode_accounting(what, env.task(), env.options(),
                                                 stats, actions, problems);
  const auto bad = [&](const std::string& msg) {
    problems.push_back(what + ": " + msg);
  };
  for (std::size_t c = 0; c < out.size(); ++c) {
    const auto& matrix = env.selections().selected_cells_in_cycle(c);
    std::vector<std::uint32_t> sorted = out[c];
    std::sort(sorted.begin(), sorted.end());
    if (matrix.size() != sorted.size() ||
        !std::equal(matrix.begin(), matrix.end(), sorted.begin()))
      bad("selection matrix disagrees with the action log in cycle " +
          std::to_string(c));
  }
  if (result == nullptr || out.size() != stats.cycles) return out;

  std::size_t met = 0;
  for (double e : stats.cycle_errors)
    if (e <= epsilon) ++met;
  const double cycles = static_cast<double>(stats.cycles);
  if (result->cycles != stats.cycles) bad("summary cycle count is wrong");
  if (result->total_selected != actions.size())
    bad("summary selection total is wrong");
  if (stats.cycles > 0) {
    if (!close(result->avg_cells_per_cycle,
               static_cast<double>(actions.size()) / cycles))
      bad("summary cells per cycle is wrong");
    if (!close(result->satisfaction_ratio, static_cast<double>(met) / cycles))
      bad("summary satisfaction is wrong");
    double sum = 0.0;
    for (double e : stats.cycle_errors) sum += e;
    if (!close(result->mean_cycle_error, sum / cycles))
      bad("summary mean error is wrong");
  }
  return out;
}

std::vector<double> mean_predictor_errors(const drcell::mcs::SensingTask& task,
                                          const CycleSelections& cycles) {
  const std::size_t cells = task.num_cells();
  const auto& metric = task.metric();
  std::vector<double> errors;
  std::vector<std::uint8_t> sensed(cells, 0);
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    double mean = 0.0;
    for (std::uint32_t cell : cycles[c]) {
      mean += task.truth(cell, c);
      sensed[cell] = 1;
    }
    mean /= static_cast<double>(std::max<std::size_t>(1, cycles[c].size()));
    double err = 0.0;
    std::size_t unsensed = 0;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      if (sensed[cell]) continue;
      err += metric.pointwise_error(task.truth(cell, c), mean);
      ++unsensed;
    }
    errors.push_back(unsensed ? err / static_cast<double>(unsensed) : 0.0);
    for (std::uint32_t cell : cycles[c]) sensed[cell] = 0;
  }
  return errors;
}

void ErrorTally::add(const std::vector<double>& method_errors,
                     const std::vector<double>& naive_errors) {
  for (double e : method_errors) method += e;
  for (double e : naive_errors) naive += e;
  cycles += method_errors.size();
}

void ErrorTally::check(const std::string& what,
                       std::vector<std::string>& problems) const {
  if (cycles == 0 || !(method < naive))
    problems.push_back(what + ": run-mean error is not below the "
                              "mean-of-sensed predictor's (" + summary() + ")");
}

std::string ErrorTally::summary() const {
  const double n = static_cast<double>(std::max<std::size_t>(1, cycles));
  return std::to_string(method / n) + " vs " + std::to_string(naive / n);
}

std::vector<double> selection_rates(std::size_t num_cells,
                                    const CycleSelections& cycles) {
  std::vector<double> rates(num_cells, 0.0);
  for (const auto& picked : cycles)
    for (std::uint32_t cell : picked) rates[cell] += 1.0;
  for (double& r : rates)
    r /= static_cast<double>(std::max<std::size_t>(1, cycles.size()));
  return rates;
}

bool same_stats(const drcell::mcs::EpisodeStats& a,
                const drcell::mcs::EpisodeStats& b) {
  return a.cycles == b.cycles && a.total_selections == b.total_selections &&
         a.total_reward == b.total_reward && a.total_cost == b.total_cost &&
         a.cycle_errors == b.cycle_errors &&
         a.cycle_selected == b.cycle_selected;
}

}  // namespace perfbench
