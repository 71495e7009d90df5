// paper_train — the organiser's offline stage: Algorithm 2 on the
// Sensor-Scope temperature training slice under the ground-truth gate at
// ε = 0.3 °C, driven step by step through the public DqnTrainer and
// SparseMcsEnvironment calls so each layer's share can be timed. A round
// trains a freshly initialised agent (kAgentSeed, whatever the run seed)
// for kEpisodes episodes; the final check replays the same round through
// core::train_agent and requires the weights and episode statistics to
// match bit for bit.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "checks.h"
#include "core/agent.h"
#include "core/trainer.h"
#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "data/synthetic_field.h"
#include "paper_settings.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace drcell;

constexpr std::size_t kEpisodes = 2;
// Exploration decays over the evaluation's full 12-episode budget.
constexpr std::size_t kDecaySteps = 12 * 500;

struct Built {
  std::shared_ptr<const mcs::SensingTask> task;
  core::DrCellConfig config;
  std::unique_ptr<core::DrCellAgent> agent;
  std::unique_ptr<mcs::SparseMcsEnvironment> env;
  std::size_t factor_builds = 0;
  std::size_t factor_hits = 0;
};

std::string weights_of(core::DrCellAgent& agent) {
  std::ostringstream out(std::ios::binary);
  agent.save_weights(out);
  return out.str();
}

class PaperTrain final : public Workload {
 public:
  std::size_t extra_setups() const override { return 40; }

  void setup(bool traced) override { b_ = build(traced); }

  RoundStats run(std::vector<double>& step_ms) override {
    RoundStats stats;
    episodes_.clear();
    actions_.clear();
    mean_losses_.clear();
    auto& trainer = b_.agent->trainer();
    auto& env = *b_.env;
    const std::size_t grad_steps = b_.config.train_steps_per_env_step;
    const std::int64_t start = now_ns();
    for (std::size_t ep = 0; ep < kEpisodes; ++ep) {
      env.reset();
      actions_.emplace_back();
      double loss_sum = 0.0;
      std::size_t loss_count = 0;
      while (!env.episode_done()) {
        const std::int64_t t0 = now_ns();
        const std::vector<double> state = env.state();
        const auto& mask = env.action_mask();
        std::size_t action = 0;
        {
          const ScopedSpan span("rl.select_action");
          action = trainer.select_action(state, mask);
        }
        mcs::StepResult step;
        {
          const ScopedSpan span("mcs.step");
          step = env.step(action);
        }
        rl::Experience e;
        e.state = state;
        e.action = action;
        e.reward = step.reward;
        e.next_state = env.state();
        e.next_mask = env.action_mask();
        e.terminal = step.episode_done;
        if (step.episode_done) e.next_mask.assign(env.num_cells(), 1);
        {
          const ScopedSpan span("rl.observe");
          trainer.observe(std::move(e));
        }
        bool finite = true;
        for (std::size_t g = 0; g < grad_steps; ++g) {
          double loss = 0.0;
          {
            const ScopedSpan span("rl.train_step");
            loss = trainer.train_step();
          }
          if (!std::isfinite(loss)) finite = false;
          if (loss > 0.0) {
            loss_sum += loss;
            ++loss_count;
          }
        }
        step_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        actions_.back().push_back(static_cast<std::uint32_t>(action));
        stats.steps += 1;
        if (!finite) stats.failed += 1;
        if (step.cycle_complete) stats.cycles += 1;
      }
      episodes_.push_back(env.stats());
      mean_losses_.push_back(
          loss_count ? loss_sum / static_cast<double>(loss_count) : 0.0);
    }
    stats.run_s = static_cast<double>(now_ns() - start) / 1e9;
    weights_ = weights_of(*b_.agent);
    return stats;
  }

  void check_round(Outcome& out) override {
    ErrorTally tally;
    for (std::size_t ep = 0; ep < episodes_.size(); ++ep) {
      const std::string what = "paper_train episode " + std::to_string(ep);
      // The environment still holds the last episode's selection matrix.
      const CycleSelections cycles =
          ep + 1 == episodes_.size()
              ? check_accounting(what, *b_.env, actions_[ep], kTempEpsilon,
                                 nullptr, out.problems)
              : check_episode_accounting(what, *b_.task, b_.env->options(),
                                         episodes_[ep], actions_[ep],
                                         out.problems);
      tally.add(episodes_[ep].cycle_errors,
                mean_predictor_errors(*b_.task, cycles));
      if (ep + 1 == episodes_.size()) last_cycles_ = cycles;
    }
    tally.check("paper_train", out.problems);
    if (out.rounds == 1) out.note("mean_error_temperature", tally.summary());
    for (double l : mean_losses_)
      if (!std::isfinite(l)) out.problem("paper_train: non-finite mean loss");
  }

  std::uint64_t digest() override {
    Digest d;
    d.str(weights_);
    for (const auto& s : episodes_) {
      d.u64(s.cycles);
      d.u64(s.total_selections);
      d.f64(s.total_reward);
      d.f64(s.total_cost);
      for (double e : s.cycle_errors) d.f64(e);
      for (std::size_t n : s.cycle_selected) d.u64(n);
    }
    for (const auto& a : actions_)
      for (std::uint32_t cell : a) d.u64(cell);
    for (double l : mean_losses_) d.f64(l);
    return d.value();
  }

  void final_checks(Outcome& out) override {
    // The same round through the library's own training loop.
    Built ref = build(false);
    const core::TrainingResult r =
        core::train_agent(*ref.agent, *ref.env, kEpisodes);
    if (weights_of(*ref.agent) != weights_)
      out.problem("paper_train: weights differ from core::train_agent's");
    if (r.episodes.size() != episodes_.size()) {
      out.problem("paper_train: episode count differs from core::train_agent's");
      return;
    }
    for (std::size_t ep = 0; ep < episodes_.size(); ++ep) {
      if (!same_stats(r.episodes[ep], episodes_[ep]))
        out.problem("paper_train: episode " + std::to_string(ep) +
                    " statistics differ from core::train_agent's");
      if (r.mean_losses[ep] != mean_losses_[ep])
        out.problem("paper_train: episode " + std::to_string(ep) +
                    " mean loss differs from core::train_agent's");
    }
    out.note("final_mean_loss", std::to_string(mean_losses_.back()));
  }

  void layer_metrics(Outcome& out) override {
    const auto& s = episodes_.back();
    std::size_t all_cells = 0;
    for (std::size_t n : s.cycle_selected)
      if (n == b_.task->num_cells()) ++all_cells;
    std::size_t met = 0;
    for (double e : s.cycle_errors)
      if (e <= kTempEpsilon) ++met;
    std::vector<double> rates =
        selection_rates(b_.task->num_cells(), last_cycles_);
    std::sort(rates.begin(), rates.end());
    const double cycles = static_cast<double>(s.cycles);
    out.layers.emplace_back("mcs.cells_per_cycle",
                            s.average_selections_per_cycle());
    out.layers.emplace_back("mcs.satisfaction", met / cycles);
    out.layers.emplace_back("mcs.cap_closed_cycles", all_cells / cycles);
    out.layers.emplace_back("mcs.selection_rate_median",
                            rates[rates.size() / 2]);
    out.layers.emplace_back("mcs.selection_rate_max", rates.back());
    out.layers.emplace_back("data.factor_cache_builds",
                            static_cast<double>(b_.factor_builds));
    out.layers.emplace_back("data.factor_cache_hits",
                            static_cast<double>(b_.factor_hits));
  }

 private:
  Built build(bool traced) const {
    using Gen = data::SyntheticFieldGenerator;
    Built b;
    const std::size_t builds0 = Gen::shared_factor_cache_builds();
    const std::size_t hits0 = Gen::shared_factor_cache_hits();
    std::shared_ptr<const mcs::SensingTask> full;
    {
      const ScopedSpan span("data.task_build");
      full = std::make_shared<const mcs::SensingTask>(
          data::make_sensorscope_like(kTempDataSeed).temperature);
    }
    b.factor_builds = Gen::shared_factor_cache_builds() - builds0;
    b.factor_hits = Gen::shared_factor_cache_hits() - hits0;
    b.task = std::make_shared<const mcs::SensingTask>(
        full->slice_cycles(kTempWarm, kTempWarm + kTempTrain));
    b.config = paper_config(full->num_cells(), kTempWindow, kDecaySteps,
                            kAgentSeed);
    b.config.env.warm_start = full->slice_cycles(0, kTempWarm).ground_truth();
    b.agent = std::make_unique<core::DrCellAgent>(full->num_cells(), b.config);
    cs::InferenceEnginePtr engine = std::make_shared<cs::MatrixCompletion>();
    if (traced) engine = std::make_shared<TracedEngine>(engine);
    b.env = std::make_unique<mcs::SparseMcsEnvironment>(
        core::make_training_environment(b.task, engine, kTempEpsilon,
                                        b.config));
    return b;
  }

  Built b_;
  std::vector<mcs::EpisodeStats> episodes_;
  std::vector<std::vector<std::uint32_t>> actions_;
  std::vector<double> mean_losses_;
  std::string weights_;
  CycleSelections last_cycles_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_train() {
  return std::make_unique<PaperTrain>();
}

}  // namespace perfbench
