// paper_fleet and city_fleet — deployment through core::CampaignScheduler.
//
// paper_fleet: per dataset (Sensor-Scope temperature at (0.3 °C, 0.9), U-Air
// PM2.5 at (9/36, 0.9)) two frozen DR-Cell campaigns sharing one
// deterministically initialised agent, so DECIDE is batched, plus one QBC
// and one RANDOM campaign, each over the dataset's 192-cycle test slice.
//
// city_fleet: four campaigns on 25 x 40 = 1000-cell city fields of the same
// geometry (one spatial factorisation per set-up): two RANDOM and two
// frozen DR-Cell sharing one agent.
//
// A round runs the whole fleet to its last cycle, one timed step_wave() per
// step. The final checks re-run one sampled DR-Cell campaign through
// core::run_campaign and a checkpoint taken mid-fleet through a fresh
// scheduler; both must reproduce the round bit for bit.
#include <algorithm>
#include <functional>
#include <sstream>

#include "baselines/qbc_selector.h"
#include "baselines/random_selector.h"
#include "checks.h"
#include "core/agent.h"
#include "core/campaign_scheduler.h"
#include "core/checkpoint.h"
#include "core/policy.h"
#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "data/synthetic_field.h"
#include "paper_settings.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace drcell;

enum class Kind { kDrCell, kQbc, kRandom };

struct TaskInput {
  std::string group;  // campaigns of one group share the error check
  std::shared_ptr<const mcs::SensingTask> test;
  core::CampaignConfig config;
};

struct CampaignInput {
  std::string id;
  std::size_t task = 0;
  Kind kind = Kind::kRandom;
  std::size_t agent = 0;  // kDrCell only
  std::uint64_t selector_seed = 0;
};

struct FleetInputs {
  std::vector<TaskInput> tasks;
  std::vector<std::shared_ptr<core::DrCellAgent>> agents;
  std::vector<CampaignInput> campaigns;
  std::size_t factor_builds = 0;
  std::size_t factor_hits = 0;
};

using InputsFn = std::function<FleetInputs(std::uint64_t seed)>;

/// Wraps the dataset factories so their time lands in the data layer and
/// the factor-registry counters are read around them.
template <typename F>
auto build_data(FleetInputs& in, F&& make) {
  using Gen = data::SyntheticFieldGenerator;
  const std::size_t builds0 = Gen::shared_factor_cache_builds();
  const std::size_t hits0 = Gen::shared_factor_cache_hits();
  const ScopedSpan span("data.task_build");
  auto made = make();
  in.factor_builds += Gen::shared_factor_cache_builds() - builds0;
  in.factor_hits += Gen::shared_factor_cache_hits() - hits0;
  return made;
}

core::CampaignConfig campaign_config(double epsilon, std::size_t window,
                                     const mcs::SensingTask& full,
                                     std::size_t warm_from,
                                     std::size_t warm_to) {
  core::CampaignConfig c;
  c.epsilon = epsilon;
  c.p = kP;
  c.env = paper_config(full.num_cells(), window, 1, 0).env;
  c.env.warm_start = full.slice_cycles(warm_from, warm_to).ground_truth();
  return c;
}

FleetInputs paper_fleet_inputs(std::uint64_t seed) {
  FleetInputs in;
  const auto temp = build_data(in, [&] {
    return data::make_sensorscope_like(kTempDataSeed).temperature;
  });
  const auto pm = build_data(
      in, [&] { return data::make_uair_like(kPmDataSeed).pm25; });

  const std::size_t temp_test = kTempWarm + kTempTrain;
  in.tasks.push_back(
      {"temperature",
       std::make_shared<const mcs::SensingTask>(
           temp.slice_cycles(temp_test, temp.num_cycles())),
       campaign_config(kTempEpsilon, kTempWindow, temp, kTempTrain, temp_test)});
  const std::size_t pm_test = kPmWarm + kPmTrain;
  in.tasks.push_back(
      {"pm25",
       std::make_shared<const mcs::SensingTask>(
           pm.slice_cycles(pm_test, pm.num_cycles())),
       campaign_config(kPmEpsilon, kPmWindow, pm, kPmTrain, pm_test)});

  in.agents.push_back(std::make_shared<core::DrCellAgent>(
      temp.num_cells(),
      paper_config(temp.num_cells(), kTempWindow, 6000, kAgentSeed)));
  in.agents.push_back(std::make_shared<core::DrCellAgent>(
      pm.num_cells(),
      paper_config(pm.num_cells(), kPmWindow, 6000, kAgentSeed)));

  const char* names[] = {"temp", "pm25"};
  for (std::size_t t = 0; t < 2; ++t) {
    const std::string n = names[t];
    in.campaigns.push_back({n + "-drcell-0", t, Kind::kDrCell, t, 0});
    in.campaigns.push_back({n + "-drcell-1", t, Kind::kDrCell, t, 0});
    in.campaigns.push_back(
        {n + "-qbc", t, Kind::kQbc, 0, derive_seed(seed, 10 + t)});
    in.campaigns.push_back(
        {n + "-random", t, Kind::kRandom, 0, derive_seed(seed, 20 + t)});
  }
  return in;
}

// City tier: a short fully observed warm block, then the test cycles. The
// gate decides where each cycle stops, from the evaluation's
// min_observations on; the cap bounds a cycle whose quality is never judged
// met.
constexpr std::uint64_t kCitySeed = 1000;  // make_city_scale_task's default
constexpr std::size_t kCityRows = 25;
constexpr std::size_t kCityCols = 40;
constexpr std::size_t kCityWarm = 8;
constexpr std::size_t kCityCycles = 8;
// The window reaches back over the whole warm block in every test cycle.
constexpr std::size_t kCityWindow = kCityWarm + kCityCycles;
constexpr double kCityEpsilon = 1.0;
constexpr std::size_t kCityCap = 24;
// The RANDOM draw streams are fixed like the data and the agent: where the
// gate stops a cycle decides most of its work (every step past
// min_observations is a 1000-cell LOO solve), and RANDOM streams drawn per
// run seed spread city throughput by 21-36% over five seeds.
constexpr std::uint64_t kCityRandomSeed = 40;

FleetInputs city_fleet_inputs(std::uint64_t /*seed*/) {
  FleetInputs in;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto full = build_data(in, [&] {
      return data::make_city_scale_task(kCityRows, kCityCols,
                                        kCityWarm + kCityCycles,
                                        kCitySeed + i);
    });
    core::CampaignConfig c =
        campaign_config(kCityEpsilon, kCityWindow, full, 0, kCityWarm);
    c.env.max_selections_per_cycle = kCityCap;
    in.tasks.push_back({"city",
                        std::make_shared<const mcs::SensingTask>(
                            full.slice_cycles(kCityWarm, full.num_cycles())),
                        c});
  }
  const std::size_t cells = kCityRows * kCityCols;
  in.agents.push_back(std::make_shared<core::DrCellAgent>(
      cells, paper_config(cells, kCityWindow, 6000, kAgentSeed)));
  in.campaigns.push_back({"city-random-0", 0, Kind::kRandom, 0,
                          derive_seed(kCityRandomSeed, 0)});
  in.campaigns.push_back({"city-random-1", 1, Kind::kRandom, 0,
                          derive_seed(kCityRandomSeed, 1)});
  in.campaigns.push_back({"city-drcell-0", 2, Kind::kDrCell, 0, 0});
  in.campaigns.push_back({"city-drcell-1", 3, Kind::kDrCell, 0, 0});
  return in;
}

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b) {
  return a.selector == b.selector && a.cycles == b.cycles &&
         a.total_selected == b.total_selected &&
         a.avg_cells_per_cycle == b.avg_cells_per_cycle &&
         a.satisfaction_ratio == b.satisfaction_ratio &&
         a.mean_cycle_error == b.mean_cycle_error &&
         a.total_cost == b.total_cost && a.quarantined == b.quarantined &&
         same_stats(a.stats, b.stats);
}

class Fleet final : public Workload {
 public:
  Fleet(std::string name, std::uint64_t seed, InputsFn inputs,
        std::size_t extra_setups)
      : name_(std::move(name)),
        seed_(seed),
        inputs_(std::move(inputs)),
        extra_setups_(extra_setups) {}

  std::size_t extra_setups() const override { return extra_setups_; }

  void setup(bool traced) override {
    scheduler_.reset();  // it refers to the agents about to be replaced
    in_ = inputs_(seed_);
    scheduler_ = make_scheduler(in_, traced);
  }

  RoundStats run(std::vector<double>& step_ms) override {
    RoundStats stats;
    waves_ = 0;
    const std::int64_t start = now_ns();
    while (!scheduler_->all_done()) {
      const std::int64_t t0 = now_ns();
      std::size_t stepped = 0;
      {
        const ScopedSpan span("core.wave");
        stepped = scheduler_->step_wave();
      }
      step_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      stats.steps += stepped;
      ++waves_;
      if (stepped == 0) break;
    }
    stats.run_s = static_cast<double>(now_ns() - start) / 1e9;

    // Failed operations: caught faults, plus at least one untaken step for
    // every cycle a quarantined campaign left unfinished.
    for (const auto& incident : scheduler_->incidents())
      if (incident.kind == "decide-fault" || incident.kind == "step-fault" ||
          incident.kind == "observe-fault")
        stats.failed += 1;
    results_ = scheduler_->results();
    logs_.clear();
    for (std::size_t i = 0; i < results_.size(); ++i) {
      logs_.push_back(scheduler_->action_log(i));
      stats.cycles += results_[i].stats.cycles;
      if (results_[i].quarantined)
        stats.failed +=
            in_.tasks[in_.campaigns[i].task].test->num_cycles() -
            results_[i].stats.cycles;
    }
    return stats;
  }

  void check_round(Outcome& out) override {
    std::vector<std::pair<std::string, ErrorTally>> tallies;
    cycles_.clear();
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const CampaignInput& c = in_.campaigns[i];
      const TaskInput& t = in_.tasks[c.task];
      const std::string what = name_ + " " + c.id;
      if (results_[i].quarantined)
        out.problem(what + ": quarantined (" + results_[i].quarantine_reason +
                    ")");
      cycles_.push_back(check_accounting(what, scheduler_->environment(i),
                                         logs_[i], t.config.epsilon,
                                         &results_[i], out.problems));
      if (out.rounds == 1)
        out.note("cells_per_cycle/satisfaction " + c.id,
                 std::to_string(results_[i].avg_cells_per_cycle) + " / " +
                     std::to_string(results_[i].satisfaction_ratio));
      auto it = std::find_if(tallies.begin(), tallies.end(),
                             [&](const auto& g) { return g.first == t.group; });
      if (it == tallies.end()) {
        tallies.emplace_back(t.group, ErrorTally{});
        it = tallies.end() - 1;
      }
      it->second.add(results_[i].stats.cycle_errors,
                     mean_predictor_errors(*t.test, cycles_.back()));
    }
    for (const auto& [group, tally] : tallies) {
      tally.check(name_ + " " + group, out.problems);
      if (out.rounds == 1) out.note("mean_error_" + group, tally.summary());
    }
  }

  std::uint64_t digest() override {
    Digest d;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      d.str(r.id);
      d.str(r.selector);
      d.u64(r.quarantined);
      d.u64(r.stats.cycles);
      d.u64(r.stats.total_selections);
      d.f64(r.stats.total_reward);
      d.f64(r.stats.total_cost);
      for (double e : r.stats.cycle_errors) d.f64(e);
      for (std::size_t n : r.stats.cycle_selected) d.u64(n);
      for (std::uint32_t a : logs_[i]) d.u64(a);
    }
    for (const auto& agent : in_.agents) {
      std::ostringstream w(std::ios::binary);
      agent->save_weights(w);
      d.str(w.str());
    }
    return d.value();
  }

  void final_checks(Outcome& out) override {
    check_solo(out);
    check_resume(out);
  }

  void layer_metrics(Outcome& out) override {
    double cycles = 0.0, selected = 0.0, met = 0.0, capped = 0.0;
    std::vector<double> rates;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const TaskInput& t = in_.tasks[in_.campaigns[i].task];
      const auto& s = results_[i].stats;
      const std::size_t cells = t.test->num_cells();
      const std::size_t cap = t.config.env.max_selections_per_cycle == 0
                                  ? cells
                                  : t.config.env.max_selections_per_cycle;
      cycles += static_cast<double>(s.cycles);
      selected += static_cast<double>(s.total_selections);
      for (double e : s.cycle_errors)
        if (e <= t.config.epsilon) met += 1.0;
      for (std::size_t n : s.cycle_selected)
        if (n >= cap) capped += 1.0;
      const auto r = selection_rates(cells, cycles_[i]);
      rates.insert(rates.end(), r.begin(), r.end());
    }
    std::sort(rates.begin(), rates.end());
    out.layers.emplace_back("mcs.cells_per_cycle", selected / cycles);
    out.layers.emplace_back("mcs.satisfaction", met / cycles);
    out.layers.emplace_back("mcs.cap_closed_cycles", capped / cycles);
    out.layers.emplace_back("mcs.selection_rate_median",
                            rates[rates.size() / 2]);
    out.layers.emplace_back("mcs.selection_rate_max", rates.back());
    out.layers.emplace_back("data.factor_cache_builds",
                            static_cast<double>(in_.factor_builds));
    out.layers.emplace_back("data.factor_cache_hits",
                            static_cast<double>(in_.factor_hits));
    out.layers.emplace_back("core.checkpoint.bytes", checkpoint_bytes_);
    out.layers.emplace_back("core.checkpoint_save_ms", checkpoint_save_ms_);
    out.layers.emplace_back("core.resume_ms", resume_ms_);
  }

 private:
  static std::unique_ptr<core::CampaignScheduler> make_scheduler(
      const FleetInputs& in, bool traced) {
    auto scheduler = std::make_unique<core::CampaignScheduler>();
    const core::CampaignScheduler::EngineFactory factory = [traced] {
      cs::InferenceEnginePtr e = std::make_shared<cs::MatrixCompletion>();
      if (traced) e = std::make_shared<TracedEngine>(e);
      return e;
    };
    for (const CampaignInput& c : in.campaigns) {
      const TaskInput& t = in.tasks[c.task];
      std::shared_ptr<baselines::CellSelector> selector;
      switch (c.kind) {
        case Kind::kDrCell:
          // Undecorated: the scheduler batches it by its concrete type.
          selector = std::make_shared<core::DrCellPolicy>(*in.agents[c.agent]);
          break;
        case Kind::kQbc:
          selector = std::make_shared<baselines::QbcSelector>(
              baselines::QbcSelector::make_default(*t.test, c.selector_seed));
          break;
        case Kind::kRandom:
          selector =
              std::make_shared<baselines::RandomSelector>(c.selector_seed);
          break;
      }
      if (traced && c.kind != Kind::kDrCell)
        selector = std::make_shared<TracedSelector>(selector);
      scheduler->add_campaign(c.id, t.config, t.test, factory, selector);
    }
    return scheduler;
  }

  void check_solo(Outcome& out) {
    std::vector<std::size_t> drcell;
    for (std::size_t i = 0; i < in_.campaigns.size(); ++i)
      if (in_.campaigns[i].kind == Kind::kDrCell) drcell.push_back(i);
    if (drcell.empty()) return;
    const std::size_t slot = drcell[seed_ % drcell.size()];
    const FleetInputs fresh = inputs_(seed_);
    const CampaignInput& c = fresh.campaigns[slot];
    const TaskInput& t = fresh.tasks[c.task];
    core::DrCellPolicy policy(*fresh.agents[c.agent]);
    const core::CampaignResult solo = core::run_campaign(
        t.test, std::make_shared<cs::MatrixCompletion>(), policy, t.config);
    if (!same_result(solo, results_[slot]))
      out.problem(name_ + " " + c.id +
                  ": fleet result differs from its solo run_campaign");
  }

  /// Checkpoints a fresh fleet an eighth of the way through, loads it into
  /// another fresh scheduler and continues for another eighth; every
  /// campaign's log and per-cycle records must then be a prefix of the
  /// uninterrupted round's. QBC campaigns are compared but not gated: the
  /// QBC selector keeps a tie-breaking draw stream that the checkpoint does
  /// not carry, so a resumed QBC campaign can diverge (README, findings).
  void check_resume(Outcome& out) {
    const std::size_t at = std::max<std::size_t>(1, waves_ / 8);
    FleetInputs first_in = inputs_(seed_);
    auto first = make_scheduler(first_in, false);
    first->run(at);
    std::ostringstream saved(std::ios::binary);
    const std::int64_t t0 = now_ns();
    core::save_checkpoint(*first, saved);
    checkpoint_save_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
    const std::string bytes = saved.str();
    checkpoint_bytes_ = static_cast<double>(bytes.size());
    first.reset();

    FleetInputs second_in = inputs_(seed_);
    auto second = make_scheduler(second_in, false);
    std::istringstream in(bytes, std::ios::binary);
    const std::int64_t t1 = now_ns();
    core::load_checkpoint(*second, in);
    resume_ms_ = static_cast<double>(now_ns() - t1) / 1e6;
    second->run(at);

    const auto prefix_of = [](const auto& part, const auto& whole) {
      return part.size() <= whole.size() &&
             std::equal(part.begin(), part.end(), whole.begin());
    };
    std::size_t qbc_diverged = 0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& log = second->action_log(i);
      const auto& stats = second->environment(i).stats();
      const bool same = prefix_of(log, logs_[i]) &&
                        prefix_of(stats.cycle_selected,
                                  results_[i].stats.cycle_selected) &&
                        prefix_of(stats.cycle_errors,
                                  results_[i].stats.cycle_errors);
      if (same) continue;
      if (in_.campaigns[i].kind == Kind::kQbc) {
        ++qbc_diverged;
      } else {
        out.problem(name_ + " " + in_.campaigns[i].id +
                    ": resumed fleet diverged from the uninterrupted round");
      }
    }
    out.note("resume_wave", std::to_string(at) + "/" + std::to_string(waves_));
    out.note("qbc_campaigns_diverged_after_resume",
             std::to_string(qbc_diverged));
  }

  std::string name_;
  std::uint64_t seed_;
  InputsFn inputs_;
  std::size_t extra_setups_;
  FleetInputs in_;
  std::unique_ptr<core::CampaignScheduler> scheduler_;
  std::size_t waves_ = 0;
  std::vector<core::CampaignResult> results_;
  std::vector<std::vector<std::uint32_t>> logs_;
  std::vector<CycleSelections> cycles_;
  double checkpoint_bytes_ = 0.0;
  double checkpoint_save_ms_ = 0.0;
  double resume_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_fleet(std::uint64_t seed) {
  return std::make_unique<Fleet>("paper_fleet", seed, paper_fleet_inputs, 40);
}

std::unique_ptr<Workload> make_city_fleet(std::uint64_t seed) {
  return std::make_unique<Fleet>("city_fleet", seed, city_fleet_inputs, 5);
}

}  // namespace perfbench
