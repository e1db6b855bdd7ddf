// Year-long DSL network simulation: generates every dataset the paper's
// evaluation consumes — weekly line tests, customer tickets, disposition
// notes, DSLAM outages, subscriber profiles, and the daily byte feed —
// from a seeded stochastic model of plant, faults and customers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dslsim/customer.hpp"
#include "dslsim/faults.hpp"
#include "dslsim/line.hpp"
#include "dslsim/records.hpp"
#include "dslsim/topology.hpp"
#include "exec/exec.hpp"
#include "util/calendar.hpp"
#include "util/rng.hpp"

namespace nevermind::dslsim {

struct SimConfig {
  std::uint64_t seed = 42;
  TopologyConfig topology;
  /// Saturday line tests simulated (2009 has 52).
  int n_weeks = 52;
  /// Customer-edge fault arrivals per line per week.
  double weekly_fault_rate = 0.0065;
  /// DSLAM outage episodes per DSLAM per year.
  double outage_rate_per_dslam_year = 0.42;
  /// Probability a call during an active outage is absorbed by the IVR
  /// (no ticket issued) — §5.2 scenario 1.
  double outage_suppression = 0.9;
  /// Scales the per-day probability that an affected customer notices a
  /// live symptom.
  double notice_scale = 0.17;
  /// Probability the customer actually places the call on a given day
  /// once they noticed (shaped further by call_day_weight).
  double call_rate = 0.45;
  /// Disposition-note label noise (paper: codes "can be very noisy").
  double label_noise_same_location = 0.12;
  double label_noise_any = 0.04;
  /// Dispatch fails to truly fix the fault (repeat tickets).
  double misresolve_prob = 0.12;
  /// Mean weeks until an unreported fault silently clears.
  double unreported_clear_mean_weeks = 12.0;
  /// Billing/other tickets per line per year (filtered by category).
  double billing_tickets_per_line_year = 0.05;
  /// Generated rare dispositions per major location; with the default 7,
  /// the catalogue has 24 canonical + 28 generated = 52 codes, matching
  /// the paper's 52 dispositions.
  std::size_t minor_variants_per_location = 7;
  /// The daily byte feed covers lines under this many BRAS servers
  /// (paper: two).
  std::uint32_t byte_feed_bras = 2;
  CustomerModelConfig customer;

  /// A fault injected deterministically in addition to the random
  /// arrival process — controlled experiments and tests pin exactly
  /// which line breaks, how, and when. The episode then flows through
  /// the same notice/report/dispatch machinery as random faults.
  struct ScriptedFault {
    LineId line = 0;
    DispositionId disposition = 0;
    util::Day onset = 0;
    float severity = 1.0F;
  };
  std::vector<ScriptedFault> scripted_faults;

  /// Correlated shared-infrastructure events (the spatial fault layer).
  /// All rates default to 0: the layer is fully inert unless asked for,
  /// so default-config datasets are bit-identical with or without it.
  struct InfraEventRates {
    /// Scheduled DSLAM outages per DSLAM per year (on top of the random
    /// OutageEvent process above, which models unscheduled failures).
    double dslam_outages_per_dslam_year = 0.0;
    /// Crossbox (F1 binder) degradation events per crossbox per year.
    double crossbox_events_per_crossbox_year = 0.0;
    /// Weather bursts per ATM region per year.
    double weather_bursts_per_region_year = 0.0;
    /// Staged firmware rollout: first wave upgrades on this day
    /// (negative = no rollout), each wave `firmware_wave_days` later
    /// covers the next `firmware_dslams_per_wave` DSLAMs, and each
    /// upgraded DSLAM regresses with `firmware_regression_prob`.
    util::Day firmware_rollout_start = -1;
    int firmware_wave_days = 7;
    std::uint32_t firmware_dslams_per_wave = 4;
    double firmware_regression_prob = 0.25;
  };
  InfraEventRates infra;

  /// An infrastructure event injected deterministically (controlled
  /// experiments, tests, bench_drift). Scope semantics as InfraEvent.
  struct ScriptedInfraEvent {
    InfraEventKind kind = InfraEventKind::kDslamOutage;
    std::uint32_t scope = 0;
    util::Day start = 0;
    util::Day end = 0;  // exclusive
    float severity = 1.0F;
  };
  std::vector<ScriptedInfraEvent> scripted_infra;

  /// Deterministic concept drift applied arithmetically in the
  /// measurement sweep (no RNG draws, so enabling it perturbs no other
  /// stream): slow plant aging plus a seasonal noise cycle. Both
  /// default off.
  struct EnvironmentDrift {
    /// Extra attenuation accumulating linearly from `onset_day` on
    /// every line (corroding plant), in dB per 365 days.
    double plant_aging_db_per_year = 0.0;
    util::Day onset_day = 0;
    /// Peak-to-trough amplitude of a seasonal noise-floor cycle (dB);
    /// maximum at `seasonal_peak_day` (day-of-sim, cosine-shaped).
    double seasonal_noise_amp_db = 0.0;
    int seasonal_peak_day = 240;
  };
  EnvironmentDrift drift;
};

/// One week of Saturday measurements handed to a streaming sink: the
/// test-week index, its Saturday, and one MetricVector per line (indexed
/// by LineId). The span aliases a buffer the producer reuses for the
/// next week — consumers must copy anything they keep.
struct WeekChunk {
  int week = 0;
  util::Day day = 0;
  std::span<const MetricVector> measurements;
};

/// Consumer callback for Simulator::stream_weeks. Called once per week,
/// in ascending week order, after the week's parallel sweep has fully
/// completed (the parallel_for return is the barrier).
using WeekSink = std::function<void(const WeekChunk&)>;

/// Everything one simulation run produces. Downstream components (the
/// feature encoder, predictor, locator, benches) only read from this.
class SimDataset {
 public:
  SimDataset(const SimConfig& config, Topology topology, FaultCatalog catalog);

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const FaultCatalog& catalog() const noexcept {
    return catalog_;
  }

  [[nodiscard]] std::uint32_t n_lines() const noexcept {
    return topology_.n_lines();
  }
  [[nodiscard]] int n_weeks() const noexcept { return config_.n_weeks; }

  [[nodiscard]] const MetricVector& measurement(int week, LineId line) const {
    return weeks_.at(static_cast<std::size_t>(week))[line];
  }

  /// The full week's measurement table, one MetricVector per line.
  [[nodiscard]] std::span<const MetricVector> week_measurements(
      int week) const {
    const auto& wk = weeks_.at(static_cast<std::size_t>(week));
    return {wk.data(), wk.size()};
  }

  /// False for a tables-only dataset from Simulator::build_tables —
  /// every accessor except measurement/week_measurements works on one;
  /// measurements arrive through the week sink instead.
  [[nodiscard]] bool has_measurements() const noexcept {
    return !weeks_.empty();
  }

  [[nodiscard]] const LinePlant& plant(LineId line) const {
    return plants_.at(line);
  }
  [[nodiscard]] const CustomerBehavior& customer(LineId line) const {
    return customers_.at(line);
  }

  [[nodiscard]] const std::vector<Ticket>& tickets() const noexcept {
    return tickets_;
  }
  [[nodiscard]] const std::vector<DispositionNote>& notes() const noexcept {
    return notes_;
  }
  [[nodiscard]] const std::vector<OutageEvent>& outages() const noexcept {
    return outages_;
  }
  [[nodiscard]] const std::vector<FaultEpisode>& episodes() const noexcept {
    return episodes_;
  }

  /// Day of the first customer-edge ticket strictly after `day` for the
  /// line, if any — N T(u, t) of the problem definition (Section 4.1).
  [[nodiscard]] std::optional<util::Day> next_edge_ticket_after(
      LineId line, util::Day day) const;

  /// Day of the most recent customer-edge ticket at or before `day`
  /// (the "ticket" customer feature of Table 3).
  [[nodiscard]] std::optional<util::Day> last_edge_ticket_at_or_before(
      LineId line, util::Day day) const;

  /// True if the line's DSLAM has an outage (hard window) intersecting
  /// [from, to].
  [[nodiscard]] bool dslam_outage_within(DslamId dslam, util::Day from,
                                         util::Day to) const;

  /// Daily traffic (MB) for a line covered by the byte feed; nullopt if
  /// the line is not under one of the instrumented BRAS servers.
  [[nodiscard]] std::optional<double> bytes_on_day(LineId line,
                                                   util::Day day) const;
  [[nodiscard]] bool in_byte_feed(LineId line) const;

  /// Ground-truth: true if any fault episode is active on the line at
  /// `day` (used by analyses of "incorrect" predictions).
  [[nodiscard]] bool fault_active(LineId line, util::Day day) const;

  /// Indices into episodes() of every fault episode of the line.
  [[nodiscard]] std::span<const std::uint32_t> line_episode_indices(
      LineId line) const {
    const auto& v = line_episodes_.at(line);
    return {v.data(), v.size()};
  }

  /// Correlated infrastructure events, sorted by (start, kind, scope).
  [[nodiscard]] const std::vector<InfraEvent>& infra_events() const noexcept {
    return infra_events_;
  }

  /// Indices into infra_events() of every event that can touch lines of
  /// this DSLAM (crossbox events appear under their DSLAM; weather
  /// events under every DSLAM of the region).
  [[nodiscard]] std::span<const std::uint32_t> infra_events_of_dslam(
      DslamId dslam) const {
    const auto& v = infra_by_dslam_.at(dslam);
    return {v.data(), v.size()};
  }

  /// Ground truth: true if any infrastructure event covering this line
  /// is active on `day` — the network-side label the spatial stage is
  /// evaluated against.
  [[nodiscard]] bool infra_active(LineId line, util::Day day) const;

  // --- mutation hooks used only by the Simulator while building -------
  struct Builder;

 private:
  SimConfig config_;
  Topology topology_;
  FaultCatalog catalog_;
  std::vector<LinePlant> plants_;
  std::vector<CustomerBehavior> customers_;
  std::vector<WeeklyMeasurements> weeks_;
  std::vector<Ticket> tickets_;
  std::vector<DispositionNote> notes_;
  std::vector<OutageEvent> outages_;
  std::vector<FaultEpisode> episodes_;
  /// Per line: (day, ticket id) of edge tickets, sorted by day.
  std::vector<std::vector<std::pair<util::Day, TicketId>>> edge_tickets_;
  /// Per DSLAM: outage indices sorted by start.
  std::vector<std::vector<std::uint32_t>> dslam_outages_;
  /// Byte feed: per covered line, MB per day. Index -1 = not covered.
  std::vector<std::int32_t> byte_feed_index_;
  std::vector<std::vector<float>> daily_mb_;
  /// Per line: episode indices (for fault_active).
  std::vector<std::vector<std::uint32_t>> line_episodes_;
  /// Correlated infrastructure events and the per-DSLAM index the
  /// measurement sweep walks.
  std::vector<InfraEvent> infra_events_;
  std::vector<std::vector<std::uint32_t>> infra_by_dslam_;
  /// Root of the per-line measurement RNG streams; stored so the weekly
  /// sweep can run later (and repeatedly) against a tables-only dataset.
  std::uint64_t measure_seed_ = 0;

  friend class Simulator;
};

/// Activity level of a fault episode on a given day in [0, 1]:
/// 0 outside [onset, cleared); ramping for degrading faults; a seeded
/// duty-cycle block pattern for intermittent ones.
[[nodiscard]] double episode_activity(const FaultSignature& sig,
                                      const FaultEpisode& episode,
                                      util::Day day) noexcept;

/// Metric perturbations one infrastructure event kind applies at
/// severity 1.0 to every line in its scope.
[[nodiscard]] FaultEffects infra_event_effects(InfraEventKind kind) noexcept;

/// Activity of an infrastructure event on a day in [0, 1]: 0 outside
/// [start, end); crossbox degradations ramp over the first days, the
/// other kinds hit at full strength immediately.
[[nodiscard]] double infra_activity(const InfraEvent& event,
                                    util::Day day) noexcept;

/// Every line in an event's scope, ascending by id.
[[nodiscard]] std::vector<LineId> infra_event_lines(const Topology& topo,
                                                    const InfraEvent& event);

class Simulator {
 public:
  explicit Simulator(SimConfig config) : config_(std::move(config)) {}

  /// Run the full simulation; deterministic in config.seed.
  [[nodiscard]] SimDataset run() const { return run(exec::ExecContext::serial()); }

  /// Same, but with the weekly measurement sweep and the byte feed
  /// parallelized across lines under `exec`. Every line draws from its
  /// own util::Rng stream keyed by (seed, line), so the dataset is
  /// bit-identical at every thread count — including threads = 1.
  [[nodiscard]] SimDataset run(const exec::ExecContext& exec) const;

  /// Everything run() produces EXCEPT the weekly measurement tables:
  /// plants, customers, outages, fault episodes, tickets, notes, the
  /// infrastructure layer and the byte feed. The returned dataset has
  /// has_measurements() == false; stream_weeks sweeps the measurements
  /// against it on demand. All RNG streams are forked in run()'s order,
  /// so build_tables + a full sweep is bit-identical to run().
  [[nodiscard]] SimDataset build_tables(const exec::ExecContext& exec) const;

  /// Week-streaming measurement sweep over a dataset from build_tables
  /// (or run): for each week 0..through_week (default: all n_weeks), the
  /// per-line measurements are generated in parallel under `exec`, then
  /// — after the week's barrier — handed to `sink` as one WeekChunk.
  /// Every line keeps one persistent RNG advanced across the weeks, so
  /// the emitted chunks are bit-identical to run()'s measurement tables
  /// at every thread count, including the chunk a Box–Muller cache
  /// straddles. The chunk buffer is reused between weeks.
  void stream_weeks(const SimDataset& tables, const exec::ExecContext& exec,
                    const WeekSink& sink, int through_week = -1) const;

 private:
  /// One (line, Saturday) measurement cell — THE shared implementation
  /// behind run()'s line-major sweep and stream_weeks' week-major sweep;
  /// both draw the same stream from `rng` in the same order.
  static MetricVector measure_cell(const SimDataset& data, LineId line,
                                   util::Day day, util::Rng& rng);

  SimConfig config_;
};

}  // namespace nevermind::dslsim
