#include "dslsim/simulator.hpp"

#include <algorithm>
#include <cmath>

namespace nevermind::dslsim {

namespace {

/// Hash for the intermittent duty-cycle pattern: deterministic per
/// (episode seed, 4-day block), so the perception loop and the Saturday
/// measurement see the same on/off state.
double block_uniform(std::uint64_t seed, util::Day day) noexcept {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(day / 4) * 0x9E3779B97F4A7C15ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Outage effects applied to every line on the DSLAM during the hard
/// outage window.
FaultEffects outage_effects() noexcept {
  FaultEffects fx;
  fx.es_rate = 150.0;
  fx.fec_rate = 120.0;
  fx.cv_rate = 60.0;
  fx.rate_mult = 0.2;
  fx.modem_off_prob = 0.7;
  fx.cells_mult = 0.15;
  return fx;
}

/// Equipment degradation visible in line tests before the hard outage.
FaultEffects precursor_effects() noexcept {
  FaultEffects fx;
  fx.es_rate = 70.0;
  fx.fec_rate = 90.0;
  fx.cv_rate = 28.0;
  fx.rate_mult = 0.88;
  fx.modem_off_prob = 0.08;
  fx.instability = 0.3;
  return fx;
}

}  // namespace

const char* infra_event_kind_name(InfraEventKind kind) noexcept {
  switch (kind) {
    case InfraEventKind::kDslamOutage:
      return "dslam-outage";
    case InfraEventKind::kCrossboxDegradation:
      return "crossbox-degradation";
    case InfraEventKind::kWeatherBurst:
      return "weather-burst";
    case InfraEventKind::kFirmwareRegression:
      return "firmware-regression";
  }
  return "?";
}

FaultEffects infra_event_effects(InfraEventKind kind) noexcept {
  FaultEffects fx;
  switch (kind) {
    case InfraEventKind::kDslamOutage:
      // Hard loss of the shelf: most modems show unreachable, the rest
      // report a barely-alive line.
      fx.es_rate = 140.0;
      fx.fec_rate = 110.0;
      fx.cv_rate = 55.0;
      fx.rate_mult = 0.25;
      fx.modem_off_prob = 0.65;
      fx.cells_mult = 0.2;
      break;
    case InfraEventKind::kCrossboxDegradation:
      // Water in the cabinet: the whole F1 binder loses margin.
      fx.atten_db = 5.0;
      fx.noise_db = 4.0;
      fx.cv_rate = 26.0;
      fx.es_rate = 32.0;
      fx.fec_rate = 45.0;
      fx.rate_mult = 0.85;
      fx.instability = 0.35;
      break;
    case InfraEventKind::kWeatherBurst:
      fx.noise_db = 5.0;
      fx.es_rate = 38.0;
      fx.cv_rate = 20.0;
      fx.instability = 0.55;
      fx.modem_off_prob = 0.04;
      break;
    case InfraEventKind::kFirmwareRegression:
      fx.fec_rate = 70.0;
      fx.es_rate = 24.0;
      fx.rate_mult = 0.93;
      fx.attain_mult = 0.92;
      fx.instability = 0.45;
      break;
  }
  return fx;
}

double infra_activity(const InfraEvent& event, util::Day day) noexcept {
  if (day < event.start || day >= event.end) return 0.0;
  if (event.kind == InfraEventKind::kCrossboxDegradation) {
    return std::min(1.0, static_cast<double>(day - event.start + 1) / 10.0);
  }
  return 1.0;
}

std::vector<LineId> infra_event_lines(const Topology& topo,
                                      const InfraEvent& event) {
  std::vector<LineId> lines;
  switch (event.kind) {
    case InfraEventKind::kDslamOutage:
    case InfraEventKind::kFirmwareRegression: {
      const auto span = topo.lines_of_dslam(event.scope);
      lines.assign(span.begin(), span.end());
      break;
    }
    case InfraEventKind::kCrossboxDegradation: {
      const auto span = topo.lines_of_crossbox(event.scope);
      lines.assign(span.begin(), span.end());
      break;
    }
    case InfraEventKind::kWeatherBurst: {
      const auto [first, last] = topo.dslam_range_of_atm(event.scope);
      for (DslamId d = first; d < last; ++d) {
        const auto span = topo.lines_of_dslam(d);
        lines.insert(lines.end(), span.begin(), span.end());
      }
      break;
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

double episode_activity(const FaultSignature& sig, const FaultEpisode& episode,
                        util::Day day) noexcept {
  if (day < episode.onset || day >= episode.cleared) return 0.0;
  switch (sig.dynamics) {
    case FaultDynamics::kSudden:
      return 1.0;
    case FaultDynamics::kDegrading: {
      const double ramp_days = std::max(sig.ramp_weeks, 0.25) * 7.0;
      return std::min(1.0, static_cast<double>(day - episode.onset + 1) /
                               ramp_days);
    }
    case FaultDynamics::kIntermittent:
      return block_uniform(episode.activity_seed, day) < sig.duty_cycle ? 1.0
                                                                        : 0.0;
  }
  return 0.0;
}

SimDataset::SimDataset(const SimConfig& config, Topology topology,
                       FaultCatalog catalog)
    : config_(config),
      topology_(std::move(topology)),
      catalog_(std::move(catalog)) {}

std::optional<util::Day> SimDataset::next_edge_ticket_after(
    LineId line, util::Day day) const {
  const auto& list = edge_tickets_.at(line);
  const auto it = std::upper_bound(
      list.begin(), list.end(), day,
      [](util::Day d, const auto& entry) { return d < entry.first; });
  if (it == list.end()) return std::nullopt;
  return it->first;
}

std::optional<util::Day> SimDataset::last_edge_ticket_at_or_before(
    LineId line, util::Day day) const {
  const auto& list = edge_tickets_.at(line);
  const auto it = std::upper_bound(
      list.begin(), list.end(), day,
      [](util::Day d, const auto& entry) { return d < entry.first; });
  if (it == list.begin()) return std::nullopt;
  return std::prev(it)->first;
}

bool SimDataset::dslam_outage_within(DslamId dslam, util::Day from,
                                     util::Day to) const {
  for (std::uint32_t idx : dslam_outages_.at(dslam)) {
    const auto& o = outages_[idx];
    if (o.outage_start <= to && o.outage_end > from) return true;
  }
  return false;
}

bool SimDataset::in_byte_feed(LineId line) const {
  return byte_feed_index_.at(line) >= 0;
}

std::optional<double> SimDataset::bytes_on_day(LineId line,
                                               util::Day day) const {
  const std::int32_t idx = byte_feed_index_.at(line);
  if (idx < 0) return std::nullopt;
  const auto& series = daily_mb_[static_cast<std::size_t>(idx)];
  if (day < 0 || static_cast<std::size_t>(day) >= series.size()) return 0.0;
  return static_cast<double>(series[static_cast<std::size_t>(day)]);
}

bool SimDataset::infra_active(LineId line, util::Day day) const {
  for (std::uint32_t idx : infra_by_dslam_.at(topology_.dslam_of(line))) {
    const auto& ev = infra_events_[idx];
    if (ev.kind == InfraEventKind::kCrossboxDegradation &&
        topology_.crossbox_of(line) != ev.scope) {
      continue;
    }
    if (infra_activity(ev, day) > 0.0) return true;
  }
  return false;
}

bool SimDataset::fault_active(LineId line, util::Day day) const {
  for (std::uint32_t idx : line_episodes_.at(line)) {
    const auto& e = episodes_[idx];
    if (day >= e.onset && day < e.cleared) return true;
  }
  return false;
}

SimDataset Simulator::build_tables(const exec::ExecContext& exec) const {
  util::Rng root(config_.seed);
  Topology topology(config_.topology, root.next());
  FaultCatalog catalog(config_.seed, config_.minor_variants_per_location);
  SimDataset data(config_, std::move(topology), std::move(catalog));
  const Topology& topo = data.topology_;
  const FaultCatalog& faults = data.catalog_;

  const util::Day last_test_day = util::saturday_of_week(config_.n_weeks - 1);
  // Tickets may arrive up to the prediction horizon past the last test.
  const util::Day horizon = last_test_day + 35;

  // ---- plants & customers --------------------------------------------
  util::Rng plant_rng = root.fork();
  util::Rng customer_rng = root.fork();
  data.plants_.resize(topo.n_lines());
  data.customers_.resize(topo.n_lines());
  for (LineId u = 0; u < topo.n_lines(); ++u) {
    data.plants_[u] = sample_plant(plant_rng);
    data.plants_[u].profile = sample_profile(data.plants_[u], plant_rng);
    data.customers_[u] = sample_customer(customer_rng, config_.customer);
  }

  // ---- DSLAM outages ----------------------------------------------------
  util::Rng outage_rng = root.fork();
  data.dslam_outages_.resize(topo.n_dslams());
  const double outage_rate_day = config_.outage_rate_per_dslam_year / 365.0;
  for (DslamId d = 0; d < topo.n_dslams(); ++d) {
    double day = outage_rng.exponential(std::max(outage_rate_day, 1e-9));
    while (day < static_cast<double>(horizon)) {
      OutageEvent o;
      o.dslam = d;
      o.outage_start = static_cast<util::Day>(day);
      o.precursor_start =
          o.outage_start - static_cast<util::Day>(outage_rng.uniform(10.0, 28.0));
      o.outage_end = o.outage_start + 1 +
                     static_cast<util::Day>(outage_rng.exponential(0.5));
      data.dslam_outages_[d].push_back(
          static_cast<std::uint32_t>(data.outages_.size()));
      data.outages_.push_back(o);
      day += outage_rng.exponential(std::max(outage_rate_day, 1e-9));
    }
  }

  auto outage_suppressed = [&](DslamId dslam, util::Day day,
                               util::Rng& rng) -> bool {
    for (std::uint32_t idx : data.dslam_outages_[dslam]) {
      const auto& o = data.outages_[idx];
      // IVR stays up a couple of days past restoration.
      if (day >= o.outage_start && day < o.outage_end + 2) {
        return rng.bernoulli(config_.outage_suppression);
      }
    }
    return false;
  };

  // ---- fault episodes & tickets ---------------------------------------
  util::Rng fault_rng = root.fork();
  data.line_episodes_.resize(topo.n_lines());
  data.edge_tickets_.resize(topo.n_lines());

  // Reserve from the arrival rates so the per-line loop never
  // re-allocates the shared tables mid-sweep at 1M lines.
  const double expected_episodes =
      static_cast<double>(topo.n_lines()) * config_.weekly_fault_rate *
          (static_cast<double>(horizon) / 7.0) +
      static_cast<double>(config_.scripted_faults.size());
  const double expected_billing = static_cast<double>(topo.n_lines()) *
                                  config_.billing_tickets_per_line_year *
                                  static_cast<double>(horizon) / 365.0;
  data.episodes_.reserve(
      static_cast<std::size_t>(expected_episodes * 1.1) + 16);

  struct PendingTicket {
    LineId line;
    util::Day reported;
    util::Day resolved;
    TicketCategory category;
    std::int32_t episode;  // index into episodes_, or -1
    DispositionId disposition;
    MajorLocation location;
    bool has_note;
  };
  std::vector<PendingTicket> pending;
  pending.reserve(
      static_cast<std::size_t>((expected_episodes + expected_billing) * 1.1) +
      16);

  // Life of one fault episode: notice -> call -> dispatch -> fix (or
  // silent self-clearing). Shared between random arrivals and any
  // scripted faults from the config.
  const auto run_episode = [&](LineId u, util::Day onset, DispositionId disp,
                               float severity, util::Rng& rng) {
    const CustomerBehavior& cust = data.customers_[u];
    const DslamId dslam = topo.dslam_of(u);
    const FaultSignature& sig = faults.signature(disp);

    FaultEpisode episode;
    episode.line = u;
    episode.disposition = disp;
    episode.severity = severity;
    episode.onset = onset;
    episode.activity_seed = rng.next();
    // Unreported faults eventually clear on their own (re-provisioning,
    // weather drying out a splice, customer swapping gear silently).
    episode.cleared =
        onset + 1 +
        static_cast<util::Day>(
            rng.exponential(1.0 / (config_.unreported_clear_mean_weeks * 7.0)));
    episode.cleared = std::min<util::Day>(episode.cleared, horizon + 60);

    const std::size_t episode_index = data.episodes_.size();

    // Perceived symptom strength at full activity.
    FaultEffects at_full;
    accumulate_effects(at_full, sig.effects, episode.severity);
    const double perceived_full =
        sig.perceived_weight * perceived_severity(at_full);

    double current_perceived = perceived_full;
    util::Day day = episode.onset;
    while (day < episode.cleared && day < horizon) {
      const double act = episode_activity(sig, episode, day);
      if (act > 0.0) {
        const double usage = usage_on_day(cust, day);
        const double usage_norm = std::min(usage / 150.0, 3.0);
        const double p_notice =
            1.0 - std::exp(-config_.notice_scale * current_perceived *
                           usage_norm * act * cust.report_propensity);
        if (rng.bernoulli(p_notice)) {
          // Noticed: find the day the call actually lands.
          util::Day call_day = day;
          while (call_day < horizon &&
                 !rng.bernoulli(config_.call_rate *
                                call_day_weight(call_day))) {
            ++call_day;
          }
          if (call_day >= horizon) break;
          if (outage_suppressed(dslam, call_day, rng)) {
            // IVR absorbed the call (§5.2); the customer may retry
            // later if the problem persists.
            day = call_day + 7;
            continue;
          }
          // A real ticket.
          PendingTicket t;
          t.line = u;
          t.reported = call_day;
          t.resolved =
              call_day + 1 +
              static_cast<util::Day>(std::min<std::uint64_t>(
                  rng.geometric(0.5), 4));
          t.category = TicketCategory::kCustomerEdge;
          t.episode = static_cast<std::int32_t>(episode_index);

          // Disposition note: blame the active fault closest to the
          // end host, then apply technician label noise.
          DispositionId blamed = disp;
          int best_prox = end_host_proximity(sig.location);
          for (std::uint32_t other : data.line_episodes_[u]) {
            const auto& oe = data.episodes_[other];
            if (t.resolved >= oe.onset && t.resolved < oe.cleared) {
              const auto& os = faults.signature(oe.disposition);
              const int prox = end_host_proximity(os.location);
              if (prox < best_prox) {
                best_prox = prox;
                blamed = oe.disposition;
              }
            }
          }
          if (rng.bernoulli(config_.label_noise_any)) {
            blamed = faults.sample(rng);
          } else if (rng.bernoulli(config_.label_noise_same_location)) {
            blamed = faults.sample_within_location(
                rng, faults.signature(blamed).location);
          }
          t.disposition = blamed;
          t.location = faults.signature(blamed).location;
          t.has_note = true;
          pending.push_back(t);

          if (rng.bernoulli(config_.misresolve_prob)) {
            // Dispatch replaced the wrong part: symptoms linger,
            // weaker, and a repeat ticket may follow.
            current_perceived *= 0.7;
            day = t.resolved + 2;
            continue;
          }
          episode.cleared = t.resolved;
          break;
        }
      }
      ++day;
    }

    data.line_episodes_[u].push_back(static_cast<std::uint32_t>(episode_index));
    data.episodes_.push_back(episode);
  };

  // Scripted faults grouped by line (controlled experiments, tests).
  // The per-line index is only built when scripts exist — the common
  // unscripted run pays nothing for it.
  std::vector<std::vector<std::uint32_t>> scripted_by_line;
  if (!config_.scripted_faults.empty()) {
    scripted_by_line.resize(topo.n_lines());
    for (std::uint32_t i = 0; i < config_.scripted_faults.size(); ++i) {
      const auto& sf = config_.scripted_faults[i];
      if (sf.line < topo.n_lines() && sf.disposition < faults.size()) {
        scripted_by_line[sf.line].push_back(i);
      }
    }
  }

  for (LineId u = 0; u < topo.n_lines(); ++u) {
    util::Rng rng = fault_rng.fork();

    if (!scripted_by_line.empty()) {
      for (std::uint32_t idx : scripted_by_line[u]) {
        const auto& sf = config_.scripted_faults[idx];
        run_episode(u, sf.onset, sf.disposition,
                    std::clamp(sf.severity, 0.15F, 2.5F), rng);
      }
    }

    double onset_f = rng.exponential(config_.weekly_fault_rate) * 7.0;
    while (onset_f < static_cast<double>(horizon)) {
      const auto onset = static_cast<util::Day>(onset_f);
      const DispositionId disp = faults.sample(rng);
      const FaultSignature& sig = faults.signature(disp);
      const auto severity = static_cast<float>(std::clamp(
          rng.lognormal(sig.severity_mu, sig.severity_sigma), 0.15, 2.5));
      run_episode(u, onset, disp, severity, rng);
      onset_f += rng.exponential(config_.weekly_fault_rate) * 7.0;
    }

    // Billing / non-technical tickets: present in the feed, filtered by
    // the coarse category label.
    const auto n_billing = rng.poisson(config_.billing_tickets_per_line_year *
                                       static_cast<double>(horizon) / 365.0);
    for (std::uint64_t i = 0; i < n_billing; ++i) {
      PendingTicket t;
      t.line = u;
      t.reported = static_cast<util::Day>(rng.uniform_index(
          static_cast<std::uint64_t>(horizon)));
      t.resolved = t.reported;
      t.category = TicketCategory::kBilling;
      t.episode = -1;
      t.disposition = 0;
      t.location = MajorLocation::kHomeNetwork;
      t.has_note = false;
      pending.push_back(t);
    }
  }
  // Per-line scratch is done; release it before the heavier phases.
  std::vector<std::vector<std::uint32_t>>().swap(scripted_by_line);

  // Fork the remaining root streams in one block, in the same order as
  // ever (plant, customer, outage, fault, measure, bytes) plus the new
  // infra stream LAST — existing streams, and therefore every dataset
  // with the infra layer off, stay bit-identical.
  util::Rng measure_rng = root.fork();
  util::Rng bytes_rng = root.fork();
  util::Rng infra_rng = root.fork();

  // ---- correlated infrastructure events --------------------------------
  // Scripted events first (fixed order), then random arrivals swept
  // serially per scope unit; both fully deterministic in the seed. The
  // per-line consequences (metric effects in the measurement sweep,
  // ticket draws below) are keyed per (event, line), so they are
  // independent of the thread count.
  data.infra_by_dslam_.resize(topo.n_dslams());
  const auto add_infra = [&](InfraEventKind kind, std::uint32_t scope,
                             util::Day start, util::Day end, float severity) {
    InfraEvent ev;
    ev.kind = kind;
    ev.scope = scope;
    ev.start = std::max<util::Day>(start, 0);
    ev.end = std::min<util::Day>(end, horizon);
    ev.severity = std::clamp(severity, 0.2F, 2.5F);
    ev.location = kind == InfraEventKind::kCrossboxDegradation
                      ? MajorLocation::kF1
                  : kind == InfraEventKind::kWeatherBurst
                      ? MajorLocation::kF1
                      : MajorLocation::kDslam;
    if (ev.end <= ev.start) return;
    data.infra_events_.push_back(ev);
  };

  for (const auto& se : config_.scripted_infra) {
    const std::uint32_t scope_limit =
        se.kind == InfraEventKind::kCrossboxDegradation ? topo.n_crossboxes()
        : se.kind == InfraEventKind::kWeatherBurst      ? topo.n_atms()
                                                        : topo.n_dslams();
    if (se.scope < scope_limit) {
      add_infra(se.kind, se.scope, se.start, se.end, se.severity);
    }
  }

  const auto infra_arrivals = [&](double per_unit_year, std::uint32_t n_units,
                                  auto&& emit) {
    if (per_unit_year <= 0.0) return;
    const double rate_day = per_unit_year / 365.0;
    for (std::uint32_t s = 0; s < n_units; ++s) {
      double day = infra_rng.exponential(rate_day);
      while (day < static_cast<double>(horizon)) {
        emit(s, static_cast<util::Day>(day));
        day += infra_rng.exponential(rate_day);
      }
    }
  };
  infra_arrivals(config_.infra.dslam_outages_per_dslam_year, topo.n_dslams(),
                 [&](std::uint32_t d, util::Day day) {
                   const auto dur = static_cast<util::Day>(
                       1 + infra_rng.exponential(1.0 / 1.5));
                   const auto sev = static_cast<float>(
                       infra_rng.lognormal(0.0, 0.3));
                   add_infra(InfraEventKind::kDslamOutage, d, day, day + dur,
                             sev);
                 });
  infra_arrivals(config_.infra.crossbox_events_per_crossbox_year,
                 topo.n_crossboxes(), [&](std::uint32_t c, util::Day day) {
                   const auto dur = static_cast<util::Day>(
                       7 + infra_rng.exponential(1.0 / 14.0));
                   const auto sev = static_cast<float>(
                       infra_rng.lognormal(0.0, 0.35));
                   add_infra(InfraEventKind::kCrossboxDegradation, c, day,
                             day + dur, sev);
                 });
  infra_arrivals(config_.infra.weather_bursts_per_region_year, topo.n_atms(),
                 [&](std::uint32_t a, util::Day day) {
                   const auto dur = static_cast<util::Day>(
                       2 + infra_rng.exponential(1.0 / 2.0));
                   const auto sev = static_cast<float>(
                       infra_rng.lognormal(0.0, 0.35));
                   add_infra(InfraEventKind::kWeatherBurst, a, day, day + dur,
                             sev);
                 });
  if (config_.infra.firmware_rollout_start >= 0) {
    const std::uint32_t per_wave =
        std::max<std::uint32_t>(config_.infra.firmware_dslams_per_wave, 1);
    for (DslamId d = 0; d < topo.n_dslams(); ++d) {
      const auto wave = static_cast<util::Day>(d / per_wave);
      const util::Day upgrade_day =
          config_.infra.firmware_rollout_start +
          wave * std::max(config_.infra.firmware_wave_days, 1);
      const bool regresses =
          infra_rng.bernoulli(config_.infra.firmware_regression_prob);
      if (!regresses || upgrade_day >= horizon) continue;
      const auto dur = static_cast<util::Day>(
          7 + infra_rng.exponential(1.0 / 10.0));
      add_infra(InfraEventKind::kFirmwareRegression, d, upgrade_day,
                upgrade_day + dur,
                static_cast<float>(infra_rng.lognormal(0.0, 0.25)));
    }
  }

  std::sort(data.infra_events_.begin(), data.infra_events_.end(),
            [](const InfraEvent& a, const InfraEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.scope != b.scope) return a.scope < b.scope;
              return a.end < b.end;
            });
  for (std::uint32_t ei = 0; ei < data.infra_events_.size(); ++ei) {
    const auto& ev = data.infra_events_[ei];
    switch (ev.kind) {
      case InfraEventKind::kDslamOutage:
      case InfraEventKind::kFirmwareRegression:
        data.infra_by_dslam_[ev.scope].push_back(ei);
        break;
      case InfraEventKind::kCrossboxDegradation:
        data.infra_by_dslam_[topo.dslam_of_crossbox(ev.scope)].push_back(ei);
        break;
      case InfraEventKind::kWeatherBurst: {
        const auto [first, last] = topo.dslam_range_of_atm(ev.scope);
        for (DslamId d = first; d < last; ++d) {
          data.infra_by_dslam_[d].push_back(ei);
        }
        break;
      }
    }
  }

  // Tickets raised by infrastructure events: every affected customer
  // may notice and call, keyed per (event, line) so the stream is
  // order-free. DSLAM outages are mostly absorbed by the IVR (§5.2);
  // the note blames the event's true location, with the usual
  // technician label noise.
  const std::uint64_t infra_ticket_seed = infra_rng.next();
  for (std::uint32_t ei = 0; ei < data.infra_events_.size(); ++ei) {
    const auto& ev = data.infra_events_[ei];
    const util::Day dur = ev.end - ev.start;
    if (dur <= 0) continue;
    FaultEffects at_full;
    accumulate_effects(at_full, infra_event_effects(ev.kind), ev.severity);
    const double perceived = perceived_severity(at_full);
    for (LineId u : infra_event_lines(topo, ev)) {
      util::Rng rng = util::Rng::stream(
          infra_ticket_seed,
          (static_cast<std::uint64_t>(ei) << 32) | u);
      const CustomerBehavior& cust = data.customers_[u];
      double p_call = 1.0 - std::exp(-config_.notice_scale * perceived *
                                     cust.report_propensity *
                                     std::min<double>(dur, 14.0) * 0.35);
      if (ev.kind == InfraEventKind::kDslamOutage) {
        p_call *= 1.0 - config_.outage_suppression;
      }
      if (!rng.bernoulli(p_call)) continue;
      PendingTicket t;
      t.line = u;
      t.reported = ev.start + static_cast<util::Day>(rng.uniform_index(
                                  static_cast<std::uint64_t>(dur)));
      t.resolved = t.reported + 1 +
                   static_cast<util::Day>(
                       std::min<std::uint64_t>(rng.geometric(0.5), 4));
      t.category = TicketCategory::kCustomerEdge;
      t.episode = -1;
      DispositionId blamed =
          faults.sample_within_location(rng, ev.location);
      if (rng.bernoulli(config_.label_noise_any)) {
        blamed = faults.sample(rng);
      }
      t.disposition = blamed;
      t.location = faults.signature(blamed).location;
      t.has_note = true;
      pending.push_back(t);
    }
  }

  // ---- materialize tickets in chronological order -----------------------
  std::sort(pending.begin(), pending.end(),
            [](const PendingTicket& a, const PendingTicket& b) {
              if (a.reported != b.reported) return a.reported < b.reported;
              return a.line < b.line;
            });
  data.tickets_.reserve(pending.size());
  data.notes_.reserve(static_cast<std::size_t>(
      std::count_if(pending.begin(), pending.end(),
                    [](const PendingTicket& p) { return p.has_note; })));
  for (const auto& p : pending) {
    Ticket t;
    t.id = static_cast<TicketId>(data.tickets_.size());
    t.line = p.line;
    t.reported = p.reported;
    t.category = p.category;
    t.resolved = p.resolved;
    if (p.has_note) {
      DispositionNote note;
      note.ticket_id = t.id;
      note.line = p.line;
      note.dispatch_day = p.resolved;
      note.disposition = p.disposition;
      note.location = p.location;
      t.note = static_cast<std::int32_t>(data.notes_.size());
      data.notes_.push_back(note);
    }
    if (p.category == TicketCategory::kCustomerEdge) {
      data.edge_tickets_[p.line].emplace_back(p.reported, t.id);
      if (p.episode >= 0) {
        auto& ep = data.episodes_[static_cast<std::size_t>(p.episode)];
        if (ep.first_ticket == kNoTicket) {
          ep.first_ticket = static_cast<std::int32_t>(t.id);
        }
      }
    }
    data.tickets_.push_back(t);
  }
  // The pending scratch is the last per-ticket intermediate; release it
  // before the byte-feed series allocate.
  std::vector<PendingTicket>().swap(pending);

  // Root of the per-line measurement streams. Drawn here — in the same
  // stream position as ever — but the sweep itself runs later, in run()
  // (line-major, materialized) or stream_weeks (week-major, chunked).
  data.measure_seed_ = measure_rng.next();

  // ---- daily byte feed (two BRAS servers) -------------------------------
  // Feed membership and slot order are fixed serially (they follow the
  // topology alone); the per-line series then fill in parallel from
  // per-line streams.
  const std::uint64_t bytes_seed = bytes_rng.next();
  data.byte_feed_index_.assign(topo.n_lines(), -1);
  std::vector<LineId> feed_lines;
  for (LineId u = 0; u < topo.n_lines(); ++u) {
    if (topo.bras_of_line(u) >= config_.byte_feed_bras) continue;
    data.byte_feed_index_[u] = static_cast<std::int32_t>(feed_lines.size());
    feed_lines.push_back(u);
  }
  data.daily_mb_.assign(feed_lines.size(), {});
  exec.parallel_for(
      0, feed_lines.size(), 0, [&](std::size_t fb, std::size_t fe) {
        for (std::size_t f = fb; f < fe; ++f) {
          const LineId u = feed_lines[f];
          util::Rng rng = util::Rng::stream(bytes_seed, u);
          std::vector<float> series(static_cast<std::size_t>(horizon), 0.0F);
          const CustomerBehavior& cust = data.customers_[u];
          for (util::Day d = 0; d < horizon; ++d) {
            const double base = usage_on_day(cust, d);
            series[static_cast<std::size_t>(d)] =
                base <= 0.0
                    ? 0.0F
                    : static_cast<float>(base * rng.lognormal(0.0, 0.5));
          }
          data.daily_mb_[f] = std::move(series);
        }
      });

  return data;
}

MetricVector Simulator::measure_cell(const SimDataset& data, LineId u,
                                     util::Day day, util::Rng& rng) {
  const SimConfig& config = data.config_;
  const Topology& topo = data.topology_;
  const FaultCatalog& faults = data.catalog_;
  const CustomerBehavior& cust = data.customers_[u];
  const bool away = is_away(cust, day);

  MeasurementContext ctx;
  for (std::uint32_t idx : data.line_episodes_[u]) {
    const auto& e = data.episodes_[idx];
    const double act =
        episode_activity(faults.signature(e.disposition), e, day);
    if (act > 0.0) {
      accumulate_effects(ctx.fx, faults.signature(e.disposition).effects,
                         e.severity * act);
    }
  }
  // DSLAM outage / precursor degradation.
  for (std::uint32_t idx : data.dslam_outages_[topo.dslam_of(u)]) {
    const auto& o = data.outages_[idx];
    if (day >= o.outage_start && day < o.outage_end) {
      accumulate_effects(ctx.fx, outage_effects(), 1.0);
    } else if (day >= o.precursor_start && day < o.outage_start) {
      const double ramp =
          static_cast<double>(day - o.precursor_start + 1) /
          static_cast<double>(o.outage_start - o.precursor_start + 1);
      accumulate_effects(ctx.fx, precursor_effects(), ramp);
    }
  }
  // Correlated infrastructure events covering this line's subtree.
  for (std::uint32_t idx : data.infra_by_dslam_[topo.dslam_of(u)]) {
    const auto& ev = data.infra_events_[idx];
    if (ev.kind == InfraEventKind::kCrossboxDegradation &&
        topo.crossbox_of(u) != ev.scope) {
      continue;
    }
    const double act = infra_activity(ev, day);
    if (act > 0.0) {
      accumulate_effects(ctx.fx, infra_event_effects(ev.kind),
                         ev.severity * act);
    }
  }
  // Environment drift: deterministic, RNG-free shifts shared by
  // the whole population (concept drift for bench_drift).
  if (config.drift.plant_aging_db_per_year > 0.0 &&
      day >= config.drift.onset_day) {
    ctx.fx.atten_db += config.drift.plant_aging_db_per_year *
                       static_cast<double>(day - config.drift.onset_day) /
                       365.0;
  }
  if (config.drift.seasonal_noise_amp_db > 0.0) {
    const double phase =
        2.0 * 3.14159265358979323846 *
        static_cast<double>(day - config.drift.seasonal_peak_day) / 365.25;
    ctx.fx.noise_db +=
        config.drift.seasonal_noise_amp_db * 0.5 * (1.0 + std::cos(phase));
  }

  // Away customers mostly leave the modem powered (the paper's
  // not-on-site lines still produce Saturday test records); a
  // modest share powers down before leaving.
  const double customer_off =
      std::min(1.0, cust.modem_off_base + (away ? 0.2 : 0.0));
  if (rng.bernoulli(modem_off_probability(customer_off, ctx.fx))) {
    return missing_record();
  }
  ctx.usage_mb_week = usage_on_day(cust, day) * 7.0 * rng.lognormal(0.0, 0.25);
  return measure_line(data.plants_[u], ctx, rng);
}

SimDataset Simulator::run(const exec::ExecContext& exec) const {
  SimDataset data = build_tables(exec);

  // ---- weekly Saturday measurements -------------------------------------
  // Line-major: every line owns an independent RNG stream keyed by
  // (measure_seed_, line) and sweeps its 52 Saturdays from it, so the
  // measurement tables are bit-identical no matter how many threads
  // sweep the lines (and the fault/ticket process above never sees
  // these draws). stream_weeks advances the same per-line streams in
  // the same order week-major, so the two sweeps agree byte for byte.
  const std::uint32_t n_lines = data.topology_.n_lines();
  data.weeks_.resize(static_cast<std::size_t>(config_.n_weeks));
  for (auto& week : data.weeks_) week.resize(n_lines);
  exec.parallel_for(0, n_lines, 0, [&](std::size_t ub, std::size_t ue) {
    for (LineId u = static_cast<LineId>(ub); u < ue; ++u) {
      util::Rng rng = util::Rng::stream(data.measure_seed_, u);
      for (int w = 0; w < config_.n_weeks; ++w) {
        data.weeks_[static_cast<std::size_t>(w)][u] =
            measure_cell(data, u, util::saturday_of_week(w), rng);
      }
    }
  });
  return data;
}

void Simulator::stream_weeks(const SimDataset& tables,
                             const exec::ExecContext& exec,
                             const WeekSink& sink, int through_week) const {
  const int last = through_week < 0
                       ? config_.n_weeks - 1
                       : std::min(through_week, config_.n_weeks - 1);
  const std::uint32_t n_lines = tables.topology_.n_lines();
  // Persistent per-line streams: util::Rng caches the second Box–Muller
  // normal across draws, so the week-major sweep must carry each line's
  // generator from week to week to match the line-major sweep exactly.
  std::vector<util::Rng> rngs;
  rngs.reserve(n_lines);
  for (LineId u = 0; u < n_lines; ++u) {
    rngs.push_back(util::Rng::stream(tables.measure_seed_, u));
  }
  WeeklyMeasurements buffer(n_lines);
  for (int w = 0; w <= last; ++w) {
    const util::Day day = util::saturday_of_week(w);
    // parallel_for returns only after every chunk has completed — the
    // barrier between week w's sweep and the sink (and week w+1).
    exec.parallel_for(0, n_lines, 0, [&](std::size_t ub, std::size_t ue) {
      for (LineId u = static_cast<LineId>(ub); u < ue; ++u) {
        buffer[u] = measure_cell(tables, u, day, rngs[u]);
      }
    });
    sink(WeekChunk{w, day, {buffer.data(), buffer.size()}});
  }
}

}  // namespace nevermind::dslsim
