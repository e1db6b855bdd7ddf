#include "dslsim/simulator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "ml/dataset.hpp"

namespace nevermind::dslsim {
namespace {

SimConfig small_config(std::uint64_t seed = 42) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.topology.n_lines = 2500;
  // Small fanouts so even this little network spans several BRAS
  // servers (the byte feed covers exactly two of them).
  cfg.topology.dslams_per_atm = 4;
  cfg.topology.atms_per_bras = 2;
  return cfg;
}

/// One shared dataset for the whole suite: the simulation is the
/// expensive part, the assertions are cheap.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SimDataset(Simulator(small_config()).run());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static const SimDataset* data_;
};

const SimDataset* SimulatorTest::data_ = nullptr;

TEST_F(SimulatorTest, ProducesAllDatasets) {
  EXPECT_EQ(data_->n_lines(), 2500U);
  EXPECT_EQ(data_->n_weeks(), 52);
  EXPECT_GT(data_->tickets().size(), 100U);
  EXPECT_GT(data_->notes().size(), 50U);
  EXPECT_GT(data_->episodes().size(), 200U);
  EXPECT_GT(data_->outages().size(), 0U);
}

TEST_F(SimulatorTest, TicketsChronologicalWithSequentialIds) {
  const auto& tickets = data_->tickets();
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_LE(tickets[i - 1].reported, tickets[i].reported);
    EXPECT_EQ(tickets[i].id, i);
  }
}

TEST_F(SimulatorTest, TicketsResolveAfterReport) {
  for (const auto& t : data_->tickets()) {
    EXPECT_GE(t.resolved, t.reported);
  }
}

TEST_F(SimulatorTest, NotesPointBackToTickets) {
  for (const auto& t : data_->tickets()) {
    if (t.note == kNoTicket) continue;
    const auto& note = data_->notes().at(static_cast<std::size_t>(t.note));
    EXPECT_EQ(note.ticket_id, t.id);
    EXPECT_EQ(note.line, t.line);
    EXPECT_EQ(note.dispatch_day, t.resolved);
  }
}

TEST_F(SimulatorTest, NoteLocationsMatchCatalog) {
  for (const auto& note : data_->notes()) {
    EXPECT_EQ(note.location,
              data_->catalog().signature(note.disposition).location);
  }
}

TEST_F(SimulatorTest, EdgeTicketsHaveNotesBillingDoNot) {
  for (const auto& t : data_->tickets()) {
    if (t.category == TicketCategory::kBilling) {
      EXPECT_EQ(t.note, kNoTicket);
    } else {
      EXPECT_NE(t.note, kNoTicket);
    }
  }
}

TEST_F(SimulatorTest, SomeBillingTicketsExist) {
  std::size_t billing = 0;
  for (const auto& t : data_->tickets()) {
    billing += t.category == TicketCategory::kBilling ? 1 : 0;
  }
  EXPECT_GT(billing, 10U);
}

TEST_F(SimulatorTest, NextTicketQueryAgreesWithTicketList) {
  // Cross-check the index against a brute-force scan for a sample of
  // lines.
  for (LineId u = 0; u < data_->n_lines(); u += 97) {
    const util::Day probe = 200;
    std::optional<util::Day> expected;
    for (const auto& t : data_->tickets()) {
      if (t.line == u && t.category == TicketCategory::kCustomerEdge &&
          t.reported > probe) {
        expected = expected.has_value() ? std::min(*expected, t.reported)
                                        : t.reported;
      }
    }
    EXPECT_EQ(data_->next_edge_ticket_after(u, probe), expected) << u;
  }
}

TEST_F(SimulatorTest, LastTicketQueryAgrees) {
  for (LineId u = 0; u < data_->n_lines(); u += 131) {
    const util::Day probe = 250;
    std::optional<util::Day> expected;
    for (const auto& t : data_->tickets()) {
      if (t.line == u && t.category == TicketCategory::kCustomerEdge &&
          t.reported <= probe) {
        expected = expected.has_value() ? std::max(*expected, t.reported)
                                        : t.reported;
      }
    }
    EXPECT_EQ(data_->last_edge_ticket_at_or_before(u, probe), expected) << u;
  }
}

TEST_F(SimulatorTest, EpisodesHaveValidSpans) {
  for (const auto& e : data_->episodes()) {
    EXPECT_LT(e.line, data_->n_lines());
    EXPECT_LT(e.onset, e.cleared);
    EXPECT_GE(e.severity, 0.15F);
    EXPECT_LE(e.severity, 2.5F);
    EXPECT_LT(e.disposition, data_->catalog().size());
  }
}

TEST_F(SimulatorTest, ReportedEpisodesClearAtResolution) {
  std::size_t checked = 0;
  for (const auto& e : data_->episodes()) {
    if (e.first_ticket == kNoTicket) continue;
    const auto& t = data_->tickets().at(static_cast<std::size_t>(e.first_ticket));
    EXPECT_EQ(t.line, e.line);
    EXPECT_GE(t.reported, e.onset);
    ++checked;
  }
  EXPECT_GT(checked, 50U);
}

TEST_F(SimulatorTest, EpisodeActivityBounds) {
  const auto& catalog = data_->catalog();
  for (std::size_t i = 0; i < data_->episodes().size(); i += 13) {
    const auto& e = data_->episodes()[i];
    const auto& sig = catalog.signature(e.disposition);
    EXPECT_EQ(episode_activity(sig, e, e.onset - 1), 0.0);
    EXPECT_EQ(episode_activity(sig, e, e.cleared), 0.0);
    for (util::Day d = e.onset; d < std::min(e.cleared, e.onset + 30); d += 3) {
      const double a = episode_activity(sig, e, d);
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0);
    }
  }
}

TEST_F(SimulatorTest, DegradingActivityIsMonotone) {
  const auto& catalog = data_->catalog();
  for (const auto& e : data_->episodes()) {
    const auto& sig = catalog.signature(e.disposition);
    if (sig.dynamics != FaultDynamics::kDegrading) continue;
    double prev = 0.0;
    for (util::Day d = e.onset; d < std::min(e.cleared, e.onset + 40); ++d) {
      const double a = episode_activity(sig, e, d);
      EXPECT_GE(a, prev - 1e-12);
      prev = a;
    }
  }
}

TEST_F(SimulatorTest, MeasurementsCoverAllLinesAllWeeks) {
  for (int w = 0; w < data_->n_weeks(); w += 7) {
    std::size_t present = 0;
    for (LineId u = 0; u < data_->n_lines(); ++u) {
      const auto& m = data_->measurement(w, u);
      if (record_present(m)) {
        ++present;
        EXPECT_FALSE(ml::is_missing(m[1]));
      }
    }
    // Most modems answer the Saturday test.
    EXPECT_GT(present, data_->n_lines() * 8 / 10);
  }
}

TEST_F(SimulatorTest, TicketArrivalsPeakEarlyWeekBottomWeekend) {
  std::map<util::Weekday, std::size_t> by_day;
  for (const auto& t : data_->tickets()) {
    if (t.category == TicketCategory::kCustomerEdge) {
      ++by_day[util::weekday_of(t.reported)];
    }
  }
  EXPECT_GT(by_day[util::Weekday::kMonday], by_day[util::Weekday::kSaturday]);
  EXPECT_GT(by_day[util::Weekday::kMonday], by_day[util::Weekday::kSunday]);
}

TEST_F(SimulatorTest, ByteFeedCoversExactlyTwoBras) {
  std::size_t covered = 0;
  for (LineId u = 0; u < data_->n_lines(); ++u) {
    const bool in_feed = data_->in_byte_feed(u);
    const bool should =
        data_->topology().bras_of_line(u) < data_->config().byte_feed_bras;
    EXPECT_EQ(in_feed, should) << u;
    covered += in_feed ? 1 : 0;
  }
  EXPECT_GT(covered, 0U);
  EXPECT_LT(covered, data_->n_lines());
}

TEST_F(SimulatorTest, ByteFeedZeroDuringVacation) {
  std::size_t checked = 0;
  for (LineId u = 0; u < data_->n_lines() && checked < 20; ++u) {
    if (!data_->in_byte_feed(u)) continue;
    for (const auto& [start, end] : data_->customer(u).vacations) {
      if (start >= 0 && start < 300) {
        const auto mb = data_->bytes_on_day(u, start);
        ASSERT_TRUE(mb.has_value());
        EXPECT_EQ(*mb, 0.0);
        ++checked;
        break;
      }
    }
  }
  EXPECT_GT(checked, 0U);
}

TEST_F(SimulatorTest, OutageWindowsWellFormed) {
  for (const auto& o : data_->outages()) {
    EXPECT_LT(o.dslam, data_->topology().n_dslams());
    EXPECT_LE(o.precursor_start, o.outage_start);
    EXPECT_LT(o.outage_start, o.outage_end);
  }
}

TEST_F(SimulatorTest, OutageQueryMatchesEvents) {
  const auto& o = data_->outages().front();
  EXPECT_TRUE(data_->dslam_outage_within(o.dslam, o.outage_start,
                                         o.outage_start));
  EXPECT_FALSE(
      data_->dslam_outage_within(o.dslam, o.outage_end + 500, o.outage_end + 501));
}

TEST_F(SimulatorTest, FaultActiveMatchesEpisodes) {
  const auto& e = data_->episodes().front();
  EXPECT_TRUE(data_->fault_active(e.line, e.onset));
  EXPECT_FALSE(data_->fault_active(e.line, e.onset - 1) &&
               !data_->fault_active(e.line, e.onset - 1));  // no crash
}

TEST(Simulator, DeterministicAcrossRuns) {
  const SimDataset a = Simulator(small_config(7)).run();
  const SimDataset b = Simulator(small_config(7)).run();
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  for (std::size_t i = 0; i < a.tickets().size(); i += 11) {
    EXPECT_EQ(a.tickets()[i].line, b.tickets()[i].line);
    EXPECT_EQ(a.tickets()[i].reported, b.tickets()[i].reported);
  }
  for (int w = 0; w < a.n_weeks(); w += 13) {
    for (LineId u = 0; u < a.n_lines(); u += 101) {
      const auto& ma = a.measurement(w, u);
      const auto& mb = b.measurement(w, u);
      for (std::size_t j = 0; j < kNumLineMetrics; ++j) {
        if (ml::is_missing(ma[j])) {
          EXPECT_TRUE(ml::is_missing(mb[j]));
        } else {
          EXPECT_EQ(ma[j], mb[j]);
        }
      }
    }
  }
}

TEST(Simulator, DifferentSeedsDiffer) {
  const SimDataset a = Simulator(small_config(1)).run();
  const SimDataset b = Simulator(small_config(2)).run();
  EXPECT_NE(a.tickets().size(), b.tickets().size());
}

TEST(Simulator, TicketVolumeScalesWithFaultRate) {
  SimConfig lo = small_config(5);
  lo.weekly_fault_rate = 0.003;
  SimConfig hi = small_config(5);
  hi.weekly_fault_rate = 0.012;
  const auto tickets_lo = Simulator(lo).run().tickets().size();
  const auto tickets_hi = Simulator(hi).run().tickets().size();
  EXPECT_GT(tickets_hi, tickets_lo * 2);
}

TEST(Simulator, SuppressionReducesTicketsDuringOutages) {
  // With aggressive outages and full suppression, fewer tickets than
  // with no suppression under the same fault process.
  SimConfig with = small_config(9);
  with.outage_rate_per_dslam_year = 4.0;
  with.outage_suppression = 1.0;
  SimConfig without = with;
  without.outage_suppression = 0.0;
  std::size_t edge_with = 0;
  std::size_t edge_without = 0;
  // Named: a range-for over run().tickets() would outlive the dataset.
  const SimDataset data_with = Simulator(with).run();
  const SimDataset data_without = Simulator(without).run();
  for (const auto& t : data_with.tickets()) {
    edge_with += t.category == TicketCategory::kCustomerEdge ? 1 : 0;
  }
  for (const auto& t : data_without.tickets()) {
    edge_without += t.category == TicketCategory::kCustomerEdge ? 1 : 0;
  }
  EXPECT_LT(edge_with, edge_without);
}

}  // namespace
}  // namespace nevermind::dslsim
