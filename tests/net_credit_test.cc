// Credit-ledger tests: the target computation's clamps (liveness floor of
// 1, max-window cap) and the ledger's invariants —
// monotone cumulative grants, overdraw detection, and refills that top up
// toward a shrinking or growing target without ever retracting credit.
// These are the deadlock-freedom and no-unbounded-buffering arguments of
// docs/net_protocol.md in executable form.

#include "net/credit.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace countlib {
namespace net {
namespace {

TEST(NetCreditTest, TargetIsHeadroomCappedByWindow) {
  EXPECT_EQ(ComputeCreditTarget(100, 1000), 100u);
  EXPECT_EQ(ComputeCreditTarget(100, 100), 100u);
  EXPECT_EQ(ComputeCreditTarget(100, 60), 60u);
}

TEST(NetCreditTest, TargetNeverDropsBelowTheLivenessFloor) {
  // Zero headroom must still leave one credit: the client's stall is then
  // always ended by an ack, and that one event waits in the pipeline's
  // blocking submit, not in the transport, until a drain frees space.
  EXPECT_EQ(ComputeCreditTarget(0, 1000), 1u);
  EXPECT_EQ(ComputeCreditTarget(0, 1), 1u);
}

TEST(NetCreditTest, TargetSurvivesHeadroomOverflow) {
  const uint64_t huge = ~uint64_t{0} - 5;
  EXPECT_EQ(ComputeCreditTarget(huge, 4096), 4096u);
}

TEST(NetCreditTest, LedgerTracksConsumptionAndAvailability) {
  CreditLedger ledger(64);
  EXPECT_EQ(ledger.grant_total(), 64u);
  EXPECT_EQ(ledger.available(), 64u);
  EXPECT_TRUE(ledger.Consume(40));
  EXPECT_EQ(ledger.available(), 24u);
  EXPECT_TRUE(ledger.Consume(24));
  EXPECT_EQ(ledger.available(), 0u);
}

TEST(NetCreditTest, OverdrawIsDetected) {
  CreditLedger ledger(10);
  EXPECT_TRUE(ledger.Consume(10));
  // A correct client parks at zero; an eleventh event is a protocol
  // violation the server disconnects on.
  EXPECT_FALSE(ledger.Consume(1));
}

TEST(NetCreditTest, RefillTopsUpToTheTarget) {
  CreditLedger ledger(64);
  ASSERT_TRUE(ledger.Consume(64));
  const uint64_t grant = ledger.Refill(64);
  EXPECT_EQ(grant, 128u);  // consumed 64, available again 64
  EXPECT_EQ(ledger.available(), 64u);
}

TEST(NetCreditTest, GrantsAreMonotoneEvenWhenTheTargetShrinks) {
  CreditLedger ledger(64);
  ASSERT_TRUE(ledger.Consume(16));  // 48 still available
  // Pipeline backed up: target collapses to the floor. The cumulative
  // grant must not move backwards — the client already observed it.
  const uint64_t before = ledger.grant_total();
  const uint64_t after = ledger.Refill(1);
  EXPECT_EQ(after, before);
  EXPECT_EQ(ledger.available(), 48u);
}

TEST(NetCreditTest, RefillAtTheFloorAlwaysEndsAStall) {
  // The deadlock-freedom argument: a client at zero credits gets >= 1
  // back from the very next ack, whatever the headroom.
  CreditLedger ledger(8);
  ASSERT_TRUE(ledger.Consume(8));
  EXPECT_EQ(ledger.available(), 0u);
  ledger.Refill(ComputeCreditTarget(0, 1u << 16));
  EXPECT_GE(ledger.available(), 1u);
}

TEST(NetCreditTest, WindowBoundsOutstandingEvents) {
  // No-unbounded-buffering: however many refill rounds run, available
  // credit never exceeds the max window, so the client can never have
  // more than max_window events the server hasn't consumed.
  CreditLedger ledger(ComputeCreditTarget(4096, 4096));
  for (int round = 0; round < 100; ++round) {
    EXPECT_LE(ledger.available(), 4096u);
    ASSERT_TRUE(ledger.Consume(ledger.available() / 2 + 1));
    ledger.Refill(ComputeCreditTarget(4096, 4096));
  }
  EXPECT_LE(ledger.available(), 4096u);
}

}  // namespace
}  // namespace net
}  // namespace countlib
