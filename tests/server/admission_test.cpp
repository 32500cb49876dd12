// Unit tests for the service layer's two schedulers: the AdmissionQueue
// (bounded, weighted-fair submission queue with per-tenant caps) and the
// FairScheduler (cross-job round-level weighted stride scheduling).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/admission.h"
#include "server/job.h"
#include "server/scheduler.h"

namespace sqloop::server {
namespace {

std::shared_ptr<JobRecord> MakeJob(const std::string& tenant, uint64_t seq) {
  auto job = std::make_shared<JobRecord>();
  job->tenant = tenant;
  job->seq = seq;
  return job;
}

TEST(AdmissionQueue, ServesLanesByWeightedStride) {
  AdmissionQueue queue(/*queue_capacity=*/16, /*max_inflight_per_tenant=*/16,
                       /*retry_after_ms=*/10);
  // Tenant a (weight 1) and tenant b (weight 3) each queue three jobs.
  for (uint64_t i = 0; i < 3; ++i) queue.Push(MakeJob("a", i), 1.0);
  for (uint64_t i = 0; i < 3; ++i) queue.Push(MakeJob("b", 10 + i), 3.0);

  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) order.push_back(queue.Pop()->tenant);
  // Stride order: passes advance by 1/weight, so b is served three times
  // for every a. The first four pops contain one a and three b.
  EXPECT_EQ(std::count(order.begin(), order.begin() + 4, "b"), 3);
  EXPECT_EQ(std::count(order.begin(), order.end(), "a"), 3);
  EXPECT_EQ(std::count(order.begin(), order.end(), "b"), 3);
}

TEST(AdmissionQueue, RejectsWhenQueueIsAtCapacity) {
  AdmissionQueue queue(/*queue_capacity=*/2, /*max_inflight_per_tenant=*/16,
                       /*retry_after_ms=*/25);
  queue.Push(MakeJob("a", 1), 1.0);
  queue.Push(MakeJob("a", 2), 1.0);
  try {
    queue.Push(MakeJob("a", 3), 1.0);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.retry_after_ms(), 25);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  EXPECT_EQ(queue.queued(), 2u);
}

TEST(AdmissionQueue, CapsInflightPerTenantUntilRelease) {
  AdmissionQueue queue(/*queue_capacity=*/16, /*max_inflight_per_tenant=*/2,
                       /*retry_after_ms=*/10);
  queue.Push(MakeJob("a", 1), 1.0);
  queue.Push(MakeJob("a", 2), 1.0);
  // In-flight counts queued + running: popping does not free the slot.
  EXPECT_NE(queue.Pop(), nullptr);
  EXPECT_EQ(queue.inflight("a"), 2u);
  EXPECT_THROW(queue.Push(MakeJob("a", 3), 1.0), AdmissionError);
  // Another tenant has its own lane and cap.
  queue.Push(MakeJob("b", 4), 1.0);

  queue.Release("a");  // the popped job reached a terminal state
  EXPECT_EQ(queue.inflight("a"), 1u);
  queue.Push(MakeJob("a", 5), 1.0);
}

TEST(AdmissionQueue, CloseDrainsBacklogThenSignalsShutdown) {
  AdmissionQueue queue(/*queue_capacity=*/16, /*max_inflight_per_tenant=*/16,
                       /*retry_after_ms=*/10);
  queue.Push(MakeJob("a", 1), 1.0);
  queue.Push(MakeJob("a", 2), 1.0);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  // Draining: the backlog still comes out, new pushes are rejected.
  EXPECT_THROW(queue.Push(MakeJob("a", 3), 1.0), AdmissionError);
  EXPECT_NE(queue.Pop(), nullptr);
  EXPECT_NE(queue.Pop(), nullptr);
  // Drained: nullptr tells the dispatcher to exit.
  EXPECT_EQ(queue.Pop(), nullptr);
}

TEST(AdmissionQueue, EraseRemovesQueuedJobAndFreesSlot) {
  AdmissionQueue queue(/*queue_capacity=*/16, /*max_inflight_per_tenant=*/16,
                       /*retry_after_ms=*/10);
  auto job = MakeJob("a", 1);
  queue.Push(job, 1.0);
  EXPECT_EQ(queue.inflight("a"), 1u);
  EXPECT_TRUE(queue.Erase(job.get()));
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_EQ(queue.inflight("a"), 0u);
  // Already gone (or popped): Erase reports it found nothing.
  EXPECT_FALSE(queue.Erase(job.get()));
}

TEST(AdmissionQueue, PopBlocksUntilWorkArrives) {
  AdmissionQueue queue(/*queue_capacity=*/16, /*max_inflight_per_tenant=*/16,
                       /*retry_after_ms=*/10);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    auto job = queue.Pop();
    EXPECT_NE(job, nullptr);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(popped.load());
  queue.Push(MakeJob("a", 1), 1.0);
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(FairScheduler, UnlimitedModeNeverBlocksButKeepsAccounting) {
  FairScheduler scheduler(/*max_active_rounds=*/0);
  std::atomic<bool> cancelled{false};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(scheduler.BeginRound("a", cancelled));
    scheduler.EndRound("a");
  }
  EXPECT_EQ(scheduler.granted("a"), 5u);
}

TEST(FairScheduler, CancelledRoundRequestReturnsFalseWithoutASlot) {
  FairScheduler scheduler(/*max_active_rounds=*/1);
  std::atomic<bool> running{false};
  std::atomic<bool> cancelled{true};
  // Hold the only slot so the cancelled request would otherwise block.
  EXPECT_TRUE(scheduler.BeginRound("a", running));
  EXPECT_FALSE(scheduler.BeginRound("b", cancelled));
  EXPECT_EQ(scheduler.granted("b"), 0u);
  scheduler.EndRound("a");
  // The slot is free again for anyone.
  EXPECT_TRUE(scheduler.BeginRound("b", running));
  scheduler.EndRound("b");
}

TEST(FairScheduler, GrantsRoundsProportionalToWeight) {
  FairScheduler scheduler(/*max_active_rounds=*/1);
  scheduler.SetWeight("light", 1.0);
  scheduler.SetWeight("heavy", 3.0);
  // Both tenants drive rounds until the sampler has seen enough — neither
  // can finish early and skew the ratio by running uncontended. Each
  // holds the Enter/Leave liveness claim for the whole drive, exactly as
  // a running job's gate does — without it the idle floor re-fires
  // between rounds and the stride collapses toward round-robin.
  std::atomic<bool> stop{false};
  auto drive = [&](const std::string& tenant) {
    scheduler.Enter(tenant);
    while (!stop.load()) {
      if (!scheduler.BeginRound(tenant, stop)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      scheduler.EndRound(tenant);
    }
    scheduler.Leave(tenant);
  };
  std::thread light([&] { drive("light"); });
  std::thread heavy([&] { drive("heavy"); });

  // Sample only while both tenants are contending: in steady state the
  // stride scheduler grants heavy three rounds for every light one. Grants
  // from before the second thread arrived ran uncontended, so the window
  // opens once each tenant holds a grant and the ratio uses deltas.
  uint64_t l0 = 0;
  uint64_t h0 = 0;
  int i = 0;
  for (; i < 20000; ++i) {
    l0 = scheduler.granted("light");
    h0 = scheduler.granted("heavy");
    if (l0 >= 1 && h0 >= 1) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  uint64_t l = 0;
  uint64_t h = 0;
  for (; i < 20000; ++i) {
    l = scheduler.granted("light") - l0;
    h = scheduler.granted("heavy") - h0;
    if (l + h >= 40 && l >= 4) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  scheduler.Poke();
  light.join();
  heavy.join();
  ASSERT_GE(l, 4u);
  const double ratio = static_cast<double>(h) / static_cast<double>(l);
  EXPECT_GE(ratio, 1.8) << "heavy=" << h << " light=" << l;
  EXPECT_LE(ratio, 4.6) << "heavy=" << h << " light=" << l;
}

}  // namespace
}  // namespace sqloop::server
