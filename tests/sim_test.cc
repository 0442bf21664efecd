#include <gtest/gtest.h>

#include "sim/des.h"

namespace mtcache {
namespace sim {
namespace {

TEST(DesTest, EventsFireInTimeOrder) {
  Des des;
  std::vector<int> fired;
  des.Schedule(2.0, [&] { fired.push_back(2); });
  des.Schedule(1.0, [&] { fired.push_back(1); });
  des.Schedule(3.0, [&] { fired.push_back(3); });
  des.RunUntil(10.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(des.now(), 10.0);
}

TEST(DesTest, EqualTimesFireInScheduleOrder) {
  Des des;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    des.Schedule(1.0, [&, i] { fired.push_back(i); });
  }
  des.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DesTest, RunUntilLeavesLaterEventsQueued) {
  Des des;
  int fired = 0;
  des.Schedule(5.0, [&] { ++fired; });
  des.RunUntil(4.0);
  EXPECT_EQ(fired, 0);
  des.RunUntil(6.0);
  EXPECT_EQ(fired, 1);
}

TEST(MachineTest, SingleCpuServesFifo) {
  Des des;
  Machine m(&des, "m", 1, 100.0);  // 100 units/sec
  std::vector<double> completions;
  m.Submit(100, [&] { completions.push_back(des.now()); });  // 1s
  m.Submit(200, [&] { completions.push_back(des.now()); });  // 2s more
  des.RunUntil(100);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 3.0);
  EXPECT_DOUBLE_EQ(m.busy_cpu_seconds(), 3.0);
}

TEST(MachineTest, TwoCpusRunInParallel) {
  Des des;
  Machine m(&des, "m", 2, 100.0);
  std::vector<double> completions;
  m.Submit(100, [&] { completions.push_back(des.now()); });
  m.Submit(100, [&] { completions.push_back(des.now()); });
  m.Submit(100, [&] { completions.push_back(des.now()); });
  des.RunUntil(100);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.0);
  EXPECT_DOUBLE_EQ(completions[2], 2.0);
}

TEST(MachineTest, UtilizationReflectsLoad) {
  Des des;
  Machine m(&des, "m", 1, 100.0);
  m.Submit(500, nullptr);  // 5 seconds of work
  des.RunUntil(10.0);
  EXPECT_NEAR(m.Utilization(10.0), 0.5, 1e-9);
}

}  // namespace
}  // namespace sim
}  // namespace mtcache
