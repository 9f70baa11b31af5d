// Semantics of the zz/common/check.h contract library with ZZ_DCHECK
// contracts compiled IN (this TU is built with ZZ_ENABLE_DCHECKS=1 — see
// tests/CMakeLists.txt; the compiled-out half lives in
// check_release_test.cpp, built into the same binary without the define).
#include "zz/common/check.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "zz/common/reentry.h"

#ifndef ZZ_ENABLE_DCHECKS
#error "check_test.cpp must be compiled with ZZ_ENABLE_DCHECKS=1"
#endif

namespace {

using zz::EntryCounter;
using zz::ReentryFlag;
using zz::ReentryScope;

int g_evals = 0;
int counted(int v) {
  ++g_evals;
  return v;
}

TEST(Check, PassingCheckIsSilent) {
  ZZ_CHECK(1 + 1 == 2);
  ZZ_CHECK(true) << "never rendered";
  SUCCEED();
}

TEST(Check, PassingCheckDoesNotEvaluateMessage) {
  g_evals = 0;
  ZZ_CHECK(true) << "count=" << counted(7);
  EXPECT_EQ(g_evals, 0) << "message operands must be lazy";
}

TEST(Check, ComparisonOperandsEvaluateExactlyOnce) {
  g_evals = 0;
  ZZ_CHECK_EQ(counted(3), 3);
  EXPECT_EQ(g_evals, 1);
  g_evals = 0;
  ZZ_CHECK_LT(counted(1), counted(2));
  EXPECT_EQ(g_evals, 2);
}

TEST(Check, AllComparisonFormsPass) {
  ZZ_CHECK_EQ(4, 4);
  ZZ_CHECK_NE(4, 5);
  ZZ_CHECK_LT(4, 5);
  ZZ_CHECK_LE(5, 5);
  ZZ_CHECK_GT(5, 4);
  ZZ_CHECK_GE(5, 5);
}

TEST(Check, BindsAsOneStatementInUnbracedIfElse) {
  // Compile-shape contract: the macros must not swallow or steal an else.
  if (g_evals >= 0)
    ZZ_CHECK(true) << "then-branch";
  else
    ZZ_CHECK(true) << "else-branch";
  SUCCEED();
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, FailureReportsFileLineAndExpression) {
  EXPECT_DEATH(ZZ_CHECK(1 == 2),
               "check_test\\.cpp:[0-9]+: ZZ_CHECK\\(1 == 2\\) failed");
}

TEST(CheckDeathTest, FailureAppendsStreamedMessage) {
  EXPECT_DEATH(ZZ_CHECK(false) << "seed=" << 42 << " stage=" << "peel",
               "ZZ_CHECK\\(false\\) failed.*seed=42 stage=peel");
}

TEST(CheckDeathTest, ComparisonFailurePrintsBothOperands) {
  const int got = 3, want = 4;
  EXPECT_DEATH(ZZ_CHECK_EQ(got, want),
               "ZZ_CHECK_EQ\\(got, want\\) failed \\(3 vs\\. 4\\)");
}

TEST(CheckDeathTest, ComparisonFailureTakesTrailingMessage) {
  EXPECT_DEATH(ZZ_CHECK_LT(9, 2) << " while scheduling chunk " << 5,
               "ZZ_CHECK_LT\\(9, 2\\) failed \\(9 vs\\. 2\\).*chunk 5");
}

TEST(CheckDeathTest, StringOperandsRender) {
  const std::string a = "fwd", b = "bwd";
  EXPECT_DEATH(ZZ_CHECK_EQ(a, b), "failed \\(fwd vs\\. bwd\\)");
}

TEST(CheckDeathTest, DchecksAreFatalWhenCompiledIn) {
  EXPECT_DEATH(ZZ_DCHECK(false) << "dcheck on", "dcheck on");
  EXPECT_DEATH(ZZ_DCHECK_GE(1, 2), "ZZ_DCHECK_GE|ZZ_CHECK_GE");
}

// ReentryFlag / ReentryScope back the non-reentrancy contracts of the
// stateful receivers (StandardReceiver::decode, StreamingReceiver::push).
// This TU compiles with ZZ_ENABLE_DCHECKS forced on, so the scope is armed.

TEST(Reentry, FlagTracksEnterAndLeave) {
  ReentryFlag flag;
  EXPECT_FALSE(flag.busy());
  EXPECT_TRUE(flag.try_enter());
  EXPECT_TRUE(flag.busy());
  EXPECT_FALSE(flag.try_enter());  // second entry refused while held
  flag.leave();
  EXPECT_FALSE(flag.busy());
  EXPECT_TRUE(flag.try_enter());  // reusable after leave
  flag.leave();
}

TEST(AtomicFlag, SecondAcquireFailsUntilRelease) {
  // The one-owner flag refuses a second holder from another thread, not
  // only a recursive entry, and admits the next holder once released.
  ReentryFlag flag;
  ASSERT_TRUE(flag.try_enter());
  bool other = true;
  std::thread([&] { other = flag.try_enter(); }).join();
  EXPECT_FALSE(other);
  EXPECT_TRUE(flag.busy());  // the refused attempt left the hold intact
  flag.leave();
  std::thread([&] {
    other = flag.try_enter();
    if (other) flag.leave();
  }).join();
  EXPECT_TRUE(other);
  EXPECT_FALSE(flag.busy());
}

TEST(EntryCounter, ReportsPriorOccupancy) {
  EntryCounter c;
  EXPECT_EQ(c.enter(), 0);  // sole owner
  EXPECT_EQ(c.enter(), 1);  // overlap detected
  EXPECT_EQ(c.exit(), 2);
  EXPECT_EQ(c.exit(), 1);  // we were sole owner again
  EXPECT_EQ(c.enter(), 0);  // a later entry is sole owner once more
  EXPECT_EQ(c.exit(), 1);
}

TEST(Reentry, ContendedFlagAdmitsOneHolderAtATime) {
  // Winners bump a plain int between try_enter and leave. The flag's
  // acquire enter and release leave are the only ordering between two
  // winners, so a weaker order is a data race on the TSan leg; a second
  // holder at once would lose an update here.
  ReentryFlag flag;
  int inside = 0;
  constexpr int kThreads = 4;
  constexpr int kTries = 5000;
  std::vector<int> wins(kThreads, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int i = 0; i < kTries; ++i) {
        if (!flag.try_enter()) continue;
        ++inside;
        ++wins[t];
        flag.leave();
      }
    });
  for (auto& th : ts) th.join();
  int total = 0;
  for (const int w : wins) total += w;
  EXPECT_GE(total, 1);
  EXPECT_EQ(inside, total);
  EXPECT_FALSE(flag.busy());
}

TEST(Reentry, ScopeReleasesOnExit) {
  ReentryFlag flag;
  {
    const ReentryScope scope(flag, "guarded call");
    EXPECT_TRUE(flag.busy());
  }
  EXPECT_FALSE(flag.busy());
  {
    const ReentryScope again(flag, "guarded call");  // sequential calls fine
    EXPECT_TRUE(flag.busy());
  }
}

TEST(CheckDeathTest, ReentryScopeIsFatalOnNestedEntry) {
  ReentryFlag flag;
  const ReentryScope outer(flag, "Receiver::decode");
  EXPECT_DEATH(ReentryScope inner(flag, "Receiver::decode"),
               "Receiver::decode re-entered");
}

}  // namespace
