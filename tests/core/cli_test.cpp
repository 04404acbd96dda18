#include "core/cli.hpp"

#include <gtest/gtest.h>

namespace xmp::cli {
namespace {

TEST(CliArgs, ReadFlagsPassTheCheck) {
  const Args args{{"--k=4", "--invariants", "--trace="}};
  bool ok = true;
  EXPECT_EQ(flag_i(args, "k", 8, 2, 64, ok), 4);
  EXPECT_TRUE(args.has("invariants"));
  EXPECT_EQ(args.get("trace", "x"), "");  // present but empty
  EXPECT_EQ(args.get("seed", "1"), "1");  // absent: nothing to report
  EXPECT_TRUE(ok);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(args.finish());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(CliArgs, UnreadArgumentsAreReported) {
  const Args args{{"--k=4", "--rounds=4", "--hybrid=1", "extra"}};
  (void)args.get("k", "");
  (void)args.has("hybrid");  // the bare form does not read `--hybrid=1`
  testing::internal::CaptureStderr();
  EXPECT_FALSE(args.finish("[--rounds=2] [--hybrid]"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "xmpsim: --rounds=4 has no effect on this run\n"
            "xmpsim: --hybrid=1 has no effect on this run\n"
            "xmpsim: unexpected argument 'extra'\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(Args{{"--round=4"}}.finish("[--rounds=2]"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "xmpsim: unknown flag --round=4\n");
}

TEST(CliArgs, FirstMatchWinsOnAMergedArgv) {
  // A resumed campaign: today's flags first, the stored argv behind them.
  Args args{{"--retries=5"}};
  args.append({"--retries=1", "--seed=3"});
  bool ok = true;
  EXPECT_EQ(flag_i(args, "retries", 2, 0, 100, ok), 5);
  EXPECT_EQ(flag_i(args, "seed", 1, 0, 100, ok), 3);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(args.finish());  // the shadowed --retries=1 counts as read
}

TEST(CliArgs, BadValuesNameTheFlag) {
  const Args args{{"--k=abc", "--beta=0", "--values=1,x"}};
  bool ok = true;
  testing::internal::CaptureStderr();
  EXPECT_EQ(flag_k(args, 8, ok), 8);
  EXPECT_EQ(flag_d(args, "beta", 4, 1, 1000, ok), 4);
  EXPECT_TRUE(flag_list(args, "values", ok).empty());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "xmpsim: bad --k=abc (expected an integer in [2, 64])\n"
            "xmpsim: bad --beta=0 (expected a number in [1, 1000])\n"
            "xmpsim: bad --values entry 'x' (expected a number)\n");
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace xmp::cli
