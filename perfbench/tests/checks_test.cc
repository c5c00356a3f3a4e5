// Every output check of the benchmark must reject a deliberately wrong
// input: one perturbed float, an interval that excludes its value, a
// missing version, and so on. Each test first shows the check passing on
// the right input, so a check that rejects everything fails here too.

#include <gtest/gtest.h>

#include "checks.h"
#include "common/random.h"
#include "corpus.h"

namespace perfbench {
namespace {

using modelhub::FloatMatrix;
using modelhub::IntervalMatrix;
using modelhub::NamedParam;

std::vector<NamedParam> SomeParams() {
  modelhub::Rng rng(3);
  std::vector<NamedParam> params = {{"fc.W", FloatMatrix(8, 16)},
                                    {"fc.b", FloatMatrix(8, 1)}};
  for (NamedParam& p : params) p.value.FillGaussian(&rng, 0.3f);
  return params;
}

/// Intervals of the given half-width around every value.
std::map<std::string, IntervalMatrix> Around(
    const std::vector<NamedParam>& params, float half_width) {
  std::map<std::string, IntervalMatrix> out;
  for (const NamedParam& p : params) {
    FloatMatrix lo = p.value, hi = p.value;
    for (float& v : lo.data()) v -= half_width;
    for (float& v : hi.data()) v += half_width;
    out[p.name] = *IntervalMatrix::FromBounds(lo, hi);
  }
  return out;
}

TEST(RoundingToleranceTest, GrowsWithChainLengthAndMagnitude) {
  const std::vector<NamedParam> params = SomeParams();
  const RoundingTolerance tol(params);
  EXPECT_GT(tol.For(8, 16), 0.0);
  EXPECT_LT(tol.For(8, 16), 1e-5);
  EXPECT_EQ(tol.For(3, 3), 0.0);  // Unknown shape: exact.
  std::vector<NamedParam> twice = params;
  twice.insert(twice.end(), params.begin(), params.end());
  EXPECT_DOUBLE_EQ(RoundingTolerance(twice).For(8, 16), 2 * tol.For(8, 16));
}

TEST(CheckExactTest, RejectsOnePerturbedFloat) {
  const std::vector<NamedParam> want = SomeParams();
  const RoundingTolerance tol(want);
  EXPECT_EQ(CheckExact(want, want, tol), "");
  std::vector<NamedParam> got = want;
  // Within the rounding tolerance: still exact enough.
  got[0].value.data()[5] += static_cast<float>(tol.For(8, 16) / 4);
  EXPECT_EQ(CheckExact(got, want, tol), "");
  got[0].value.data()[5] += 1e-4f;
  EXPECT_NE(CheckExact(got, want, tol), "");
}

TEST(CheckExactTest, RejectsNanRenamesShapesAndMissingParams) {
  const std::vector<NamedParam> want = SomeParams();
  const RoundingTolerance tol(want);
  std::vector<NamedParam> got = want;
  got[1].value.data()[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(CheckExact(got, want, tol), "");
  got = want;
  got[1].name = "fc.bias";
  EXPECT_NE(CheckExact(got, want, tol), "");
  got = want;
  got[1].value = FloatMatrix(1, 8);
  EXPECT_NE(CheckExact(got, want, tol), "");
  got = want;
  got.pop_back();
  EXPECT_NE(CheckExact(got, want, tol), "");
}

TEST(CheckBoundsTest, RejectsAnIntervalThatExcludesItsValue) {
  const std::vector<NamedParam> want = SomeParams();
  const RoundingTolerance tol(want);
  const auto one = Around(want, 0.1f);
  auto two = Around(want, 0.01f);
  EXPECT_EQ(CheckBounds(one, two, want, tol), "");
  // Shift one 2-plane interval off its value (still nested in 1 plane).
  FloatMatrix lo = two["fc.W"].lo(), hi = two["fc.W"].hi();
  lo.data()[7] += 0.05f;
  hi.data()[7] += 0.05f;
  two["fc.W"] = *IntervalMatrix::FromBounds(lo, hi);
  EXPECT_NE(CheckBounds(one, two, want, tol), "");
}

TEST(CheckBoundsTest, RejectsAWiderSecondPlaneAndMissingParams) {
  const std::vector<NamedParam> want = SomeParams();
  const RoundingTolerance tol(want);
  EXPECT_NE(CheckBounds(Around(want, 0.01f), Around(want, 0.1f), want, tol),
            "");
  auto two = Around(want, 0.01f);
  two.erase("fc.b");
  EXPECT_NE(CheckBounds(Around(want, 0.1f), two, want, tol), "");
}

TEST(CheckBoundsReplyTest, RejectsWrongNamesShapesAndHeaders) {
  const std::vector<NamedParam> want = SomeParams();
  const std::string good =
      "snapshot m/s0 planes=2\n"
      "fc.W 8x16 max_width=0.01 mean_width=0.005\n"
      "fc.b 8x1 max_width=0.002 mean_width=0.001\n";
  EXPECT_EQ(CheckBoundsReply(good, "m/s0", 2, want), "");
  EXPECT_NE(CheckBoundsReply(good, "m/s1", 2, want), "");
  EXPECT_NE(CheckBoundsReply(good, "m/s0", 1, want), "");
  EXPECT_NE(CheckBoundsReply("snapshot m/s0 planes=2\n"
                             "fc.W 8x16 max_width=0.01 mean_width=0.005\n",
                             "m/s0", 2, want),
            "");
  EXPECT_NE(CheckBoundsReply("snapshot m/s0 planes=2\n"
                             "fc.W 16x8 max_width=0.01 mean_width=0.005\n"
                             "fc.b 8x1 max_width=0.002 mean_width=0.001\n",
                             "m/s0", 2, want),
            "");
  EXPECT_NE(CheckBoundsReply("snapshot m/s0 planes=2\n"
                             "fc.W 8x16 max_width=nan mean_width=0.005\n"
                             "fc.b 8x1 max_width=0.002 mean_width=0.001\n",
                             "m/s0", 2, want),
            "");
}

TEST(CheckSelectTest, RejectsAMissingOrExtraVersion) {
  EXPECT_EQ(CheckSelect({"b", "a"}, {"a", "b"}), "");
  EXPECT_NE(CheckSelect({"a"}, {"a", "b"}), "");
  EXPECT_NE(CheckSelect({"a", "b", "c"}, {"a", "b"}), "");
  EXPECT_EQ(CheckSelectReply("2 model version(s):\n  a\n  b\n", {"a", "b"}),
            "");
  EXPECT_NE(CheckSelectReply("1 model version(s):\n  a\n", {"a", "b"}), "");
  EXPECT_NE(CheckSelectReply("3 model version(s):\n  a\n  b\n", {"a", "b"}),
            "");
  const std::string block = "2 model version(s):\n  a\n  b\n";
  const std::string routed = "-- shard0 --\n" + block + "-- shard1 --\n" + block;
  EXPECT_EQ(CheckSelectReply(routed, {"a", "b"}, 2), "");
  EXPECT_NE(CheckSelectReply(routed, {"a", "b"}, 1), "");
  EXPECT_NE(CheckSelectReply("-- shard0 --\n" + block, {"a", "b"}, 2), "");
  EXPECT_NE(CheckSelectReply("-- shard0 --\n" + block + "-- shard1 --\n" +
                                 "1 model version(s):\n  a\n",
                             {"a", "b"}, 2),
            "");
}

TEST(CheckListReplyTest, RejectsAMissingVersionOrWrongCounts) {
  const Corpus corpus = MakeCorpus(1);
  std::string good;
  for (const CorpusVersion& v : corpus.versions) {
    good += v.name + " " + (v.parent.empty() ? "-" : v.parent) + " " +
            std::to_string(v.snapshots.size()) + " 0.800 archived\n";
  }
  EXPECT_EQ(CheckListReply(good, corpus), "");
  const std::string missing = good.substr(good.find('\n') + 1);
  EXPECT_NE(CheckListReply(missing, corpus), "");
  std::string staged = good;
  staged.replace(staged.find("archived"), 8, "staged");
  EXPECT_NE(CheckListReply(staged, corpus), "");
  std::string recount = good;
  recount.replace(recount.find(" 4 "), 3, " 5 ");
  EXPECT_NE(CheckListReply(recount, corpus), "");
}

TEST(CheckDiskCoversLiveTest, RejectsFewerDiskBytesThanLive) {
  EXPECT_EQ(CheckDiskCoversLive(100, 100), "");
  EXPECT_NE(CheckDiskCoversLive(99, 100), "");
}

TEST(CheckFsckCleanTest, RejectsAnyDefect) {
  modelhub::FsckReport report;
  report.notes.push_back("checked");
  EXPECT_EQ(CheckFsckClean(report), "");
  report.defects.push_back("chunk checksum mismatch");
  EXPECT_NE(CheckFsckClean(report), "");
}

TEST(DqlCasesTest, ExpectedSetsComeFromTheCorpus) {
  const Corpus corpus = MakeCorpus(7);
  const std::vector<DqlCase> cases = MakeDqlCases(corpus);
  ASSERT_EQ(cases.size(), 3u);
  EXPECT_EQ(cases[0].expected.size(), 4u);  // vgg_{a,b,ft1,ft2}.
  for (const DqlCase& c : cases) EXPECT_FALSE(c.expected.empty());
}

TEST(CorpusTest, SameSeedSameInputs) {
  const Corpus a = MakeCorpus(5), b = MakeCorpus(5), c = MakeCorpus(6);
  ASSERT_EQ(a.SnapshotKeys(), b.SnapshotKeys());
  const std::string key = a.SnapshotKeys().back();
  EXPECT_TRUE((*a.Find(key))[0].value.BitEquals((*b.Find(key))[0].value));
  EXPECT_FALSE((*a.Find(key))[0].value.BitEquals((*c.Find(key))[0].value));
}

}  // namespace
}  // namespace perfbench
