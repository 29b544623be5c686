// SumOfSquares and the F2 estimates built on it must return exactly the
// double of a left-to-right `sum += c * c` scan, compared by bit pattern:
// on rows whose exact total sits below, at and above 2^53, on every
// accumulator tail, on the extremes of int64_t, and on whole Count-Sketch
// and AMS tables fed either a Zipf stream (the fast pass) or extreme
// deltas (the sequential fallback).

#include "sketch/sum_of_squares.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "sketch/ams_sketch.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace sketch {
namespace {

constexpr double kTwoPow53 = 9007199254740992.0;
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// The sequential oracle: one double add per counter, left to right.
double OracleSumOfSquares(const std::vector<int64_t>& row) {
  double sum = 0.0;
  for (const int64_t counter : row) {
    const auto c = static_cast<double>(counter);
    sum += c * c;
  }
  return sum;
}

/// Row `j` of a sketch's counter table, read through CounterAt.
template <typename Sketch>
std::vector<int64_t> RowOf(const Sketch& sketch, uint64_t j) {
  std::vector<int64_t> row(sketch.width());
  for (uint64_t b = 0; b < sketch.width(); ++b) row[b] = sketch.CounterAt(j, b);
  return row;
}

/// Upper median over rows of the oracle's row sums.
template <typename Sketch>
double OracleF2(const Sketch& sketch) {
  std::vector<double> rows(sketch.depth());
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    rows[j] = OracleSumOfSquares(RowOf(sketch, j));
  }
  std::nth_element(rows.begin(), rows.begin() + rows.size() / 2, rows.end());
  return rows[rows.size() / 2];
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Non-negative counters whose squares sum exactly to `target`, largest
/// first (greedy integer square roots).
std::vector<int64_t> SquaresSummingTo(uint64_t target) {
  std::vector<int64_t> row;
  while (target > 0) {
    auto root = static_cast<uint64_t>(std::sqrt(static_cast<double>(target)));
    while (root * root > target) --root;
    while ((root + 1) * (root + 1) <= target) ++root;
    row.push_back(static_cast<int64_t>(root));
    target -= root * root;
  }
  return row;
}

std::vector<int64_t> RandomRow(std::size_t width, int64_t magnitude,
                               uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<int64_t> row(width);
  const auto span = static_cast<uint64_t>(2 * magnitude + 1);
  for (int64_t& c : row) {
    c = static_cast<int64_t>(rng.Next() % span) - magnitude;
  }
  return row;
}

struct Row {
  std::string name;
  std::vector<int64_t> counters;
};

std::vector<Row> Rows() {
  std::vector<Row> rows;
  for (const std::size_t width : {1u, 7u, 8u, 9u, 1023u, 1025u, 16384u}) {
    rows.push_back({"random width " + std::to_string(width),
                    RandomRow(width, 1 << 16, width)});
  }
  constexpr uint64_t kPow53 = uint64_t{1} << 53;
  rows.push_back({"total 2^53 - 1", SquaresSummingTo(kPow53 - 1)});
  rows.push_back({"total 2^53", SquaresSummingTo(kPow53)});
  rows.push_back({"total 2^53 + 1", SquaresSummingTo(kPow53 + 1)});
  // 94906265^2 < 2^53 < 94906266^2.
  rows.push_back({"square below 2^53", {94906265}});
  rows.push_back({"square above 2^53", {94906266}});
  rows.push_back({"INT64_MIN", {kMin}});
  rows.push_back({"INT64_MAX", {kMax}});
  // Each 1 added to 2^54 rounds away, but 1s summed first survive: the
  // lane order and the left-to-right order round differently here.
  std::vector<int64_t> ones_then_huge(8, 1);
  ones_then_huge.push_back(int64_t{1} << 27);
  rows.push_back({"ones then 2^27", ones_then_huge});
  constexpr int64_t kBig = int64_t{1} << 40;
  rows.push_back({"mixed signs", {-3, kMin, -kBig, 7, kMax, -1, 0, kBig}});
  rows.push_back({"mixed signs small", {-3, 5, -8, 13, -21, 34, -55, 89}});
  rows.push_back({"all zeros", std::vector<int64_t>(16384, 0)});
  rows.push_back({"empty", {}});
  return rows;
}

TEST(SumOfSquaresTest, BitIdenticalToSequentialScan) {
  for (const Row& row : Rows()) {
    EXPECT_EQ(Bits(SumOfSquares(row.counters)),
              Bits(OracleSumOfSquares(row.counters)))
        << row.name << ": " << SumOfSquares(row.counters) << " vs "
        << OracleSumOfSquares(row.counters);
  }
}

TEST(SumOfSquaresTest, ExactTotalsStraddleTheGate) {
  constexpr uint64_t kPow53 = uint64_t{1} << 53;
  EXPECT_EQ(SumOfSquares(SquaresSummingTo(kPow53 - 1)), kTwoPow53 - 1.0);
  EXPECT_EQ(SumOfSquares(SquaresSummingTo(kPow53)), kTwoPow53);
  // 2^53 + 1 is not a double; the sequential scan rounds it to even.
  EXPECT_EQ(SumOfSquares(SquaresSummingTo(kPow53 + 1)), kTwoPow53);
}

TEST(SumOfSquaresTest, MedianRowSumOfSquaresTakesTheUpperMedian) {
  // Rows with sums 4, 1, 9, 0: the upper median of four is the third
  // smallest.
  const std::vector<int64_t> table = {2, 0, 1, 0, 3, 0, 0, 0};
  EXPECT_EQ(MedianRowSumOfSquares(table, 2), 4.0);
  EXPECT_EQ(MedianRowSumOfSquares(table, 8), 14.0);
}

/// Deltas of 2^40 plus 30 random low bits, either sign, and now and then
/// INT64_MAX: the squares carry low bits, so row sums past 2^53 round
/// differently in different orders.
std::vector<StreamUpdate> ExtremeDeltas(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<StreamUpdate> updates;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t r = rng.Next();
    const auto magnitude =
        static_cast<int64_t>((uint64_t{1} << 40) + (r >> 34));
    int64_t delta = (r & 1) != 0 ? magnitude : -magnitude;
    if (r % 97 == 0) delta = kMax;
    updates.push_back({rng.Next() % 100000, delta});
  }
  return updates;
}

/// Feeds `updates` to a fresh sketch and checks its F2 against the oracle
/// by bit pattern; `fast` says which side of 2^53 every row sum lies on.
template <typename Sketch>
void ExpectF2MatchesOracle(Sketch sketch,
                           const std::vector<StreamUpdate>& updates,
                           bool fast) {
  sketch.UpdateAll(updates);
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    EXPECT_EQ(OracleSumOfSquares(RowOf(sketch, j)) < kTwoPow53, fast)
        << "row " << j;
  }
  EXPECT_EQ(Bits(sketch.EstimateF2()), Bits(OracleF2(sketch)));
}

TEST(SumOfSquaresTest, CountSketchF2MatchesOracleOnZipf) {
  ExpectF2MatchesOracle(CountSketch(16384, 4, 5),
                        MakeZipfStream(1 << 16, 1.1, 200000, 5), true);
}

TEST(SumOfSquaresTest, CountSketchF2MatchesOracleOnExtremeDeltas) {
  ExpectF2MatchesOracle(CountSketch(16384, 4, 6), ExtremeDeltas(6), false);
}

TEST(SumOfSquaresTest, AmsF2MatchesOracleOnZipf) {
  ExpectF2MatchesOracle(AmsSketch(4096, 5, 7),
                        MakeZipfStream(1 << 16, 1.1, 200000, 7), true);
}

TEST(SumOfSquaresTest, AmsF2MatchesOracleOnExtremeDeltas) {
  ExpectF2MatchesOracle(AmsSketch(4096, 5, 8), ExtremeDeltas(8), false);
}

}  // namespace
}  // namespace sketch
