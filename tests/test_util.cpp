// Unit tests for the utility layer: RNG, stats, tables, CLI, FlatMap.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/flat_map.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace sbs {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // overwhelmingly likely
  }
}

TEST(Rng, BoundedValuesInRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stats, TrimmedMeanDropsExtremes) {
  EXPECT_DOUBLE_EQ(trimmed_mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 3.0}), 2.0);
  // min (0) and max (100) removed.
  EXPECT_DOUBLE_EQ(trimmed_mean({0.0, 2.0, 4.0, 100.0}), 3.0);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22,5"});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_millions(54'900'000, 1), "54.9M");
  EXPECT_EQ(fmt_percent(0.421, 1), "42.1%");
  EXPECT_EQ(fmt_bytes(24ull << 20), "24 MB");
  EXPECT_EQ(fmt_bytes(1ull << 31), "2 GB");
  EXPECT_EQ(fmt_seconds(0.5), "500.000ms");
}

TEST(Cli, ParsesAllKinds) {
  Cli cli("prog", "test");
  bool flag = false;
  std::int64_t num = 0;
  double d = 0;
  std::string s;
  cli.add_flag("flag", &flag, "a flag");
  cli.add_int("num", &num, "an int");
  cli.add_double("ratio", &d, "a double");
  cli.add_string("name", &s, "a string");
  const char* argv[] = {"prog", "--flag", "--num=42", "--ratio", "0.5",
                        "--name=x", "positional"};
  EXPECT_TRUE(cli.parse(7, const_cast<char**>(argv)));
  EXPECT_TRUE(flag);
  EXPECT_EQ(num, 42);
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_EQ(s, "x");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(FlatMap, InsertFindErase) {
  sim::FlatMap<int> map(16);
  map[10] = 1;
  map[20] = 2;
  EXPECT_EQ(*map.find(10), 1);
  EXPECT_EQ(*map.find(20), 2);
  EXPECT_EQ(map.find(30), nullptr);
  map.erase(10);
  EXPECT_EQ(map.find(10), nullptr);
  EXPECT_EQ(*map.find(20), 2);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GrowsAndMatchesStdMap) {
  sim::FlatMap<std::uint64_t> map(16);
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(31);
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(2000);
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        map[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {
        auto* found = map.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << step;
        }
        break;
      }
      case 2:
        map.erase(key);
        ref.erase(key);
        break;
    }
    ASSERT_EQ(map.size(), ref.size()) << step;
  }
  for (const auto& [k, v] : ref) {
    auto* found = map.find(k);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(FlatMap, ClearEmpties) {
  sim::FlatMap<int> map;
  for (std::uint64_t k = 1; k <= 100; ++k) map[k] = 1;
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_EQ(map.find(k), nullptr);
}

TEST(Quantile, ExactInterpolates) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_quantile({7.0}, 0.99), 7.0);
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile p50(0.5);
  EXPECT_DOUBLE_EQ(p50.value(), 0.0);  // no samples yet
  std::vector<double> seen;
  for (double x : {3.0, 1.0, 4.0, 2.0}) {
    p50.add(x);
    seen.push_back(x);
    EXPECT_DOUBLE_EQ(p50.value(), exact_quantile(seen, 0.5));
  }
  EXPECT_EQ(p50.count(), 4u);
}

TEST(P2Quantile, CountKeepsGrowingAfterWarmup) {
  P2Quantile q(0.9);
  for (int i = 0; i < 1000; ++i) q.add(i);
  EXPECT_EQ(q.count(), 1000u);
}

TEST(P2Quantile, TracksUniformWithinTolerance) {
  Rng rng(2024);
  P2Quantile p50(0.5), p99(0.99);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_double();
    p50.add(x);
    p99.add(x);
    all.push_back(x);
  }
  EXPECT_NEAR(p50.value(), exact_quantile(all, 0.5), 0.02);
  EXPECT_NEAR(p99.value(), exact_quantile(all, 0.99), 0.02);
}

TEST(P2Quantile, TracksSkewedTail) {
  // Heavy-tailed samples (exp of a uniform spread) — the regime sojourn
  // times live in. The p99.9 estimate must stay in the right decade.
  Rng rng(7);
  P2Quantile p999(0.999);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double x = std::exp(6.0 * rng.next_double());  // 1 .. e^6
    p999.add(x);
    all.push_back(x);
  }
  const double exact = exact_quantile(all, 0.999);
  EXPECT_GT(p999.value(), exact * 0.7);
  EXPECT_LT(p999.value(), exact * 1.3);
}

TEST(P2Quantile, MonotoneAcrossQuantiles) {
  Rng rng(11);
  P2Quantile p50(0.5), p99(0.99), p999(0.999);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double() * 100.0;
    p50.add(x);
    p99.add(x);
    p999.add(x);
  }
  EXPECT_LE(p50.value(), p99.value() * 1.0001);
  EXPECT_LE(p99.value(), p999.value() * 1.0001);
}

}  // namespace
}  // namespace sbs
