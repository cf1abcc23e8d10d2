/**
 * @file
 * Tests for the simulation substrate: statistics, histograms, the
 * deterministic RNG, logging counters, and type conversions.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/histogram.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {
namespace {

TEST(Types, CycleConversions)
{
    EXPECT_EQ(nsToCycles(0.8), 1u);    // tCK
    EXPECT_EQ(nsToCycles(13.75), 18u); // tCL rounds up
    EXPECT_EQ(nsToCycles(27.5), 35u);  // tRAS
    EXPECT_EQ(nsToCycles(1950.0), 2438u);
    EXPECT_NEAR(cyclesToMs(1'250'000), 1.0, 1e-9);
}

TEST(Stats, CountersAndVisit)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter a(&root, "a", "counter a");
    Counter b(&child, "b", "counter b");
    a += 5;
    ++a;
    b += 2;
    root.addFormula("ratio", "a per b", [&] {
        return static_cast<double>(a.value()) /
               static_cast<double>(b.value());
    });

    EXPECT_EQ(a.value(), 6u);

    // visit() reports every statistic under its dotted path, in
    // registration order: a group's counters, its formulas, then its
    // children.
    std::vector<std::string> seen;
    root.visit({
        [&seen](const std::string &path, std::uint64_t value,
                const std::string &desc) {
            seen.push_back(path + " " + std::to_string(value) + " # " +
                           desc);
        },
        [&seen](const std::string &path, double value,
                const std::string &desc) {
            EXPECT_DOUBLE_EQ(value, 3.0);
            seen.push_back(path + " # " + desc);
        },
    });
    const std::vector<std::string> expected = {
        "root.a 6 # counter a",
        "root.ratio # a per b",
        "root.child.b 2 # counter b",
    };
    EXPECT_EQ(seen, expected);

    // Either callback may be empty.
    unsigned formulas = 0;
    root.visit({nullptr, [&formulas](const std::string &, double,
                                     const std::string &) {
                    ++formulas;
                }});
    EXPECT_EQ(formulas, 1u);
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (unsigned i = 0; i < 99; ++i)
        h.sample(10);
    h.sample(5000);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.max(), 5000u);
    EXPECT_NEAR(h.mean(), (99 * 10 + 5000) / 100.0, 1e-9);
    // 99% of samples fit under the bucket containing 10.
    EXPECT_LE(h.percentileBound(0.99), 16u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng d(42), e(43);
    EXPECT_NE(d.next(), e.next());

    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.nextBelow(10);
        EXPECT_LT(v, 10u);
        const auto s = r.nextRange(-5, 5);
        EXPECT_GE(s, -5);
        EXPECT_LE(s, 5);
        const double f = r.nextDouble();
        EXPECT_GE(f, 0.0);
        EXPECT_LT(f, 1.0);
    }

    // Rough uniformity: each decile of nextBelow(10) within 3x of
    // expectation over 10k draws.
    unsigned hist[10] = {};
    Rng u(11);
    for (int i = 0; i < 10000; ++i)
        ++hist[u.nextBelow(10)];
    for (unsigned dec : hist) {
        EXPECT_GT(dec, 1000u / 3);
        EXPECT_LT(dec, 3000u);
    }
}

TEST(Logging, WarnCounterAdvances)
{
    const auto before = warnCount();
    warn("test warning ", 42);
    EXPECT_EQ(warnCount(), before + 1);
    inform("informational message");
    EXPECT_EQ(warnCount(), before + 1);
}

} // namespace
} // namespace vip
