// Utility substrate: RNG determinism and bounds, timing calibration,
// statistics accumulators, table formatting, JSON emit/parse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"

namespace lcrq {
namespace {

TEST(Xorshift, DeterministicForSeed) {
    Xoshiro256 a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xorshift, DifferentSeedsDiverge) {
    Xoshiro256 a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Xorshift, BoundedStaysInRange) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(rng.bounded(100), 100u);
    }
    EXPECT_EQ(rng.bounded(0), 0u);
    EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xorshift, BoundedCoversRangeRoughlyUniformly) {
    Xoshiro256 rng(11);
    int buckets[10] = {};
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i) ++buckets[rng.bounded(10)];
    for (int b : buckets) {
        EXPECT_GT(b, kSamples / 10 / 2);
        EXPECT_LT(b, kSamples / 10 * 2);
    }
}

TEST(Xorshift, ZeroSeedIsUsable) {
    Xoshiro256 rng(0);
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i) vals.insert(rng());
    EXPECT_GT(vals.size(), 90u);
}

TEST(Timing, MonotonicClockAdvances) {
    const auto a = now_ns();
    const auto b = now_ns();
    EXPECT_GE(b, a);
}

TEST(Timing, TscCalibrationPositive) {
    EXPECT_GT(tsc_per_ns(), 0.0);
    // Plausible range for any modern machine: 0.1 .. 10 GHz.
    EXPECT_GT(tsc_per_ns(), 0.1);
    EXPECT_LT(tsc_per_ns(), 10.0);
}

TEST(Timing, BracketedEstimatorPrefersNarrowBrackets) {
    // A synthetic TSC at exactly 2.1 ticks/ns (clock readings that are
    // multiples of 10 map to whole ticks).
    auto tsc_at = [](std::uint64_t ns) { return 7'000'000 + ns * 21 / 10; };
    // Each end holds one narrowest bracket whose TSC read sits at its
    // midpoint, wider ones whose read sits at an edge, and a preempted
    // read: 50 us between its two clock reads, its TSC at one edge.
    const std::vector<detail::TscBracket> start = {
        {1'000, tsc_at(1'000), 51'000},        // preempted after the TSC read
        {51'010, tsc_at(51'010), 51'070},
        {51'080, tsc_at(51'090), 51'100},      // narrowest: midpoint 51'090
        {51'110, tsc_at(51'110), 51'200},
    };
    const std::vector<detail::TscBracket> end = {
        {1'051'000, tsc_at(1'051'060), 1'051'060},
        {1'051'070, tsc_at(1'051'080), 1'051'090},  // narrowest: midpoint 1'051'080
        {1'051'110, tsc_at(1'101'110), 1'101'110},  // preempted before the TSC read
    };
    EXPECT_NEAR(detail::tsc_rate(start, end), 2.1, 2.1e-12);
    // The data discriminates: pairing the preempted reads, or the wider
    // ones, would be far off the synthetic rate.
    EXPECT_GT(std::abs(detail::tsc_rate({&start[0], 1}, {&end[2], 1}) - 2.1), 0.05);
    EXPECT_GT(std::abs(detail::tsc_rate({&start[1], 1}, {&end[0], 1}) - 2.1), 1e-4);
    // No time between the two ends: no rate.
    EXPECT_EQ(detail::tsc_rate(start, start), 0.0);
}

TEST(Timing, CalibrationWindowScalesWithBracketWidth) {
    // Each end's half-bracket within 5e-5 of the window, in [1 ms, 10 ms].
    EXPECT_EQ(detail::calibration_window_ns(0), 1'000'000u);
    EXPECT_EQ(detail::calibration_window_ns(80), 1'000'000u);
    EXPECT_EQ(detail::calibration_window_ns(200), 2'000'000u);
    EXPECT_EQ(detail::calibration_window_ns(999), 9'990'000u);
    EXPECT_EQ(detail::calibration_window_ns(1'000), 10'000'000u);
    EXPECT_EQ(detail::calibration_window_ns(5'000), 10'000'000u);
    EXPECT_EQ(detail::calibration_window_ns(std::numeric_limits<std::uint64_t>::max()),
              10'000'000u);
}

TEST(Timing, CalibrationAgreesWithLongWindow) {
    const double reference = detail::calibrate_tsc(20'000'000);
    EXPECT_NEAR(tsc_per_ns(), reference, reference * 1e-4);
}

TEST(Timing, SpinForNsWaitsApproximately) {
    const auto t0 = now_ns();
    spin_for_ns(2'000'000);  // 2 ms: far above timer noise
    const auto elapsed = now_ns() - t0;
    EXPECT_GE(elapsed, 1'000'000u);
}

TEST(Timing, SpinForZeroReturnsImmediately) {
    spin_for_ns(0);
    SUCCEED();
}

TEST(RunningStats, MeanAndStddev) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cv(), 0.0);
}

TEST(Table, FormatSi) {
    EXPECT_EQ(format_si(1'234'567.0, 2), "1.23M");
    EXPECT_EQ(format_si(999.0, 0), "999");
    EXPECT_EQ(format_si(2'500.0, 1), "2.5K");
    EXPECT_EQ(format_si(3.2e9, 1), "3.2G");
}

TEST(Table, FormatDouble) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Table, PrintsAlignedRows) {
    Table t({"name", "value"});
    t.row().cell("alpha").cell(std::uint64_t{42});
    t.row().cell("b").cell(3.5, 1);
    // Render to a memstream and sanity-check the shape.
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* f = open_memstream(&buf, &len);
    ASSERT_NE(f, nullptr);
    t.print(f);
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("3.5"), std::string::npos);
    EXPECT_NE(out.find("|"), std::string::npos);
}

TEST(Json, BuildsAndDumpsObjects) {
    Json doc = Json::object()
                   .set("name", "lcrq")
                   .set("threads", std::int64_t{8})
                   .set("ok", true)
                   .set("missing", Json());
    const std::string s = doc.dump(0);
    EXPECT_NE(s.find("\"name\":\"lcrq\""), std::string::npos);
    EXPECT_NE(s.find("\"threads\":8"), std::string::npos);
    EXPECT_NE(s.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(s.find("\"missing\":null"), std::string::npos);
}

TEST(Json, ObjectPreservesInsertionOrder) {
    Json doc = Json::object().set("z", 1).set("a", 2).set("m", 3);
    const auto& members = doc.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "z");
    EXPECT_EQ(members[1].first, "a");
    EXPECT_EQ(members[2].first, "m");
}

TEST(Json, SetOverwritesDuplicateKey) {
    Json doc = Json::object().set("k", 1).set("k", 2);
    ASSERT_EQ(doc.members().size(), 1u);
    EXPECT_EQ(doc.at("k").as_int(), 2);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
    // NaN means "no data" in the bench schema; Infinity is not valid JSON
    // either.  Both normalize to null at construction, never a NaN token.
    Json nan(std::numeric_limits<double>::quiet_NaN());
    Json inf(std::numeric_limits<double>::infinity());
    EXPECT_TRUE(nan.is_null());
    EXPECT_TRUE(inf.is_null());
    Json doc = Json::array();
    doc.push_back(std::move(nan));
    doc.push_back(std::move(inf));
    EXPECT_EQ(doc.dump(0), "[null,null]");
}

TEST(Json, StringEscapes) {
    Json doc = Json(std::string("a\"b\\c\n\t\x01"));
    const std::string s = doc.dump(0);
    EXPECT_EQ(s, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
    const auto back = Json::parse(s);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParseRoundTripsNumbersExactly) {
    for (double v : {0.0, -1.5, 3.141592653589793, 1e-300, 6.94e6, 1e17,
                     123456789.125, -0.001}) {
        const Json j(v);
        const auto back = Json::parse(j.dump(0));
        ASSERT_TRUE(back.has_value()) << j.dump(0);
        EXPECT_EQ(back->as_double(), v) << j.dump(0);
    }
}

TEST(Json, IntegralDoublesPrintWithoutExponent) {
    EXPECT_EQ(Json(4000.0).dump(0), "4000");
    EXPECT_EQ(Json(std::int64_t{-7}).dump(0), "-7");
    EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(0), "1099511627776");
}

TEST(Json, ParseAcceptsNestedDocument) {
    const auto doc = Json::parse(R"({
        "schema_version": 1,
        "results": [{"queue": "lcrq", "cv": 0.031}, {"queue": "ms"}],
        "host": {"cpus": 1}
    })");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("schema_version").as_int(), 1);
    ASSERT_EQ(doc->at("results").size(), 2u);
    EXPECT_EQ(doc->at("results").items()[0].at("queue").as_string(), "lcrq");
    EXPECT_DOUBLE_EQ(doc->at("results").items()[0].at("cv").as_double(), 0.031);
    EXPECT_EQ(doc->at("host").at("cpus").as_int(), 1);
}

TEST(Json, ParseRejectsMalformedInput) {
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(Json::parse("nul").has_value());
    EXPECT_FALSE(Json::parse("1 trailing").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
}

TEST(Json, DumpParseDumpIsStable) {
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    Json doc = Json::object()
                   .set("a", std::move(arr))
                   .set("b", Json::object().set("x", 1.25).set("y", "z"))
                   .set("c", false);
    const std::string once = doc.dump(2);
    const auto back = Json::parse(once);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->dump(2), once);
    EXPECT_TRUE(*back == doc);
}

TEST(Table, PrintsCsv) {
    Table t({"a", "b"});
    t.row().cell("x").cell(std::int64_t{-1});
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* f = open_memstream(&buf, &len);
    ASSERT_NE(f, nullptr);
    t.print_csv(f);
    std::fclose(f);
    std::string out(buf, len);
    free(buf);
    EXPECT_EQ(out, "a,b\nx,-1\n");
}

}  // namespace
}  // namespace lcrq
