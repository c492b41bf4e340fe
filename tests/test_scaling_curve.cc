/**
 * @file
 * Tests for ScalingCurve: lookup semantics, feasible range, concavity
 * enforcement, the fixed-size restriction used by Chronus, the shared
 * representation behind copies, and the snapshot codec.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/scaling_curve.h"
#include "recover/fields.h"

namespace ef {
namespace {

TEST(ScalingCurve, LookupRoundsDownToPow2)
{
    // Figure 4(a): T(1)=1, T(2)=1.5, T(4)=2.
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.5, 2.0});
    EXPECT_DOUBLE_EQ(curve.throughput(1), 1.0);
    EXPECT_DOUBLE_EQ(curve.throughput(2), 1.5);
    EXPECT_DOUBLE_EQ(curve.throughput(3), 1.5);
    EXPECT_DOUBLE_EQ(curve.throughput(4), 2.0);
    EXPECT_DOUBLE_EQ(curve.throughput(100), 2.0);  // clamps
    EXPECT_DOUBLE_EQ(curve.throughput(0), 0.0);
    EXPECT_DOUBLE_EQ(curve.throughput(-1), 0.0);
}

TEST(ScalingCurve, MinWorkersFromLeadingZeros)
{
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({0.0, 0.0, 2.0, 3.0});
    EXPECT_EQ(curve.min_workers(), 4);
    EXPECT_DOUBLE_EQ(curve.throughput(2), 0.0);
    EXPECT_DOUBLE_EQ(curve.throughput(4), 2.0);
    EXPECT_EQ(curve.usable(3), 0);
    EXPECT_EQ(curve.usable(4), 4);
}

TEST(ScalingCurve, MaxUsefulStopsAtPlateau)
{
    ScalingCurve curve = ScalingCurve::from_pow2_table(
        {1.0, 1.8, 2.0, 2.0, 2.0}, /*enforce_concave=*/false);
    EXPECT_EQ(curve.max_useful(), 4);
    EXPECT_EQ(curve.usable(16), 4);
    EXPECT_EQ(curve.next_step(4), 0);
    EXPECT_EQ(curve.next_step(2), 4);
    EXPECT_EQ(curve.next_step(0), 1);
}

TEST(ScalingCurve, EnforceConcaveLiftsDipsAndMonotone)
{
    // A dip at 2 GPUs and a decrease at the tail.
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 0.9, 2.0, 1.8});
    EXPECT_TRUE(curve.concave());
    EXPECT_GE(curve.throughput(2), 1.0);
    EXPECT_GE(curve.throughput(8), curve.throughput(4) - 1e-12);
    EXPECT_DOUBLE_EQ(curve.throughput(1), 1.0);
}

TEST(ScalingCurve, ConcaveDetection)
{
    ScalingCurve concave =
        ScalingCurve::from_pow2_table({1.0, 1.8, 2.5});
    EXPECT_TRUE(concave.concave());
    ScalingCurve convex = ScalingCurve::from_pow2_table(
        {1.0, 1.1, 4.0}, /*enforce_concave=*/false);
    EXPECT_FALSE(convex.concave());
}

TEST(ScalingCurve, UsableRespectsAvailability)
{
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.5, 2.0, 2.2});
    EXPECT_EQ(curve.usable(0), 0);
    EXPECT_EQ(curve.usable(1), 1);
    EXPECT_EQ(curve.usable(5), 4);
    EXPECT_EQ(curve.usable(7), 4);
    EXPECT_EQ(curve.usable(8), 8);
    EXPECT_EQ(curve.usable(1000), 8);
}

TEST(ScalingCurve, RestrictToFixedSize)
{
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.5, 2.0, 2.2});
    ScalingCurve fixed = restrict_to_fixed_size(curve, 4);
    EXPECT_EQ(fixed.min_workers(), 4);
    EXPECT_EQ(fixed.max_useful(), 4);
    EXPECT_DOUBLE_EQ(fixed.throughput(4), 2.0);
    EXPECT_DOUBLE_EQ(fixed.throughput(2), 0.0);
    EXPECT_DOUBLE_EQ(fixed.throughput(8), 2.0);  // clamps to table end
    EXPECT_EQ(fixed.usable(7), 4);
    EXPECT_EQ(fixed.usable(3), 0);
}

TEST(ScalingCurve, InvalidTablesDie)
{
    EXPECT_DEATH(ScalingCurve::from_pow2_table({}), "at least one");
    EXPECT_DEATH(ScalingCurve::from_pow2_table({0.0, 0.0}),
                 "no feasible");
    EXPECT_DEATH(ScalingCurve::from_pow2_table({1.0, 0.0, 2.0}),
                 "zero inside");
    EXPECT_DEATH(ScalingCurve::from_pow2_table({-1.0}), "negative");
}

TEST(ScalingCurve, NextStepRequiresPow2)
{
    ScalingCurve curve = ScalingCurve::from_pow2_table({1.0, 1.5});
    EXPECT_DEATH(curve.next_step(3), "not a power of two");
}

TEST(ScalingCurve, NextStepOnFixedSizeCurve)
{
    // A restrict_to_fixed_size() curve pins min_workers == max_useful
    // == size: the only legal transitions are start (0 -> size) and
    // "already at the top" (size -> 0).
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.8, 3.0, 4.0});
    ScalingCurve fixed = restrict_to_fixed_size(curve, 4);
    EXPECT_EQ(fixed.min_workers(), 4);
    EXPECT_EQ(fixed.max_useful(), 4);
    EXPECT_EQ(fixed.next_step(0), 4);
    EXPECT_EQ(fixed.next_step(4), 0);
}

TEST(ScalingCurve, NextStepBeyondMaxUsefulDies)
{
    // A count above max_useful() means an allocation escaped the
    // usable() clamp; next_step used to return 0 silently, freezing
    // the job at an unpriceable size. Now it aborts.
    ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.8, 3.0, 4.0});
    ScalingCurve fixed = restrict_to_fixed_size(curve, 2);
    EXPECT_EQ(fixed.max_useful(), 2);
    EXPECT_DEATH(fixed.next_step(8), "exceeds max_useful");
    EXPECT_DEATH(curve.next_step(16), "exceeds max_useful");
}

TEST(ScalingCurve, CopiesShareOneRepresentation)
{
    const ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.8, 3.0, 4.0});
    const ScalingCurve copy = curve;
    ScalingCurve assigned;
    assigned = copy;
    EXPECT_EQ(&copy.table(), &curve.table());
    EXPECT_EQ(&assigned.table(), &curve.table());
    EXPECT_TRUE(assigned.same_table(curve));

    // An equal table built separately is equal but not shared.
    const ScalingCurve twin =
        ScalingCurve::from_pow2_table({1.0, 1.8, 3.0, 4.0});
    EXPECT_NE(&twin.table(), &curve.table());
    EXPECT_TRUE(twin.same_table(curve));
    EXPECT_FALSE(
        twin.same_table(ScalingCurve::from_pow2_table({1.0, 1.8, 3.0})));
}

TEST(ScalingCurve, EmptyCurve)
{
    const ScalingCurve empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty.table().empty());
    EXPECT_EQ(empty.max_useful(), 0);
    EXPECT_EQ(empty.usable(0), 0);
    EXPECT_EQ(empty.usable(8), 0);
    EXPECT_EQ(empty.usable(-3), 0);
    EXPECT_TRUE(empty.concave());
    EXPECT_TRUE(empty.same_table(ScalingCurve{}));
    EXPECT_DEATH(empty.throughput(1), "");
    EXPECT_DEATH(empty.min_workers(), "");
    EXPECT_DEATH(empty.max_tabulated(), "");
    EXPECT_DEATH(empty.next_step(0), "");
}

/** A job row carrying a curve, in a split() table as the simulator's
 *  job table is: rows travel whole in bases and heads, and frozen rows
 *  in history segments. */
struct CurveRow
{
    std::int64_t id = 0;
    ScalingCurve curve;

    template <class V>
    void
    fields(V &v)
    {
        v(id);
        v.journal(curve);
    }
};

struct CurveTable
{
    std::vector<CurveRow> rows;
    recover::SplitCache cache;

    template <class V>
    void
    fields(V &v)
    {
        v.split(rows, [](const CurveRow &) { return true; }, cache);
    }
};

/** Wire bytes of one double, as the encoder writes it. */
std::string
f64_bytes(double value)
{
    recover::Encoder enc;
    enc.f64(value);
    return enc.take();
}

/** @p bytes with the one encoding of @p from replaced by @p to. */
std::string
patch(std::string bytes, double from, double to)
{
    const std::string needle = f64_bytes(from);
    const std::size_t at = bytes.find(needle);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(bytes.find(needle, at + 1), std::string::npos);
    bytes.replace(at, needle.size(), f64_bytes(to));
    return bytes;
}

TEST(ScalingCurveCodec, RoundTripGivesAnEqualCurve)
{
    const ScalingCurve curve =
        ScalingCurve::from_pow2_table({0.0, 1.7, 3.1, 4.4});
    ScalingCurve back;
    ASSERT_TRUE(recover::decode(recover::encode(curve), back).ok());
    EXPECT_TRUE(back.same_table(curve));
    EXPECT_EQ(back.min_workers(), curve.min_workers());
    EXPECT_EQ(back.max_useful(), curve.max_useful());
    EXPECT_EQ(back.max_tabulated(), curve.max_tabulated());
    for (GpuCount g = 0; g <= 20; ++g)
        EXPECT_EQ(back.throughput(g), curve.throughput(g)) << g;
    // The wire format is the table: a length, then the entries.
    recover::Encoder table;
    recover::Writer(table).put(curve.table());
    EXPECT_EQ(recover::encode(curve), table.take());
}

TEST(ScalingCurveCodec, DecodingAnEqualTableKeepsTheSharedRepresentation)
{
    const ScalingCurve curve =
        ScalingCurve::from_pow2_table({1.0, 1.8, 3.0, 4.0});
    const std::string bytes = recover::encode(curve);

    ScalingCurve row = curve;
    ASSERT_TRUE(recover::decode(bytes, row).ok());
    EXPECT_EQ(&row.table(), &curve.table());

    ScalingCurve other = ScalingCurve::from_pow2_table({2.0, 3.0});
    ASSERT_TRUE(recover::decode(bytes, other).ok());
    EXPECT_NE(&other.table(), &curve.table());
    EXPECT_TRUE(other.same_table(curve));
}

TEST(ScalingCurveCodec, MalformedTableIsATypedErrorInEverySection)
{
    CurveTable table;
    for (std::int64_t id = 0; id < 3; ++id) {
        table.rows.push_back(
            {id, ScalingCurve::from_pow2_table({1.0, 1.5 + id, 4.0},
                                               /*enforce_concave=*/false)});
    }
    table.cache.live = {0, 1, 2};
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Base and head: every row, whole.
    for (const recover::Section section :
         {recover::Section::kBase, recover::Section::kHead}) {
        const std::string bytes =
            recover::encode_section(section, nullptr, table);
        CurveTable good = table;
        ASSERT_TRUE(recover::decode_section(bytes, section, good).ok());
        EXPECT_TRUE(good.rows[1].curve.same_table(table.rows[1].curve));
        for (const double bad : {nan, -1.0, 0.0}) {
            CurveTable back = table;
            EXPECT_EQ(recover::decode_section(patch(bytes, 2.5, bad),
                                              section, back)
                          .code,
                      recover::ErrorCode::kBadRecord)
                << static_cast<int>(section) << " " << bad;
        }
    }

    // A history segment: the rows frozen since the last one.
    CurveTable frozen = table;
    frozen.cache.frozen = {1};
    const std::string segment =
        recover::encode_section(recover::Section::kSegment, nullptr, frozen);
    CurveTable good = table;
    ASSERT_TRUE(recover::decode_section(segment, recover::Section::kSegment,
                                        good)
                    .ok());
    for (const double bad : {nan, -1.0, 0.0}) {
        CurveTable back = table;
        EXPECT_EQ(recover::decode_section(patch(segment, 2.5, bad),
                                          recover::Section::kSegment, back)
                      .code,
                  recover::ErrorCode::kBadRecord)
            << bad;
    }
}

}  // namespace
}  // namespace ef
