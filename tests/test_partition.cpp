// Partition helpers: the even split behind the shard router's bands and
// the formation tasks' item ranges, and the Region predicates.
#include <gtest/gtest.h>

#include <limits>

#include "backprojection/partition.h"

namespace sarbp::bp {
namespace {

TEST(SplitBegin, EvenSplitBoundaries) {
  EXPECT_EQ(split_begin(100, 4, 0), 0);
  EXPECT_EQ(split_begin(100, 4, 2), 50);
  EXPECT_EQ(split_begin(100, 4, 4), 100);
  // Uneven: 10 into 3 -> 0,3,6,10.
  EXPECT_EQ(split_begin(10, 3, 1), 3);
  EXPECT_EQ(split_begin(10, 3, 2), 6);
  EXPECT_EQ(split_begin(10, 3, 3), 10);
}

TEST(Region, BasicPredicates) {
  const Region r{10, 20, 5, 4};
  EXPECT_EQ(r.pixels(), 20);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(10, 20));
  EXPECT_TRUE(r.contains(14, 23));
  EXPECT_FALSE(r.contains(15, 23));
  EXPECT_FALSE(r.contains(9, 20));
  EXPECT_TRUE((Region{0, 0, 0, 5}).empty());
  // inside() compares each extent with the room past its origin, so a
  // region whose end coordinate would overflow Index is outside.
  constexpr Index kMax = std::numeric_limits<Index>::max();
  EXPECT_TRUE(r.inside(15, 24));
  EXPECT_FALSE(r.inside(14, 24));
  EXPECT_FALSE(r.inside(15, 23));
  EXPECT_FALSE((Region{-1, 0, 2, 2}).inside(32, 32));
  EXPECT_FALSE((Region{0, 0, 0, 5}).inside(32, 32));
  EXPECT_FALSE((Region{0, kMax - 1, 3, 2}).inside(32, 32));
  EXPECT_FALSE((Region{kMax - 1, 0, 2, 3}).inside(32, 32));
  EXPECT_FALSE((Region{kMax - 1, 0, 2, 3}).inside(-5, 32));
}

}  // namespace
}  // namespace sarbp::bp
