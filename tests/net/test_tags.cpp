// Every message class has its own name. Metrics and trace args key the
// per-tag traffic cells by tag_name, so a missing or repeated name would
// merge or mislabel cells silently.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "net/message.hpp"

namespace cyc::net {
namespace {

TEST(TagNames, EveryTagHasADistinctName) {
  std::set<std::string_view> names;
  for (std::size_t t = 0; t < kTagCount; ++t) {
    const std::string_view name = tag_name(static_cast<Tag>(t));
    EXPECT_NE(name, "UNKNOWN") << "tag " << t << " has no name";
    EXPECT_TRUE(names.insert(name).second)
        << "tag " << t << " repeats the name " << name;
  }
}

}  // namespace
}  // namespace cyc::net
