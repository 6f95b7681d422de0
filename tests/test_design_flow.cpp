#include "layout/design.hpp"

#include <gtest/gtest.h>

#include "layout/def_io.hpp"
#include "netlist/profiles.hpp"
#include "test_support.hpp"
#include "util/hash.hpp"

namespace sma::layout {
namespace {

TEST(DesignFlow, EndToEndSmallDesign) {
  Design design = test::small_routed_design(60, 3);
  EXPECT_TRUE(design.netlist->validate().empty());
  EXPECT_TRUE(design.placement->is_legal());
  EXPECT_EQ(static_cast<int>(design.routing.routes.size()),
            design.netlist->num_nets());
  EXPECT_GT(design.routing.total_wirelength, 0);
  EXPECT_GT(design.routing.total_vias, 0);
}

TEST(DesignFlow, DifferentSeedsGiveDifferentLayouts) {
  Design a = test::small_routed_design(60, 3);
  Design b = test::small_routed_design(60, 4);
  bool any_difference = false;
  for (netlist::CellId c = 0; c < a.netlist->num_cells(); ++c) {
    if (a.placement->cell_origin(c) != b.placement->cell_origin(c)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(DesignFlow, MoveKeepsInternalReferencesValid) {
  Design a = test::small_routed_design(40, 5);
  const netlist::Netlist* nl_before = a.netlist.get();
  Design b = std::move(a);
  EXPECT_EQ(b.netlist.get(), nl_before);
  EXPECT_EQ(&b.placement->netlist(), nl_before);
  EXPECT_TRUE(b.placement->is_legal());
}

TEST(DesignFlow, RouteOfReturnsPerNetRoute) {
  Design design = test::small_routed_design(40, 6);
  for (netlist::NetId n = 0; n < design.netlist->num_nets(); ++n) {
    EXPECT_EQ(design.route_of(n).net, n);
  }
}

/// DEF text of `design` laid out by the flow at `seed`, on `pool`.
std::string flow_def(const char* design, std::uint64_t seed,
                     runtime::ThreadPool* pool) {
  netlist::Netlist nl = netlist::build_profile(
      netlist::find_profile(design), &test::library(), seed);
  FlowConfig flow;
  flow.seed = seed;
  return to_def_string(run_flow(std::move(nl), flow, pool));
}

// Absolute anchor: FNV-1a digests of the DEF layouts of two profiles at
// seed 2019, recorded once. Relative checks (serial == pooled) cannot
// catch a change that moves every thread count's layout the same way.
TEST(DesignFlow, GoldenDefDigests) {
  struct Golden {
    const char* design;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"c432", 0x8e99792a999a2a25ull},
      {"b13", 0xbf5a3cdfd2e0e825ull},
  };
  runtime::ThreadPool pool(4);
  for (const Golden& golden : goldens) {
    for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                   &pool}) {
      const std::string def = flow_def(golden.design, 2019, p);
      const std::uint64_t digest =
          util::ContentHash().add_bytes(def.data(), def.size()).digest();
      EXPECT_EQ(digest, golden.digest)
          << golden.design << (p == nullptr ? " (no pool)" : " (4 threads)")
          << ": got 0x" << std::hex << digest;
    }
  }
}

}  // namespace
}  // namespace sma::layout
