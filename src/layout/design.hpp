// Assembled physical design: netlist + placement + routing, and the
// end-to-end implementation flow that produces it.
//
// `run_flow` is the stand-in for the paper's Synopsys DC + Cadence Innovus
// pipeline: it takes a netlist, builds a floorplan, places (global ->
// legal -> detailed) and routes it, returning a self-contained `Design`
// whose parts reference each other with stable addresses. Like the paper's
// single fixed flow, it is a function of (netlist, seed) alone: every
// stage runs with its default config, so the only setting is the seed.
#pragma once

#include <cstdint>
#include <memory>

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"
#include "route/routing_grid.hpp"
#include "runtime/thread_pool.hpp"
#include "tech/layer_stack.hpp"

namespace sma::layout {

/// Wall-clock breakdown of one flow run (diagnostic only — never part of
/// the layout content or the cache digest). The negotiation subset of
/// `route_seconds` lives in `RoutingResult::negotiation_seconds`.
struct FlowTimings {
  double global_place_seconds = 0.0;
  double legalize_seconds = 0.0;
  double detailed_place_seconds = 0.0;
  double route_seconds = 0.0;
};

/// A completed layout. Move-only; internal pointers stay valid across moves
/// because the parts live behind unique_ptr.
struct Design {
  std::unique_ptr<netlist::Netlist> netlist;
  std::unique_ptr<tech::LayerStack> stack;
  std::unique_ptr<place::Placement> placement;
  std::unique_ptr<route::RoutingGrid> grid;
  route::RoutingResult routing;
  FlowTimings timings;

  const route::NetRoute& route_of(netlist::NetId net) const {
    return routing.routes.at(net);
  }
};

/// Floorplan row utilization of the flow (not `make_floorplan`'s default).
inline constexpr double kUtilization = 0.55;

/// The flow's one setting.
struct FlowConfig {
  /// Master seed; placer seeds are derived from it so two flows with
  /// different seeds yield different (but statistically alike) layouts.
  std::uint64_t seed = 1;
};

/// Run placement + routing on `netlist` (consumed) and return the layout.
/// Placement is serial; a non-null `pool` parallelizes routing
/// (wave-concurrent nets). The resulting layout is bit-identical at any
/// thread count, so the pool is deliberately NOT part of `FlowConfig` or
/// the layout-cache digest.
Design run_flow(netlist::Netlist netlist, const FlowConfig& config = {},
                runtime::ThreadPool* pool = nullptr);

}  // namespace sma::layout
