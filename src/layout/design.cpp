#include "layout/design.hpp"

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "place/detailed_placer.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sma::layout {

// Phase timing rides on obs::TimedSpan: each phase still lands its
// wall-clock seconds in Design::timings (the public accessor benches
// consume, available with tracing off), and when tracing is on the same
// interval shows up as a "flow" span in the Chrome trace.
Design run_flow(netlist::Netlist netlist, const FlowConfig& config,
                runtime::ThreadPool* pool) {
  util::Timer timer;
  Design design;
  design.netlist = std::make_unique<netlist::Netlist>(std::move(netlist));
  design.stack =
      std::make_unique<tech::LayerStack>(tech::LayerStack::nangate45_like());

  place::Floorplan floorplan =
      place::make_floorplan(*design.netlist, kUtilization);
  design.placement =
      std::make_unique<place::Placement>(design.netlist.get(), floorplan);

  {
    obs::TimedSpan span("flow", "global_place");
    run_global_placement(
        *design.placement,
        place::kGlobalPlacementSeed ^ (config.seed * 0x9e3779b97f4a7c15ULL));
    design.timings.global_place_seconds = span.stop();
  }

  {
    obs::TimedSpan span("flow", "legalize");
    run_legalization(*design.placement);
    design.timings.legalize_seconds = span.stop();
  }

  {
    obs::TimedSpan span("flow", "detailed_place");
    run_detailed_placement(
        *design.placement,
        place::kDetailedPlacementSeed ^ (config.seed * 0xbf58476d1ce4e5b9ULL));
    design.timings.detailed_place_seconds = span.stop();
  }

  design.grid =
      std::make_unique<route::RoutingGrid>(design.stack.get(), floorplan.die);
  {
    obs::TimedSpan span("flow", "route");
    design.routing = route::route_design(*design.placement, *design.grid,
                                         route::RouterConfig{}, pool);
    design.timings.route_seconds = span.stop();
  }

  util::log_info() << design.netlist->name() << ": flow done in "
                   << timer.seconds() << "s, HPWL "
                   << design.placement->total_hpwl() << ", WL "
                   << design.routing.total_wirelength << ", vias "
                   << design.routing.total_vias << ", overflow "
                   << design.routing.final_overflow;
  return design;
}

}  // namespace sma::layout
