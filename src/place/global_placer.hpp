// Global placement: quadratic relaxation + order-preserving spreading.
//
// Phase 1 iterates the quadratic-placement fixed point (every cell moves
// toward the weighted centroid of its nets; ports anchor the boundary).
// Phase 2 spreads the clustered solution to uniform density with a
// monotone rank transform (x-bands, then y within each band), preserving
// neighbourhoods. Phase 3 re-relaxes gently. The result has the
// "connected things sit near each other" structure of commercial
// placements that the proximity attack relies on.
#pragma once

#include <cstdint>

#include "place/placement.hpp"
#include "util/rng.hpp"

namespace sma::place {

/// Accumulation lanes for the centroid relaxation: nets are split into
/// this many contiguous blocks whose per-cell pulls accumulate into
/// private arrays, reduced in fixed lane order. Part of the algorithm —
/// it decides how the floating-point sums associate and therefore shapes
/// the layout — so it stays although placement runs serially.
inline constexpr int kRelaxLanes = 8;

// The schedule. Like kRelaxLanes these are part of the algorithm: the
// flow runs one placement per (netlist, seed), so none is a setting.

/// Relax/spread rounds (Kraftwerk-like alternation).
inline constexpr int kGlobalRounds = 8;
/// Quadratic-relaxation iterations in the first round (later rounds
/// anneal down).
inline constexpr int kRelaxIterations = 16;
/// Step fraction toward the connectivity centroid per iteration.
inline constexpr double kPull = 0.8;
/// Gentle post-spreading refinement: iterations and step fraction.
inline constexpr int kRefineIterations = 4;
inline constexpr double kRefinePull = 0.2;
/// Seed of a standalone run; the flow mixes its own seed into it.
inline constexpr std::uint64_t kGlobalPlacementSeed = 7;

/// Runs global placement in-place; positions are continuous (not yet
/// legalized) but inside the die. Serial: on the profiled designs a pool
/// cost more in hand-offs than the relaxation lanes and band sorts save.
void run_global_placement(Placement& placement,
                          std::uint64_t seed = kGlobalPlacementSeed);

}  // namespace sma::place
