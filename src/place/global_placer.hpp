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
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace sma::place {

/// Accumulation lanes for the centroid relaxation: nets are split into
/// this many contiguous blocks whose per-cell pulls accumulate into
/// private arrays, reduced in fixed lane order (the gradient-lane
/// pattern). Part of the algorithm — it decides how the floating-point
/// sums associate and therefore shapes the layout — and independent of
/// the thread count, so any pool size is bit-identical to serial.
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
/// legalized) but inside the die. A non-null `pool` parallelizes the
/// relaxation lanes and the spreading's per-band sorts; the result is
/// bit-identical at any thread count.
void run_global_placement(Placement& placement,
                          std::uint64_t seed = kGlobalPlacementSeed,
                          runtime::ThreadPool* pool = nullptr);

}  // namespace sma::place
