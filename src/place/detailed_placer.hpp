// Greedy detailed placement: HPWL-reducing cell swaps on the legal layout.
//
// After legalization, neighbouring same-width cells are swapped whenever
// the swap lowers the half-perimeter wirelength of the affected nets.
// Keeps the placement legal by construction.
#pragma once

#include <cstdint>

#include "place/placement.hpp"

namespace sma::place {

// The swap schedule: part of the algorithm, like the global placer's.

/// Passes over every same-width bucket.
inline constexpr int kSwapPasses = 2;
/// Candidate partners per cell and pass.
inline constexpr int kSwapCandidates = 6;
/// Swap partners are drawn within this many rows / this many DBU.
inline constexpr int kMaxSwapRowDistance = 3;
inline constexpr std::int64_t kMaxSwapXDistance = 6000;
/// Seed of a standalone run; the flow mixes its own seed into it.
inline constexpr std::uint64_t kDetailedPlacementSeed = 11;

/// Returns the total HPWL improvement (non-negative).
std::int64_t run_detailed_placement(
    Placement& placement, std::uint64_t seed = kDetailedPlacementSeed);

}  // namespace sma::place
