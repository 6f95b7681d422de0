#include "place/detailed_placer.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace sma::place {

namespace {

using netlist::CellId;
using netlist::NetId;

/// HPWL over the nets incident to `a` and `b` (deduplicated).
std::int64_t incident_hpwl(const Placement& placement,
                           const std::vector<NetId>& nets) {
  std::int64_t total = 0;
  for (NetId n : nets) total += placement.net_hpwl(n);
  return total;
}

std::vector<NetId> nets_of(const netlist::Netlist& nl, CellId cell) {
  std::vector<NetId> nets;
  for (NetId n : nl.cell(cell).pin_nets) {
    if (n != netlist::kInvalidId) nets.push_back(n);
  }
  return nets;
}

}  // namespace

std::int64_t run_detailed_placement(Placement& placement,
                                    std::uint64_t seed) {
  const netlist::Netlist& nl = placement.netlist();
  if (nl.num_cells() < 2) return 0;

  util::Pcg32 rng(seed, 0xd7a1);

  // Bucket same-width cells: only equal-width swaps keep legality trivially.
  std::vector<std::vector<CellId>> by_width;
  std::vector<std::int64_t> widths;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    std::int64_t w = nl.lib_cell_of(c).width;
    std::size_t bucket = 0;
    for (; bucket < widths.size(); ++bucket) {
      if (widths[bucket] == w) break;
    }
    if (bucket == widths.size()) {
      widths.push_back(w);
      by_width.emplace_back();
    }
    by_width[bucket].push_back(c);
  }

  const Floorplan& fp = placement.floorplan();
  std::int64_t total_gain = 0;

  for (int pass = 0; pass < kSwapPasses; ++pass) {
    for (std::size_t bucket = 0; bucket < by_width.size(); ++bucket) {
      const auto& cells = by_width[bucket];
      if (cells.size() < 2) continue;
      for (CellId a : cells) {
        std::vector<NetId> nets_a = nets_of(nl, a);
        for (int k = 0; k < kSwapCandidates; ++k) {
          CellId b = cells[rng.next_below(
              static_cast<std::uint32_t>(cells.size()))];
          if (a == b) continue;
          const util::Point pa = placement.cell_origin(a);
          const util::Point pb = placement.cell_origin(b);
          if (std::abs(pa.y - pb.y) >
                  kMaxSwapRowDistance * fp.row_height ||
              std::abs(pa.x - pb.x) > kMaxSwapXDistance) {
            continue;
          }

          // Union of incident nets.
          std::vector<NetId> nets = nets_a;
          for (NetId n : nets_of(nl, b)) nets.push_back(n);
          std::sort(nets.begin(), nets.end());
          nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

          std::int64_t before = incident_hpwl(placement, nets);
          placement.set_cell_origin(a, pb);
          placement.set_cell_origin(b, pa);
          std::int64_t after = incident_hpwl(placement, nets);
          if (after < before) {
            total_gain += before - after;
          } else {
            placement.set_cell_origin(a, pa);
            placement.set_cell_origin(b, pb);
          }
        }
      }
    }
  }
  return total_gain;
}

}  // namespace sma::place
