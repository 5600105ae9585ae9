#include "dram/types.hpp"

#include <sstream>

namespace dl::dram {

Geometry Geometry::ddr4_32gb_16bank() {
  // 32 GiB = 1 channel x 2 ranks x 16 banks x 128 subarrays x 1024 rows
  //          x 8 KiB rows.
  Geometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks = 16;
  g.subarrays_per_bank = 128;
  g.rows_per_subarray = 1024;
  g.row_bytes = 8192;
  return g;
}

Geometry Geometry::tiny() {
  Geometry g;
  g.channels = 1;
  g.ranks = 1;
  g.banks = 2;
  g.subarrays_per_bank = 4;
  g.rows_per_subarray = 64;
  g.row_bytes = 256;
  return g;
}

std::string RowAddress::to_string() const {
  std::ostringstream os;
  os << "ch" << channel << ".rk" << rank << ".bk" << bank << ".sa" << subarray
     << ".r" << row;
  return os.str();
}

GlobalRowId to_global(const Geometry& g, const RowAddress& a) {
  DL_REQUIRE(a.channel < g.channels && a.rank < g.ranks && a.bank < g.banks &&
                 a.subarray < g.subarrays_per_bank &&
                 a.row < g.rows_per_subarray,
             "row address out of geometry bounds");
  GlobalRowId id = a.channel;
  id = id * g.ranks + a.rank;
  id = id * g.banks + a.bank;
  id = id * g.subarrays_per_bank + a.subarray;
  id = id * g.rows_per_subarray + a.row;
  return id;
}

RowAddress from_global(const Geometry& g, GlobalRowId id) {
  DL_REQUIRE(id < g.total_rows(), "global row id out of range");
  RowAddress a;
  a.row = static_cast<std::uint32_t>(id % g.rows_per_subarray);
  id /= g.rows_per_subarray;
  a.subarray = static_cast<std::uint32_t>(id % g.subarrays_per_bank);
  id /= g.subarrays_per_bank;
  a.bank = static_cast<std::uint32_t>(id % g.banks);
  id /= g.banks;
  a.rank = static_cast<std::uint32_t>(id % g.ranks);
  id /= g.ranks;
  a.channel = static_cast<std::uint32_t>(id);
  return a;
}

SubarrayRow split_row(const Geometry& g, GlobalRowId id) {
  DL_REQUIRE(id < g.total_rows(), "global row id out of range");
  return {id / g.rows_per_subarray,
          static_cast<std::uint32_t>(id % g.rows_per_subarray),
          g.rows_per_subarray};
}

std::vector<GlobalRowId> SubarrayRow::neighbours(std::uint32_t radius) const {
  std::vector<GlobalRowId> rows;
  const auto r = static_cast<std::int64_t>(radius);
  for (std::int64_t d = -r; d <= r; ++d) {
    if (const auto nb = offset(d); nb && d != 0) rows.push_back(*nb);
  }
  return rows;
}

bool same_subarray(const RowAddress& a, const RowAddress& b) {
  return a.channel == b.channel && a.rank == b.rank && a.bank == b.bank &&
         a.subarray == b.subarray;
}

std::uint32_t row_distance(const RowAddress& a, const RowAddress& b) {
  DL_REQUIRE(same_subarray(a, b), "row distance requires same subarray");
  return a.row > b.row ? a.row - b.row : b.row - a.row;
}

}  // namespace dl::dram
