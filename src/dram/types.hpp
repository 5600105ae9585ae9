// Core DRAM geometry and addressing types.
//
// The simulator models a DIMM as channel → rank → bank → subarray → row.
// Rows are identified two ways:
//  * RowAddress      — the structured coordinate (bank, subarray, row, ...)
//  * GlobalRowId     — a dense 0-based index over every row in the system,
//                      convenient for tables keyed by row.
// Rows within a subarray are physically adjacent (RowHammer blast radius and
// RowClone both operate within a subarray); rows in different subarrays are
// never adjacent.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dl::dram {

using GlobalRowId = std::uint64_t;

/// Static shape of the simulated memory system.
struct Geometry {
  std::uint32_t channels = 1;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 16;              ///< banks per rank
  std::uint32_t subarrays_per_bank = 64;
  std::uint32_t rows_per_subarray = 512;
  std::uint32_t row_bytes = 8192;        ///< 8 KiB row (x8 DDR4 DIMM)

  [[nodiscard]] std::uint64_t rows_per_bank() const {
    return static_cast<std::uint64_t>(subarrays_per_bank) * rows_per_subarray;
  }
  [[nodiscard]] std::uint64_t total_banks() const {
    return static_cast<std::uint64_t>(channels) * ranks * banks;
  }
  [[nodiscard]] std::uint64_t total_rows() const {
    return total_banks() * rows_per_bank();
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return total_rows() * row_bytes;
  }

  /// 32 GiB : 16-bank DDR4 configuration used for Table I of the paper.
  static Geometry ddr4_32gb_16bank();

  /// Small geometry for unit tests (fast, few rows).
  static Geometry tiny();
};

/// Structured coordinate of one DRAM row.
struct RowAddress {
  std::uint32_t channel = 0;
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint32_t subarray = 0;
  std::uint32_t row = 0;  ///< row index *within* the subarray

  auto operator<=>(const RowAddress&) const = default;

  [[nodiscard]] std::string to_string() const;
};

/// Converts a structured address to a dense global row id.
[[nodiscard]] GlobalRowId to_global(const Geometry& g, const RowAddress& a);

/// Converts a dense global row id back to a structured address.
[[nodiscard]] RowAddress from_global(const Geometry& g, GlobalRowId id);

/// A global row id split into its subarray and its row within it.  Global ids
/// number the rows of one subarray consecutively, so the physical neighbour
/// `d` rows away is `base() + row + d` while it stays inside the subarray.
struct SubarrayRow {
  std::uint64_t subarray = 0;  ///< dense index over every subarray
  std::uint32_t row = 0;       ///< row index within the subarray
  std::uint32_t rows_per_subarray = 0;

  /// Global id of the subarray's row 0.
  [[nodiscard]] GlobalRowId base() const {
    return subarray * rows_per_subarray;
  }

  /// The row `d` rows away in the same subarray, or nullopt past its edge.
  [[nodiscard]] std::optional<GlobalRowId> offset(std::int64_t d) const {
    const std::int64_t r = static_cast<std::int64_t>(row) + d;
    if (r < 0 || r >= static_cast<std::int64_t>(rows_per_subarray)) {
      return std::nullopt;
    }
    return base() + static_cast<GlobalRowId>(r);
  }

  /// The rows within `radius` of this one in the same subarray, in ascending
  /// order, without the row itself.
  [[nodiscard]] std::vector<GlobalRowId> neighbours(std::uint32_t radius) const;
};

/// Splits a global row id; throws dl::Error when it is out of range.
[[nodiscard]] SubarrayRow split_row(const Geometry& g, GlobalRowId id);

/// True iff the two rows sit in the same subarray (hence can be physically
/// adjacent and are RowClone-compatible).
[[nodiscard]] bool same_subarray(const RowAddress& a, const RowAddress& b);

/// Physical distance in rows between two rows of the same subarray.
[[nodiscard]] std::uint32_t row_distance(const RowAddress& a,
                                         const RowAddress& b);

}  // namespace dl::dram
