// Quickstart: protect a DRAM region with DRAM-Locker in ~30 lines.
//
// Builds a simulated DDR4 system, places data in it, registers the region
// with the defense, and shows that a double-sided RowHammer attacker is
// denied while the owning process keeps full access.
//
//   $ ./quickstart
#include <array>
#include <cstdio>

#include "core/system.hpp"

int main() {
  using namespace dl;

  // 1. A simulated DRAM system (DDR4 timing, RowHammer threshold 10k).
  core::SystemConfig config;
  config.disturbance.t_rh = 10000;
  core::Fabric sys(config);

  // 2. Write data we care about into row 100.
  const std::array<std::uint8_t, 11> secret{"top-secret"};
  const dram::PhysAddr addr = sys.row_base(100);
  sys.write(addr, secret);

  // 3. Install DRAM-Locker and protect the region: the rows physically
  //    adjacent to our data get locked.
  auto& locker = sys.enable_locker();
  const std::size_t locked = sys.protect_physical_range(addr, secret.size());
  std::printf("locked %zu aggressor-candidate rows around row 100\n", locked);

  // 4. The attacker hammers the neighbours — every activation is denied.
  const auto result = sys.hammer_attack(
      /*victim=*/100, rowhammer::HammerPattern::kDoubleSided,
      /*act_budget=*/50000);
  std::printf("attacker: %llu activations granted, %llu denied, "
              "%llu flips in our data\n",
              static_cast<unsigned long long>(result.granted_acts),
              static_cast<unsigned long long>(result.denied_acts),
              static_cast<unsigned long long>(result.flips_in_victim));

  // 5. We can still read our data (and unlock our own rows when needed).
  std::array<std::uint8_t, 11> readback{};
  sys.read(addr, readback, /*can_unlock=*/true);
  std::printf("readback: \"%s\" — %s\n",
              reinterpret_cast<const char*>(readback.data()),
              readback == secret ? "intact" : "CORRUPTED");
  std::printf("defense overhead so far: %llu denied lookups, %llu swaps, "
              "%.1f ns of mitigation traffic\n",
              static_cast<unsigned long long>(locker.stats().denied),
              static_cast<unsigned long long>(locker.stats().unlock_swaps),
              to_nanoseconds(sys.channel().defense_time()));
  return 0;
}
