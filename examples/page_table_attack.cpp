// Page Table Attack (PTA) demo — Fig. 3(b) of the paper.
//
// The attacker flips a PFN bit in its *own* page-table entry via RowHammer
// so the entry points into the victim's physical memory, then overwrites
// victim data through an ordinary user-level store.  With DRAM-Locker
// guarding the page-table row's neighbours the redirect never happens.
//
//   $ ./page_table_attack
#include <array>
#include <cstdio>

#include "attack/pta.hpp"
#include "core/system.hpp"

namespace {

dl::core::SystemConfig system_config() {
  dl::core::SystemConfig cfg;
  cfg.geometry.banks = 2;
  cfg.geometry.subarrays_per_bank = 8;
  cfg.geometry.rows_per_subarray = 128;
  cfg.disturbance.t_rh = 500;
  return cfg;
}

void run(bool with_locker) {
  using namespace dl;
  core::Fabric sys(system_config());

  // Victim: one page of model data at a known virtual address.
  auto victim_space = sys.make_address_space();
  victim_space->map_contiguous(0x200000, 1);
  const auto victim_pte = victim_space->walk(0x200000);
  const std::array<std::uint8_t, 8> weights{10, 20, 30, 40, 50, 60, 70, 80};
  victim_space->write(0x200000, weights);

  // Attacker: its own process, its own address space.
  auto attacker_space = sys.make_address_space();
  attack::PtaConfig pcfg;
  pcfg.act_budget = 100000;
  auto pta = sys.make_page_table_attack(pcfg);
  pta.prepare(*attacker_space, victim_pte->pfn);

  if (with_locker) {
    auto& locker = sys.enable_locker();
    // The kernel protects page-table rows wholesale; DRAM-Locker locks
    // the rows adjacent to them so they cannot be hammered.
    const std::size_t locked = locker.protect_data_row(*pta.pte_row());
    std::printf("  [defense] locked %zu rows around the PTE row\n", locked);
  }

  const std::array<std::uint8_t, 8> payload{0xEF, 0xBE, 0xAD, 0xDE,
                                            0xEF, 0xBE, 0xAD, 0xDE};
  const auto res = pta.run(*attacker_space, victim_pte->pfn, payload);
  std::printf("  [attack] %llu ACTs granted, %llu denied, %llu PTE flips; "
              "redirect %s, payload %s\n",
              static_cast<unsigned long long>(res.acts_granted),
              static_cast<unsigned long long>(res.acts_denied),
              static_cast<unsigned long long>(res.pte_flips),
              res.redirected ? "SUCCEEDED" : "failed",
              res.payload_written ? "written" : "not written");

  std::array<std::uint8_t, 8> readback{};
  victim_space->read(0x200000, readback);
  std::printf("  [victim] data is %s\n\n",
              readback == weights ? "intact" : "CORRUPTED");
}

}  // namespace

int main() {
  std::printf("--- PTA without defense ---\n");
  run(false);
  std::printf("--- PTA with DRAM-Locker ---\n");
  run(true);
  return 0;
}
