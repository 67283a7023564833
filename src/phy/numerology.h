// 5G NR numerology (§II): the slot duration of numerology mu, which is the
// per-slot processing budget every PUSCH slot is scored against.
#ifndef PUSCHPOOL_PHY_NUMEROLOGY_H
#define PUSCHPOOL_PHY_NUMEROLOGY_H

#include <cstdint>

#include "common/check.h"

namespace pp::phy {

// Slot duration of 5G NR numerology mu (sub-carrier spacing 15 kHz * 2^mu):
// 1 ms / 2^mu.  This is the per-slot processing budget the paper's §II
// argument is about - a PUSCH slot missing it stalls the uplink - and the
// deadline the streaming scheduler (runtime/traffic.h) scores slots
// against.
inline double slot_budget_seconds(uint32_t mu) {
  PP_CHECK(mu <= 6, "5G NR defines numerologies mu = 0..6");
  return 1e-3 / static_cast<double>(1u << mu);
}

}  // namespace pp::phy

#endif  // PUSCHPOOL_PHY_NUMEROLOGY_H
