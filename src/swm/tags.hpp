#pragma once

/// \file tags.hpp
/// The complete message-tag space of the shallow-water application.
///
/// Every point-to-point channel the swm layer opens on the simulated
/// MPI lives in one of three disjoint bands, so a packed halo message
/// can never be matched by a checkpoint receive (or vice versa) no
/// matter how a fault-plane retry or a recovery round interleaves them:
///
/// | band                | tags                 | owner                  |
/// |---------------------|----------------------|------------------------|
/// | halo exchange       | 1100 – 1101          | swm/halo.hpp           |
/// | resilience protocol | 1<<18 – (1<<18)+16k  | swm/resilience.hpp     |
/// | collectives         | >= 1<<20             | mpisim/collectives.hpp |
///
/// The halo channel uses a tag *pair*: `halo` carries the upward send
/// (my top rows to rank r+1) and `halo + 1` the downward send, matching
/// `halo_exchanger::start`.

namespace tfx::swm::tags {

// -- halo channel (swm::halo_exchanger): u, v and eta ride in one
//    packed payload per direction.
inline constexpr int halo = 1100;

// -- resilience band: buddy checkpointing and rollback recovery
//    (resilience.hpp re-exports these under its historical names).
inline constexpr int checkpoint = 1 << 18;           ///< buddy prepare
inline constexpr int transfer = (1 << 18) + 1;       ///< buddy re-seed
inline constexpr int recovery = (1 << 18) + (1 << 14);  ///< survivor agreement

}  // namespace tfx::swm::tags
