// Profile migration across heterogeneous platforms (§IV-D).
//
// "No matter what platform the game is migrated to, the number of stages
// and the logical relationship between the stages will not change...
// The only thing that will change is the amount of resources consumed,
// which can be obtained in a single experiment."
//
// migrate_profile() transforms a GameProfile measured on one SKU into the
// profile expected on another by rescaling the compute dimensions — the
// stage catalog (ids, signatures, durations) is preserved, so the trained
// stage predictor carries over unchanged.
#pragma once

#include "core/game_profile.h"
#include "core/offline.h"
#include "hw/server.h"

namespace cocg::core {

/// Rescale a profile measured on `from` for deployment on `to`.
GameProfile migrate_profile(const GameProfile& profile,
                            const hw::ServerSpec& from,
                            const hw::ServerSpec& to);

/// Migrate a trained game to another SKU: a new bundle pairs the rescaled
/// profile with the shared corpus and forests, and the predictor lineage
/// (active model, online accuracy) continues over it. `scaled` must be
/// the GameSpec describing the title on the target platform and must
/// outlive the result. The paper's point: no retraining is needed.
TrainedGame migrate_trained_game(TrainedGame&& tg,
                                 const hw::ServerSpec& from,
                                 const hw::ServerSpec& to,
                                 const game::GameSpec* scaled);

/// Migration fidelity: mean normalized distance between the centroids of
/// two profiles with identical catalogs (used to validate a migrated
/// profile against one freshly measured on the target SKU). Requires the
/// same cluster count.
double profile_centroid_error(const GameProfile& a, const GameProfile& b);

}  // namespace cocg::core
