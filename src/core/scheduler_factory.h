// Name → scheduler construction, shared by the CLI tools and benches.
//
// Two sources of trained models: a freshly trained suite (the legacy
// retrain-per-use path) or a ModelBank (the train-once path) — the second
// overload instantiates per-scheduler TrainedGames from the bank, sharing
// its bundles.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model_bank.h"
#include "core/offline.h"
#include "platform/scheduler.h"

namespace cocg::core {

/// "cocg" | "vbp" | "gaugur" | "improved". Throws std::runtime_error on
/// an unknown name.
std::unique_ptr<platform::Scheduler> make_named_scheduler(
    const std::string& name, std::map<std::string, TrainedGame> models);

/// Same, with the models materialized from `bank` for every game in
/// `suite` (which must outlive the scheduler).
std::unique_ptr<platform::Scheduler> make_named_scheduler(
    const std::string& name, const ModelBank& bank,
    const std::vector<game::GameSpec>& suite);

}  // namespace cocg::core
