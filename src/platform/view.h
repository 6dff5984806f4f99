// The scheduler's window onto the platform.
//
// Schedulers see servers, placements, and observed telemetry — never a
// session's internal ground truth (its plan or true stage). This enforces
// the paper's information model: CoCG works from 5-second resource samples.
#pragma once

#include <vector>

#include "common/resources.h"
#include "common/types.h"
#include "game/spec.h"
#include "hw/server.h"
#include "telemetry/sample_window.h"

namespace cocg::platform {

struct SessionInfo {
  SessionId id;
  const game::GameSpec* spec = nullptr;
  std::size_t script_idx = 0;
  std::uint64_t player_id = 0;
  ServerId server;
  int gpu_index = 0;
  ResourceVector allocation;
  TimeMs start_time = 0;
};

class PlatformView {
 public:
  virtual ~PlatformView() = default;

  virtual TimeMs now() const = 0;

  virtual const std::vector<ServerId>& server_ids() const = 0;
  virtual const hw::Server& server(ServerId id) const = 0;

  /// All running sessions, ordered by id for determinism.
  virtual std::vector<SessionId> session_ids() const = 0;
  virtual SessionInfo session_info(SessionId sid) const = 0;

  /// A session's newest telemetry: the last SampleWindow::kCapacity
  /// 1-second samples, addressed by absolute sample number, plus a count of
  /// every sample recorded. Windows of up to kCapacity samples can be read
  /// at any point in a session's life; older samples are gone. Ground-truth
  /// fields are populated for evaluation, but schedulers must not read them.
  virtual const telemetry::SampleWindow& session_samples(
      SessionId sid) const = 0;

  /// Change a session's allocation cap. Fails (false) when it does not fit,
  /// unless allow_oversubscribe.
  virtual bool reallocate(SessionId sid, const ResourceVector& allocation,
                          bool allow_oversubscribe = false) = 0;

  /// Freeze/unfreeze a loading stage's progress (regulator time-stealing).
  virtual void hold_loading(SessionId sid, bool hold) = 0;
};

}  // namespace cocg::platform
