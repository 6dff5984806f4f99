#include "platform/streaming.h"

#include <algorithm>

#include "common/check.h"

namespace cocg::platform {

StreamingModel::StreamingModel(StreamingConfig cfg) : cfg_(cfg) {
  COCG_EXPECTS(cfg_.network_jitter_ms >= 0.0);
  COCG_EXPECTS(cfg_.latency_budget_ms > 0.0);
}

}  // namespace cocg::platform
