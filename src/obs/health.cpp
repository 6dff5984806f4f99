#include "obs/health.h"

#include "obs/json.h"

namespace cocg::obs {

void write_health_snapshot(const HealthSnapshot& s, std::ostream& os) {
  os << "{\"t_ms\":" << s.t << ",\"arrivals\":" << s.arrivals
     << ",\"router_decisions_per_s\":" << json_number(s.router_decisions_per_s)
     << ",\"shards\":[";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    if (i) os << ',';
    const auto& sh = s.shards[i];
    os << "{\"shard\":" << sh.shard << ",\"servers\":" << sh.servers
       << ",\"running\":" << sh.running << ",\"queued\":" << sh.queued
       << ",\"pending_events\":" << sh.pending_events
       << ",\"routed\":" << sh.routed
       << ",\"mean_gpu_util\":" << json_number(sh.mean_gpu_util) << '}';
  }
  os << "],\"slo\":";
  SloTracker::write_attainment_json(s.slo, os);
  os << ",\"stage_costs\":";
  write_stage_costs_json(s.stage_costs, os);
  if (s.executor.present) {
    os << ",\"executor\":{\"jobs_run\":" << s.executor.jobs_run
       << ",\"steals\":" << s.executor.steals
       << ",\"steal_ns\":" << s.executor.steal_ns
       << ",\"idle_waits\":" << s.executor.idle_waits
       << ",\"idle_ns\":" << s.executor.idle_ns
       << ",\"syncs\":" << s.executor.syncs << '}';
  }
  os << "}\n";
}

void write_health_header(DurationMs interval_ms, std::ostream& os) {
  os << "{\"health_header\":1,\"interval_ms\":" << interval_ms << "}\n";
}

}  // namespace cocg::obs
