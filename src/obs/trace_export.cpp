#include "obs/trace_export.h"

#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace cocg::obs {

void set_trace_enabled(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

void TraceBuilder::set_process_name(int pid, const std::string& name) {
  process_names_[pid] = name;
}

void TraceBuilder::set_thread_name(int pid, int tid, const std::string& name) {
  thread_names_[{pid, tid}] = name;
}

void TraceBuilder::add_complete(int pid, int tid, const std::string& name,
                                const std::string& cat, TimeMs start,
                                DurationMs dur, Args args) {
  Record r;
  r.ph = 'X';
  r.pid = pid;
  r.tid = tid;
  r.ts_ms = start;
  r.dur_ms = dur;
  r.name = name;
  r.cat = cat;
  r.args = std::move(args);
  events_.push_back(std::move(r));
}

void TraceBuilder::add_instant(int pid, int tid, const std::string& name,
                               const std::string& cat, TimeMs t, Args args) {
  Record r;
  r.ph = 'i';
  r.pid = pid;
  r.tid = tid;
  r.ts_ms = t;
  r.name = name;
  r.cat = cat;
  r.args = std::move(args);
  events_.push_back(std::move(r));
}

void TraceBuilder::add_counter(int pid, const std::string& name, TimeMs t,
                               NumberArgs series) {
  Record r;
  r.ph = 'C';
  r.pid = pid;
  r.ts_ms = t;
  r.name = name;
  r.nargs = std::move(series);
  events_.push_back(std::move(r));
}

void TraceBuilder::append(const TraceBuilder& other, int pid_offset,
                          const std::string& process_prefix) {
  for (const auto& [pid, name] : other.process_names_) {
    process_names_[pid + pid_offset] = process_prefix + name;
  }
  for (const auto& [key, name] : other.thread_names_) {
    thread_names_[{key.first + pid_offset, key.second}] = name;
  }
  events_.reserve(events_.size() + other.events_.size());
  for (Record r : other.events_) {
    // Give event-carrying pids the source never named a stable label so
    // shards stay distinguishable in the merged view.
    if (process_names_.count(r.pid + pid_offset) == 0) {
      process_names_[r.pid + pid_offset] =
          process_prefix + "pid" + std::to_string(r.pid);
    }
    r.pid += pid_offset;
    events_.push_back(std::move(r));
  }
}

void TraceBuilder::clear() {
  events_.clear();
  process_names_.clear();
  thread_names_.clear();
}

void TraceBuilder::write_record(std::ostream& os, const Record& r) const {
  JsonObjectWriter w(os);
  w.field("ph", std::string(1, r.ph));
  w.field("pid", r.pid);
  if (r.ph != 'C') w.field("tid", r.tid);
  w.field("ts", static_cast<std::int64_t>(r.ts_ms) * 1000);
  if (r.ph == 'X') {
    w.field("dur", static_cast<std::int64_t>(r.dur_ms) * 1000);
  }
  w.field("name", r.name);
  if (!r.cat.empty()) w.field("cat", r.cat);
  if (r.ph == 'i') w.field("s", "t");
  if (!r.args.empty() || !r.nargs.empty() || r.ph == 'C') {
    auto& as = w.raw_field("args");
    JsonObjectWriter aw(as);
    for (const auto& [k, v] : r.args) aw.field(k, v);
    for (const auto& [k, v] : r.nargs) aw.field(k, v);
  }
}

void TraceBuilder::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    JsonObjectWriter w(os);
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("name", "process_name");
    auto& as = w.raw_field("args");
    JsonObjectWriter aw(as);
    aw.field("name", name);
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    JsonObjectWriter w(os);
    w.field("ph", "M");
    w.field("pid", key.first);
    w.field("tid", key.second);
    w.field("name", "thread_name");
    auto& as = w.raw_field("args");
    JsonObjectWriter aw(as);
    aw.field("name", name);
  }
  for (const auto& r : events_) {
    sep();
    write_record(os, r);
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

std::string TraceBuilder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace cocg::obs
