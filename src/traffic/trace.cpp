#include "traffic/trace.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/textio.h"

namespace cocg::traffic {

namespace {

constexpr const char* kMagic = "cocg-traffic-v1";
constexpr const char* kVersionPrefix = "cocg-traffic-";

void require_single_line(const std::string& s, const char* what) {
  if (s.find('\n') != std::string::npos ||
      s.find('\r') != std::string::npos) {
    throw std::runtime_error(std::string("write_trace: ") + what +
                             " contains a line break: '" + s + "'");
  }
}

const char* category_token(game::GameCategory c) {
  switch (c) {
    case game::GameCategory::kWeb: return "web";
    case game::GameCategory::kMobile: return "mobile";
    case game::GameCategory::kConsole: return "console";
    case game::GameCategory::kMoba: return "moba";
  }
  throw std::runtime_error("write_trace: invalid game category");
}

game::GameCategory parse_category(LineReader& r, const std::string& tok) {
  if (tok == "web") return game::GameCategory::kWeb;
  if (tok == "mobile") return game::GameCategory::kMobile;
  if (tok == "console") return game::GameCategory::kConsole;
  if (tok == "moba") return game::GameCategory::kMoba;
  r.fail("unknown game category '" + tok + "'");
}

/// The remainder of `ls` after one leading space — the free-form tail of
/// a `region`/`game`/`meta` line.
std::string tail(LineReader& r, std::istringstream& ls, const char* what) {
  std::string rest;
  std::getline(ls, rest);
  if (rest.empty() || rest[0] != ' ' || rest.size() < 2) {
    r.fail(std::string("missing ") + what);
  }
  return rest.substr(1);
}

}  // namespace

const char* profile_name(PlayerProfile p) {
  switch (p) {
    case PlayerProfile::kCasual: return "casual";
    case PlayerProfile::kRegular: return "regular";
    case PlayerProfile::kHardcore: return "hardcore";
  }
  throw std::runtime_error("invalid player profile");
}

PlayerProfile parse_profile(const std::string& name) {
  if (name == "casual") return PlayerProfile::kCasual;
  if (name == "regular") return PlayerProfile::kRegular;
  if (name == "hardcore") return PlayerProfile::kHardcore;
  throw std::runtime_error("unknown player profile '" + name + "'");
}

std::uint32_t RegionTable::intern(const std::string& name) {
  const std::uint32_t found = find(name);
  if (found != npos) return found;
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t RegionTable::find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  return npos;
}

const std::string& RegionTable::name(std::uint32_t idx) const {
  if (idx >= names_.size()) {
    throw std::runtime_error("RegionTable: index " + std::to_string(idx) +
                             " out of range (" + std::to_string(size()) +
                             " regions)");
  }
  return names_[idx];
}

void write_trace(const Trace& trace, std::ostream& os) {
  os << kMagic << '\n';
  for (const auto& [k, v] : trace.meta) {
    require_single_line(k, "meta key");
    require_single_line(v, "meta value");
    if (k.empty() || k.find(' ') != std::string::npos) {
      throw std::runtime_error(
          "write_trace: meta key must be one non-empty token, got '" + k +
          "'");
    }
    os << "meta " << k << ' ' << v << '\n';
  }
  os << "regions " << trace.regions.size() << '\n';
  for (std::size_t i = 0; i < trace.regions.size(); ++i) {
    require_single_line(trace.regions[i], "region name");
    os << "region " << i << ' ' << trace.regions[i] << '\n';
  }
  os << "games " << trace.games.size() << '\n';
  for (std::size_t i = 0; i < trace.games.size(); ++i) {
    require_single_line(trace.games[i].name, "game name");
    os << "game " << i << ' ' << category_token(trace.games[i].category)
       << ' ' << trace.games[i].name << '\n';
  }
  os << "events " << trace.events.size() << '\n';
  TimeMs prev = 0;
  for (const auto& e : trace.events) {
    if (e.region >= trace.regions.size()) {
      throw std::runtime_error("write_trace: event region index " +
                               std::to_string(e.region) + " out of range");
    }
    if (e.game >= trace.games.size()) {
      throw std::runtime_error("write_trace: event game index " +
                               std::to_string(e.game) + " out of range");
    }
    if (e.t < prev) {
      throw std::runtime_error(
          "write_trace: event timestamps must be non-decreasing");
    }
    prev = e.t;
    os << "e " << e.t << ' ' << e.region << ' ' << e.game << ' '
       << e.player_id << ' ' << static_cast<int>(e.profile) << ' '
       << e.expected_session_ms << ' ' << e.script_idx << ' ' << e.shard
       << '\n';
  }
  os << "end-traffic\n";
  if (!os) throw std::runtime_error("write_trace: stream write failed");
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_trace: cannot open " + path);
  write_trace(trace, os);
  if (!os) throw std::runtime_error("save_trace: write failed " + path);
}

Trace read_trace(std::istream& is) {
  LineReader r(is, "trace");
  Trace t;
  {
    const std::string magic = r.line("magic");
    if (magic != kMagic) {
      if (magic.rfind(kVersionPrefix, 0) == 0) {
        r.fail("unsupported trace format version '" + magic +
               "' (expected " + kMagic + ")");
      }
      r.fail("bad magic '" + magic + "' (expected " + std::string(kMagic) +
             ")");
    }
  }
  // meta lines run until the regions header.
  std::string line = r.line("meta or regions");
  while (line.rfind("meta ", 0) == 0) {
    const std::string rest = line.substr(5);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos || sp == 0) {
      r.fail("malformed meta line '" + line + "' (want 'meta <key> <value>')");
    }
    t.meta[rest.substr(0, sp)] = rest.substr(sp + 1);
    line = r.line("meta or regions");
  }
  // Counts size nothing: a count beyond what follows fails at the first
  // missing line or value.
  std::size_t n_regions = 0;
  {
    if (line.rfind("regions ", 0) != 0) {
      r.fail("expected 'regions ', got '" + line + "'");
    }
    std::istringstream ls(line.substr(8));
    n_regions = r.field<std::size_t>(ls, "regions count");
  }
  for (std::size_t i = 0; i < n_regions; ++i) {
    auto ls = r.expect("region ");
    const auto idx = r.field<std::size_t>(ls, "region index");
    if (idx != i) {
      r.fail("region index " + std::to_string(idx) + " out of order (want " +
             std::to_string(i) + ")");
    }
    t.regions.push_back(tail(r, ls, "region name"));
  }
  std::size_t n_games = 0;
  {
    auto ls = r.expect("games ");
    n_games = r.field<std::size_t>(ls, "games count");
  }
  for (std::size_t i = 0; i < n_games; ++i) {
    auto ls = r.expect("game ");
    const auto idx = r.field<std::size_t>(ls, "game index");
    if (idx != i) {
      r.fail("game index " + std::to_string(idx) + " out of order (want " +
             std::to_string(i) + ")");
    }
    TraceGame g;
    g.category = parse_category(r, r.field<std::string>(ls, "game category"));
    g.name = tail(r, ls, "game name");
    t.games.push_back(std::move(g));
  }
  std::size_t n_events = 0;
  {
    auto ls = r.expect("events ");
    n_events = r.field<std::size_t>(ls, "events count");
  }
  TimeMs prev = 0;
  for (std::size_t i = 0; i < n_events; ++i) {
    auto ls = r.expect("e ");
    TraceEvent e;
    e.t = r.field<TimeMs>(ls, "event t_ms");
    e.region = r.field<std::uint32_t>(ls, "event region");
    e.game = r.field<std::uint32_t>(ls, "event game");
    e.player_id = r.field<std::uint64_t>(ls, "event player");
    const int prof = r.field<int>(ls, "event profile");
    if (prof < 0 || prof >= static_cast<int>(kNumProfiles)) {
      r.fail("event profile " + std::to_string(prof) + " out of range [0, " +
             std::to_string(kNumProfiles - 1) + "]");
    }
    e.profile = static_cast<PlayerProfile>(prof);
    e.expected_session_ms = r.field<DurationMs>(ls, "event expected_ms");
    e.script_idx = r.field<std::uint32_t>(ls, "event script");
    e.shard = r.field<std::int32_t>(ls, "event shard");
    if (e.t < 0) r.fail("event t_ms must be >= 0");
    if (e.t < prev) {
      r.fail("event timestamps must be non-decreasing (" +
             std::to_string(e.t) + " after " + std::to_string(prev) + ")");
    }
    prev = e.t;
    if (e.region >= t.regions.size()) {
      r.fail("event region " + std::to_string(e.region) +
             " out of range (" + std::to_string(t.regions.size()) +
             " regions)");
    }
    if (e.game >= t.games.size()) {
      r.fail("event game " + std::to_string(e.game) + " out of range (" +
             std::to_string(t.games.size()) + " games)");
    }
    if (e.expected_session_ms < 0) r.fail("event expected_ms must be >= 0");
    if (e.shard < -1) r.fail("event shard must be >= -1");
    t.events.push_back(e);
  }
  {
    const std::string end = r.line("end-traffic");
    if (end != "end-traffic") {
      r.fail("expected 'end-traffic', got '" + end + "'");
    }
  }
  return t;
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  return read_trace(is);
}

}  // namespace cocg::traffic
