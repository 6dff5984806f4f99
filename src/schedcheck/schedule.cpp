#include "schedcheck/schedule.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/textio.h"

namespace cocg::schedcheck {

namespace {

constexpr const char* kMagic = "cocg-sched-v1";

const char* kPointNames[kNumPoints] = {
    "router_choice",     "admission",      "migration_trigger",
    "regulator_victim",  "regulator_hold", "executor_sync",
    "executor_steal",
};

void require_single_token(const std::string& s, const char* what) {
  if (s.empty() || s.find(' ') != std::string::npos ||
      s.find('\n') != std::string::npos ||
      s.find('\r') != std::string::npos) {
    throw std::runtime_error(std::string("write_schedule: ") + what +
                             " must be one non-empty token, got '" + s + "'");
  }
}

void require_single_line(const std::string& s, const char* what) {
  if (s.find('\n') != std::string::npos ||
      s.find('\r') != std::string::npos) {
    throw std::runtime_error(std::string("write_schedule: ") + what +
                             " contains a line break: '" + s + "'");
  }
}

}  // namespace

const char* point_name(Point p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= kNumPoints) {
    throw std::runtime_error("invalid schedule point id " +
                             std::to_string(idx));
  }
  return kPointNames[idx];
}

std::optional<Point> parse_point(const std::string& name) {
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    if (name == kPointNames[i]) return static_cast<Point>(i);
  }
  return std::nullopt;
}

bool operator==(const Record& a, const Record& b) {
  return a.point == b.point && a.t == b.t && a.seq == b.seq &&
         a.nchoices == b.nchoices && a.choice == b.choice;
}

std::size_t Schedule::total_records() const {
  std::size_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

std::string Schedule::meta_value(const std::string& key) const {
  for (const auto& [k, v] : meta) {
    if (k == key) return v;
  }
  return {};
}

void Schedule::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta.emplace_back(key, value);
}

bool operator==(const Schedule& a, const Schedule& b) {
  return a.meta == b.meta && a.streams == b.streams;
}

void write_schedule(const Schedule& s, std::ostream& os) {
  if (s.streams.empty()) {
    throw std::runtime_error(
        "write_schedule: a schedule needs at least the coordinator stream");
  }
  os << kMagic << '\n';
  for (const auto& [k, v] : s.meta) {
    require_single_token(k, "meta key");
    require_single_line(v, "meta value");
    os << "meta " << k << ' ' << v << '\n';
  }
  os << "points " << kNumPoints << '\n';
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    os << "point " << i << ' ' << kPointNames[i] << '\n';
  }
  os << "streams " << s.streams.size() << '\n';
  for (std::size_t si = 0; si < s.streams.size(); ++si) {
    const auto& recs = s.streams[si];
    os << "stream " << si << ' ' << recs.size() << '\n';
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const auto& r : recs) {
      const auto pid = static_cast<std::size_t>(r.point);
      if (pid >= kNumPoints) {
        throw std::runtime_error("write_schedule: invalid point id " +
                                 std::to_string(pid));
      }
      if (!first && r.seq <= prev_seq) {
        throw std::runtime_error(
            "write_schedule: stream " + std::to_string(si) +
            " record seqs must be strictly increasing (seq " +
            std::to_string(r.seq) + " after " + std::to_string(prev_seq) +
            ")");
      }
      first = false;
      prev_seq = r.seq;
      os << "r " << pid << ' ' << r.t << ' ' << r.seq << ' ' << r.nchoices
         << ' ' << r.choice << '\n';
    }
  }
  os << "end\n";
}

std::string schedule_text(const Schedule& s) {
  std::ostringstream os;
  write_schedule(s, os);
  return os.str();
}

Schedule read_schedule(std::istream& is) {
  LineReader r(is, "schedule");
  const std::string magic = r.line("magic");
  if (magic != kMagic) {
    r.fail("expected magic '" + std::string(kMagic) + "', got '" + magic +
           "'");
  }

  Schedule sched;
  std::string l = r.line("meta or points");
  while (l.rfind("meta ", 0) == 0) {
    std::istringstream ls(l.substr(5));
    std::string key;
    if (!(ls >> key)) r.fail("meta line missing key");
    std::string value;
    std::getline(ls, value);
    if (!value.empty() && value[0] == ' ') value = value.substr(1);
    sched.meta.emplace_back(key, value);
    l = r.line("meta or points");
  }

  {
    if (l.rfind("points ", 0) != 0) {
      r.fail("expected 'points', got '" + l + "'");
    }
    std::istringstream ls(l.substr(7));
    const auto n = r.field<std::size_t>(ls, "point count");
    if (n != kNumPoints) {
      r.fail("schedule declares " + std::to_string(n) +
             " points, this build has " + std::to_string(kNumPoints) +
             " — incompatible schedule version");
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::istringstream pl = r.expect("point ");
      const auto idx = r.field<std::size_t>(pl, "point id");
      const auto name = r.field<std::string>(pl, "point name");
      if (idx != i) r.fail("point ids must be dense and in order");
      if (name != kPointNames[i]) {
        r.fail("point " + std::to_string(i) + " is named '" + name +
               "' in the schedule but '" + kPointNames[i] +
               "' in this build — incompatible schedule version");
      }
    }
  }

  {
    std::istringstream ls = r.expect("streams ");
    const auto n = r.field<std::size_t>(ls, "stream count");
    if (n == 0) r.fail("a schedule needs at least the coordinator stream");
    // Counts size nothing: a count beyond what follows fails at the first
    // missing line.
    for (std::size_t si = 0; si < n; ++si) {
      std::istringstream sl = r.expect("stream ");
      const auto idx = r.field<std::size_t>(sl, "stream index");
      const auto count = r.field<std::size_t>(sl, "record count");
      if (idx != si) r.fail("stream indices must be dense and in order");
      auto& recs = sched.streams.emplace_back();
      std::uint64_t prev_seq = 0;
      for (std::size_t ri = 0; ri < count; ++ri) {
        std::istringstream rl = r.expect("r ");
        Record rec;
        const auto pid = r.field<std::size_t>(rl, "point id");
        if (pid >= kNumPoints) {
          r.fail("point id " + std::to_string(pid) + " out of range");
        }
        rec.point = static_cast<Point>(pid);
        rec.t = r.field<TimeMs>(rl, "time");
        rec.seq = r.field<std::uint64_t>(rl, "seq");
        rec.nchoices = r.field<std::uint32_t>(rl, "nchoices");
        rec.choice = r.field<std::uint32_t>(rl, "choice");
        if (rec.nchoices == 0) r.fail("nchoices must be positive");
        if (ri > 0 && rec.seq <= prev_seq) {
          r.fail("record seqs must be strictly increasing within a stream");
        }
        prev_seq = rec.seq;
        recs.push_back(rec);
      }
    }
  }

  {
    const std::string end = r.line("end");
    if (end != "end") r.fail("expected 'end', got '" + end + "'");
  }
  return sched;
}

Schedule load_schedule(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open schedule file '" + path + "'");
  }
  return read_schedule(is);
}

void save_schedule(const Schedule& s, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open schedule file '" + path +
                             "' for writing");
  }
  write_schedule(s, os);
  os.flush();
  if (!os) {
    throw std::runtime_error("failed writing schedule file '" + path + "'");
  }
}

}  // namespace cocg::schedcheck
