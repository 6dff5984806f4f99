#include "core/model_bank.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/textio.h"
#include "core/profile_io.h"

namespace cocg::core {

namespace {

constexpr const char* kMagic = "cocg-bundle-v1";
constexpr const char* kVersionPrefix = "cocg-bundle-";
constexpr const char* kFileExt = ".cocgm";

/// Game names become file names: anything outside [A-Za-z0-9._-] → '_'.
std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string("game") : out;
}

}  // namespace

void write_bundle(const GameBundle& bundle, std::ostream& os) {
  if (bundle.profile == nullptr) {
    throw std::runtime_error("write_bundle: bundle has no profile");
  }
  FullPrecision precision(os);
  os << kMagic << '\n';
  os << "chosen_k " << bundle.chosen_k << '\n';
  os << "mean_run_duration_ms " << bundle.mean_run_duration_ms << '\n';
  os << "sse_by_k " << bundle.sse_by_k.size();
  for (double v : bundle.sse_by_k) os << ' ' << v;
  os << '\n';
  write_profile(*bundle.profile, os);
  // Re-serialize the predictor artifact via a throwaway StagePredictor so
  // there is exactly one writer for the predictor block.
  StagePredictor::from_artifact(bundle.predictor, bundle.profile.get())
      ->save_bundle(os);
  os << "end-bundle\n";
}

void save_bundle_file(const GameBundle& bundle, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_bundle: cannot open " + path);
  write_bundle(bundle, out);
  if (!out) throw std::runtime_error("save_bundle: write failed " + path);
}

GameBundle read_bundle(std::istream& is) {
  LineReader r(is, "bundle");
  const std::string magic = r.line(kMagic);
  if (magic != kMagic) {
    if (magic.rfind(kVersionPrefix, 0) == 0) {
      r.fail("unsupported bundle format version '" + magic +
             "' (expected " + kMagic + ")");
    }
    r.fail("bad magic '" + magic + "' (expected " + std::string(kMagic) +
           ")");
  }
  GameBundle b;
  int chosen_k_line = 0;
  {
    auto ls = r.expect("chosen_k ");
    b.chosen_k = r.field<int>(ls, "chosen_k");
    chosen_k_line = r.line_no();
  }
  {
    auto ls = r.expect("mean_run_duration_ms ");
    b.mean_run_duration_ms = r.field<DurationMs>(ls, "mean_run_duration_ms");
  }
  {
    auto ls = r.expect("sse_by_k ");
    // The count sizes nothing: a count beyond the line's values fails at
    // the first missing one.
    const auto n = r.field<std::size_t>(ls, "sse_by_k count");
    for (std::size_t i = 0; i < n; ++i) {
      const double v = r.field<double>(ls, "sse_by_k value");
      if (!std::isfinite(v) || v < 0.0) {
        r.fail("sse_by_k values must be finite and non-negative");
      }
      b.sse_by_k.push_back(v);
    }
  }
  b.profile = std::make_shared<const GameProfile>(read_profile(r));
  // FrameProfiler makes one cluster per chosen K.
  if (b.chosen_k != b.profile->num_clusters()) {
    r.fail_at(chosen_k_line,
              "chosen_k " + std::to_string(b.chosen_k) +
                  " does not match the profile's " +
                  std::to_string(b.profile->num_clusters()) + " clusters");
  }
  b.predictor = StagePredictor::read_artifact(r);
  {
    const std::string end = r.line("end-bundle");
    if (end != "end-bundle") {
      r.fail("expected 'end-bundle', got '" + end + "'");
    }
  }
  return b;
}

GameBundle load_bundle_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_bundle: cannot open " + path);
  try {
    return read_bundle(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

GameBundle ModelBank::bundle_from(const TrainedGame& tg) {
  COCG_EXPECTS_MSG(tg.profile != nullptr && tg.predictor != nullptr &&
                       tg.predictor->trained(),
                   "bundle_from requires a fully trained game");
  GameBundle b;
  b.profile = std::make_shared<const GameProfile>(*tg.profile);
  b.predictor = tg.predictor->to_artifact();
  b.sse_by_k = tg.sse_by_k;
  b.chosen_k = tg.chosen_k;
  b.mean_run_duration_ms = tg.mean_run_duration_ms;
  return b;
}

void ModelBank::add(GameBundle bundle) {
  if (bundle.profile == nullptr) {
    throw std::runtime_error("ModelBank::add: bundle has no profile");
  }
  // Every predictor instantiated from this bundle shares one refit memo.
  if (bundle.predictor.refits == nullptr) {
    bundle.predictor.refits = std::make_shared<RefitMemo>();
  }
  const std::string name = bundle.game_name();
  bundles_.insert_or_assign(name, std::move(bundle));
}

void ModelBank::add_trained(const TrainedGame& tg) {
  add(bundle_from(tg));
}

bool ModelBank::has(const std::string& game) const {
  return bundles_.count(game) != 0;
}

std::vector<std::string> ModelBank::games() const {
  std::vector<std::string> out;
  out.reserve(bundles_.size());
  for (const auto& [name, b] : bundles_) out.push_back(name);
  return out;
}

const GameBundle& ModelBank::bundle(const std::string& game) const {
  auto it = bundles_.find(game);
  if (it == bundles_.end()) {
    throw std::runtime_error("model bank has no bundle for game '" + game +
                             "'");
  }
  return it->second;
}

TrainedGame ModelBank::instantiate(const std::string& game,
                                   const game::GameSpec* spec) const {
  const GameBundle& b = bundle(game);
  TrainedGame tg;
  tg.spec = spec;
  tg.profile = std::make_shared<GameProfile>(*b.profile);
  tg.predictor = StagePredictor::from_artifact(b.predictor, tg.profile.get());
  tg.sse_by_k = b.sse_by_k;
  tg.chosen_k = b.chosen_k;
  tg.mean_run_duration_ms = b.mean_run_duration_ms;
  return tg;
}

std::map<std::string, TrainedGame> ModelBank::instantiate_suite(
    const std::vector<game::GameSpec>& suite) const {
  std::map<std::string, TrainedGame> out;
  for (const auto& spec : suite) {
    if (!has(spec.name)) {
      throw std::runtime_error("model bank has no bundle for game '" +
                               spec.name + "'");
    }
    out.emplace(spec.name, instantiate(spec.name, &spec));
  }
  return out;
}

std::vector<std::string> ModelBank::save_dir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("save_dir: cannot create " + dir + ": " +
                             ec.message());
  }
  std::vector<std::string> paths;
  for (const auto& [name, b] : bundles_) {
    const auto path =
        (std::filesystem::path(dir) / (sanitize_name(name) + kFileExt))
            .string();
    save_bundle_file(b, path);
    paths.push_back(path);
  }
  return paths;
}

ModelBank ModelBank::load_dir(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("load_dir: not a directory: " + dir);
  }
  ModelBank bank;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != kFileExt) {
      continue;
    }
    bank.add(load_bundle_file(entry.path().string()));
  }
  return bank;
}

}  // namespace cocg::core
