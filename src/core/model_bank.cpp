#include "core/model_bank.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/textio.h"
#include "core/profile_io.h"
#include "ml/model_io.h"

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

constexpr const char* kPredictorMagic = "cocg-predictor-v1";
constexpr const char* kPredictorVersionPrefix = "cocg-predictor-";

/// The predictor block: config, trained P, corpus and forests.
void write_predictor(const GameBundle& b, std::ostream& os) {
  const PredictorConfig& cfg = b.cfg;
  os << kPredictorMagic << '\n';
  os << "model " << ml::model_kind_name(cfg.model) << '\n';
  os << "category " << static_cast<int>(cfg.category) << '\n';
  os << "history_len " << cfg.encoder.history_len << '\n';
  os << "player_features " << (cfg.encoder.player_features ? 1 : 0) << '\n';
  os << "mode_feature " << (cfg.encoder.mode_feature ? 1 : 0) << '\n';
  os << "train_fraction " << cfg.train_fraction << '\n';
  os << "min_player_runs " << cfg.min_player_runs << '\n';
  os << "accuracy " << b.trained.accuracy << '\n';
  os << "corpus " << b.corpus->size() << '\n';
  for (const auto& run : *b.corpus) {
    os << "run " << run.player_id << ' ' << run.script_idx << ' '
       << run.stage_seq.size();
    for (int st : run.stage_seq) os << ' ' << st;
    os << '\n';
  }
  os << "pooled\n";
  ml::write_model(*b.trained.pooled, os);
  os << "per_player " << b.trained.per_player.size() << '\n';
  for (const auto& [pid, model] : b.trained.per_player) {
    os << "player " << pid << '\n';
    ml::write_model(*model, os);
  }
  os << "end-predictor\n";
}

/// One forest read at line `line` (the `pooled` or `player <id>` line
/// that heads it): it must be of the kind the `model` line names, and fit
/// the encoder's rows and the profile's stage-type catalog, so no loaded
/// forest can fail a predict precondition.
std::shared_ptr<const ml::CompiledForest> read_forest(
    LineReader& r, int line, const std::string& what, ml::ModelKind kind,
    const FeatureEncoder& encoder) {
  auto forest =
      std::make_shared<const ml::CompiledForest>(ml::read_model(r));
  if (!forest->trained()) r.fail_at(line, "'" + what + "' forest is empty");
  if (forest->kind() != kind) {
    r.fail_at(line, "'" + what + "' forest is " +
                        ml::model_kind_name(forest->kind()) +
                        ", but the model line says " +
                        ml::model_kind_name(kind));
  }
  const auto width = static_cast<int>(encoder.feature_names().size());
  if (forest->num_features() > width) {
    r.fail_at(line, "'" + what + "' forest reads " +
                        std::to_string(forest->num_features()) +
                        " features, but the encoder emits " +
                        std::to_string(width));
  }
  if (forest->num_classes() > encoder.num_types()) {
    r.fail_at(line, "'" + what + "' forest predicts " +
                        std::to_string(forest->num_classes()) +
                        " stage types, but the profile's catalog has " +
                        std::to_string(encoder.num_types()));
  }
  return forest;
}

/// Read the predictor block into `b`, whose profile is already read.
void read_predictor(LineReader& r, GameBundle& b) {
  const std::string magic = r.line(kPredictorMagic);
  if (magic != kPredictorMagic) {
    if (magic.rfind(kPredictorVersionPrefix, 0) == 0) {
      r.fail("unsupported predictor format version '" + magic +
             "' (expected " + kPredictorMagic + ")");
    }
    r.fail("bad magic '" + magic + "' (expected " +
           std::string(kPredictorMagic) + ")");
  }
  PredictorConfig& cfg = b.cfg;
  {
    auto ls = r.expect("model ");
    const auto name = r.field<std::string>(ls, "model");
    if (!ml::parse_model_kind(name, cfg.model)) {
      r.fail("unknown model kind '" + name + "'");
    }
  }
  {
    auto ls = r.expect("category ");
    const int c = r.field<int>(ls, "category");
    if (c < 0 || c > static_cast<int>(game::GameCategory::kMoba)) {
      r.fail("category out of range");
    }
    cfg.category = static_cast<game::GameCategory>(c);
  }
  {
    auto ls = r.expect("history_len ");
    cfg.encoder.history_len = r.field<int>(ls, "history_len");
    if (cfg.encoder.history_len < 1) r.fail("history_len must be >= 1");
  }
  {
    auto ls = r.expect("player_features ");
    cfg.encoder.player_features = r.field<int>(ls, "player_features") != 0;
  }
  {
    auto ls = r.expect("mode_feature ");
    cfg.encoder.mode_feature = r.field<int>(ls, "mode_feature") != 0;
  }
  {
    auto ls = r.expect("train_fraction ");
    cfg.train_fraction = r.field<double>(ls, "train_fraction");
    if (cfg.train_fraction <= 0.0 || cfg.train_fraction >= 1.0) {
      r.fail("train_fraction must be in (0, 1)");
    }
  }
  {
    auto ls = r.expect("min_player_runs ");
    cfg.min_player_runs = r.field<std::size_t>(ls, "min_player_runs");
  }
  {
    auto ls = r.expect("accuracy ");
    b.trained.accuracy = r.field<double>(ls, "accuracy");
    // Eq. 1's S = (1 - P) x M must stay within [0, M].
    if (!(b.trained.accuracy >= 0.0 && b.trained.accuracy <= 1.0)) {
      r.fail("accuracy must be in [0, 1]");
    }
  }
  const GameProfile& profile = *b.profile;
  // Counts size nothing: a count beyond what follows fails at the first
  // missing line or value.
  std::vector<TrainingRun> corpus;
  std::size_t n_runs = 0;
  int corpus_line = 0;
  {
    auto ls = r.expect("corpus ");
    n_runs = r.field<std::size_t>(ls, "corpus");
    corpus_line = r.line_no();
  }
  bool has_pair = false;
  for (std::size_t i = 0; i < n_runs; ++i) {
    auto ls = r.expect("run ");
    TrainingRun run;
    run.player_id = r.field<std::uint64_t>(ls, "run player");
    run.script_idx = r.field<std::size_t>(ls, "run script");
    const auto len = r.field<std::size_t>(ls, "run length");
    for (std::size_t s = 0; s < len; ++s) {
      const int st = r.field<int>(ls, "run stage");
      has_pair = has_pair || (st >= 0 && st < profile.num_stage_types() &&
                              !profile.stage_type(st).loading);
      run.stage_seq.push_back(st);
    }
    corpus.push_back(std::move(run));
  }
  // A corpus is either absent (no retraining) or able to retrain, so the
  // §IV-B2 fallback cannot fail mid-run.
  if (n_runs > 0 && !has_pair) {
    r.fail_at(corpus_line,
              "'corpus " + std::to_string(n_runs) +
                  "' yields no training pair (no run has an execution "
                  "stage of the profile's catalog)");
  }
  b.corpus =
      std::make_shared<const std::vector<TrainingRun>>(std::move(corpus));
  const FeatureEncoder encoder(cfg.encoder, profile.num_stage_types());
  {
    const std::string pooled = r.line("pooled");
    if (pooled != "pooled") {
      r.fail("expected 'pooled', got '" + pooled + "'");
    }
  }
  b.trained.pooled =
      read_forest(r, r.line_no(), "pooled", cfg.model, encoder);
  std::size_t n_players = 0;
  {
    auto ls = r.expect("per_player ");
    n_players = r.field<std::size_t>(ls, "per_player");
  }
  for (std::size_t i = 0; i < n_players; ++i) {
    auto ls = r.expect("player ");
    const auto pid = r.field<std::uint64_t>(ls, "player id");
    b.trained.per_player[pid] =
        read_forest(r, r.line_no(), "player " + std::to_string(pid),
                    cfg.model, encoder);
  }
  {
    const std::string end = r.line("end-predictor");
    if (end != "end-predictor") {
      r.fail("expected 'end-predictor', got '" + end + "'");
    }
  }
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
  write_predictor(bundle, os);
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
  read_predictor(r, b);
  b.refits = std::make_shared<RefitMemo>();
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

void ModelBank::add(std::shared_ptr<const GameBundle> bundle) {
  if (bundle == nullptr || bundle->profile == nullptr) {
    throw std::runtime_error("ModelBank::add: bundle has no profile");
  }
  const std::string name = bundle->game_name();
  bundles_.insert_or_assign(name, std::move(bundle));
}

void ModelBank::add_trained(const TrainedGame& tg) {
  add(tg.predictor->bundle());
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

const std::shared_ptr<const GameBundle>& ModelBank::find(
    const std::string& game) const {
  auto it = bundles_.find(game);
  if (it == bundles_.end()) {
    throw std::runtime_error("model bank has no bundle for game '" + game +
                             "'");
  }
  return it->second;
}

const GameBundle& ModelBank::bundle(const std::string& game) const {
  return *find(game);
}

TrainedGame ModelBank::instantiate(const std::string& game,
                                   const game::GameSpec* spec) const {
  TrainedGame tg;
  tg.spec = spec;
  tg.predictor = std::make_unique<StagePredictor>(find(game));
  return tg;
}

std::map<std::string, TrainedGame> ModelBank::instantiate_suite(
    const std::vector<game::GameSpec>& suite) const {
  std::map<std::string, TrainedGame> out;
  for (const auto& spec : suite) {
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
    save_bundle_file(*b, path);
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
    bank.add(std::make_shared<const GameBundle>(
        load_bundle_file(entry.path().string())));
  }
  return bank;
}

}  // namespace cocg::core
