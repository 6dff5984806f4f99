// Trace text format: exact round trip and "trace line N" diagnostics on
// every malformed-input path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "traffic/trace.h"

namespace cocg::traffic {
namespace {

Trace sample_trace() {
  Trace t;
  t.meta["generator"] = "test";
  t.meta["note"] = "free form value with spaces";
  t.regions = {"global", "eu", "us-east"};
  t.games.push_back({"DOTA2", game::GameCategory::kMoba});
  t.games.push_back({"Devil May Cry", game::GameCategory::kConsole});
  t.events.push_back({0, 1, 0, 7, PlayerProfile::kCasual, 600000, 2, -1});
  t.events.push_back({1500, 2, 1, 42, PlayerProfile::kHardcore, 3600000,
                      0, 3});
  t.events.push_back({1500, 0, 0, 8, PlayerProfile::kRegular, 0, 1, -1});
  return t;
}

std::string encode(const Trace& t) {
  std::ostringstream os;
  write_trace(t, os);
  return os.str();
}

Trace decode(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

/// The diagnostic thrown for `text`, or "" when it parses cleanly.
std::string error_for(const std::string& text) {
  try {
    decode(text);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

TEST(TraceIo, RoundTripIsExact) {
  const Trace t = sample_trace();
  const std::string text = encode(t);
  const Trace back = decode(text);
  EXPECT_EQ(back, t);
  // Byte-exactness, not just structural equality: re-encoding the parse
  // reproduces the file verbatim (the CI round-trip job compares bytes).
  EXPECT_EQ(encode(back), text);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace t;
  t.regions = {"global"};
  EXPECT_EQ(decode(encode(t)), t);
}

TEST(TraceIo, GameNamesWithSpacesSurvive) {
  const Trace back = decode(encode(sample_trace()));
  EXPECT_EQ(back.games[1].name, "Devil May Cry");
  EXPECT_EQ(back.regions[2], "us-east");
  EXPECT_EQ(back.meta.at("note"), "free form value with spaces");
}

TEST(TraceIo, WriteRejectsInvalidTraces) {
  Trace bad_region = sample_trace();
  bad_region.events[0].region = 99;
  EXPECT_THROW(encode(bad_region), std::runtime_error);

  Trace bad_game = sample_trace();
  bad_game.events[0].game = 99;
  EXPECT_THROW(encode(bad_game), std::runtime_error);

  Trace decreasing = sample_trace();
  decreasing.events[1].t = 0;
  decreasing.events[2].t = 1;
  decreasing.events[0].t = 2;
  EXPECT_THROW(encode(decreasing), std::runtime_error);

  Trace newline_name = sample_trace();
  newline_name.games[0].name = "bad\nname";
  EXPECT_THROW(encode(newline_name), std::runtime_error);

  Trace spaced_key = sample_trace();
  spaced_key.meta["two words"] = "x";
  EXPECT_THROW(encode(spaced_key), std::runtime_error);
}

TEST(TraceIo, BadMagicNamesLineOne) {
  const std::string err = error_for("not-a-trace\n");
  EXPECT_NE(err.find("trace line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(TraceIo, FutureVersionGetsSkewDiagnostic) {
  const std::string err = error_for("cocg-traffic-v9\n");
  EXPECT_NE(err.find("unsupported trace format version"), std::string::npos)
      << err;
}

TEST(TraceIo, TruncationNamesTheLastLine) {
  const std::string text = encode(sample_trace());
  // Drop the end-traffic terminator (and trailing newline).
  const std::string truncated =
      text.substr(0, text.size() - std::string("end-traffic\n").size());
  const std::string err = error_for(truncated);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  EXPECT_NE(err.find("end-traffic"), std::string::npos) << err;
}

TEST(TraceIo, GarbageEventLineNamesLineAndField) {
  std::string text = encode(sample_trace());
  // First event line: "e 0 1 0 7 0 600000 2 -1" — corrupt the player id.
  const std::size_t pos = text.find("e 0 1 0 7");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "e 0 1 0 x");
  const std::string err = error_for(text);
  EXPECT_NE(err.find("trace line"), std::string::npos) << err;
  EXPECT_NE(err.find("event player"), std::string::npos) << err;
}

/// `sample_trace()` with its `<header> <count>` line's count replaced by
/// one far beyond the lines that follow: the read must fail naming the
/// line where the table ends, with a runtime_error, not std::bad_alloc.
void expect_oversized_count_rejected(const std::string& header,
                                     const std::string& want) {
  std::string text = encode(sample_trace());
  const auto pos = text.find("\n" + header + " ");
  ASSERT_NE(pos, std::string::npos) << header;
  text.replace(pos + 1, text.find('\n', pos + 1) - pos - 1,
               header + " 100000000000000");
  const std::string err = error_for(text);
  EXPECT_NE(err.find("trace line"), std::string::npos) << err;
  EXPECT_NE(err.find(want), std::string::npos) << err;
}

// A count read from a trace sizes no allocation.
TEST(TraceIo, OversizedRegionsCountRejected) {
  expect_oversized_count_rejected("regions",
                                  "expected 'region ', got 'games 2'");
}

TEST(TraceIo, OversizedGamesCountRejected) {
  expect_oversized_count_rejected("games",
                                  "expected 'game ', got 'events 3'");
}

TEST(TraceIo, OversizedEventsCountRejected) {
  expect_oversized_count_rejected("events",
                                  "expected 'e ', got 'end-traffic'");
}

TEST(TraceIo, OutOfRangeIndicesNameTheLine) {
  {
    std::string text = encode(sample_trace());
    const std::size_t pos = text.find("e 0 1 0");
    ASSERT_NE(pos, std::string::npos);
    std::string t2 = text;
    t2.replace(pos, 7, "e 0 9 0");
    const std::string err = error_for(t2);
    EXPECT_NE(err.find("event region 9 out of range"), std::string::npos)
        << err;
    EXPECT_NE(err.find("trace line"), std::string::npos) << err;
  }
  {
    std::string text = encode(sample_trace());
    const std::size_t pos = text.find("e 0 1 0");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "e 0 1 9");
    const std::string err = error_for(text);
    EXPECT_NE(err.find("event game 9 out of range"), std::string::npos)
        << err;
  }
}

TEST(TraceIo, ProfileOutOfRangeRejected) {
  std::string text = encode(sample_trace());
  const std::size_t pos = text.find("e 0 1 0 7 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "e 0 1 0 7 5");
  const std::string err = error_for(text);
  EXPECT_NE(err.find("profile 5 out of range"), std::string::npos) << err;
}

TEST(TraceIo, DecreasingTimestampsRejectedOnRead) {
  // Hand-build a trace whose second event goes back in time.
  const std::string text =
      "cocg-traffic-v1\n"
      "regions 1\n"
      "region 0 global\n"
      "games 1\n"
      "game 0 web Contra\n"
      "events 2\n"
      "e 100 0 0 1 1 0 0 -1\n"
      "e 50 0 0 2 1 0 0 -1\n"
      "end-traffic\n";
  const std::string err = error_for(text);
  EXPECT_NE(err.find("non-decreasing"), std::string::npos) << err;
  EXPECT_NE(err.find("trace line 8"), std::string::npos) << err;
}

TEST(TraceIo, OutOfOrderTableIndicesRejected) {
  const std::string text =
      "cocg-traffic-v1\n"
      "regions 2\n"
      "region 1 eu\n"
      "region 0 global\n"
      "games 0\n"
      "events 0\n"
      "end-traffic\n";
  const std::string err = error_for(text);
  EXPECT_NE(err.find("region index 1 out of order"), std::string::npos)
      << err;
  EXPECT_NE(err.find("trace line 3"), std::string::npos) << err;
}

TEST(TraceIo, UnknownCategoryRejected) {
  const std::string text =
      "cocg-traffic-v1\n"
      "regions 1\n"
      "region 0 global\n"
      "games 1\n"
      "game 0 arcade Contra\n"
      "events 0\n"
      "end-traffic\n";
  const std::string err = error_for(text);
  EXPECT_NE(err.find("unknown game category 'arcade'"), std::string::npos)
      << err;
}

TEST(TraceIo, MalformedMetaRejected) {
  const std::string err = error_for("cocg-traffic-v1\nmeta keyonly\n");
  EXPECT_NE(err.find("malformed meta line"), std::string::npos) << err;
  EXPECT_NE(err.find("trace line 2"), std::string::npos) << err;
}

TEST(TraceIo, MissingTerminatorRejected) {
  const std::string text =
      "cocg-traffic-v1\n"
      "regions 1\n"
      "region 0 global\n"
      "games 0\n"
      "events 0\n"
      "not-the-end\n";
  const std::string err = error_for(text);
  EXPECT_NE(err.find("expected 'end-traffic'"), std::string::npos) << err;
}

TEST(TraceIo, ProfileNamesRoundTrip) {
  EXPECT_EQ(parse_profile("casual"), PlayerProfile::kCasual);
  EXPECT_EQ(parse_profile("regular"), PlayerProfile::kRegular);
  EXPECT_EQ(parse_profile("hardcore"), PlayerProfile::kHardcore);
  EXPECT_STREQ(profile_name(PlayerProfile::kHardcore), "hardcore");
  EXPECT_THROW(parse_profile("pro"), std::runtime_error);
}

TEST(TraceIo, RegionTableInternsAndFinds) {
  RegionTable regions;
  EXPECT_EQ(regions.size(), 1u);  // "global" is always index 0
  EXPECT_EQ(regions.name(0), "global");
  EXPECT_EQ(regions.intern("eu"), 1u);
  EXPECT_EQ(regions.intern("eu"), 1u);  // idempotent
  EXPECT_EQ(regions.find("eu"), 1u);
  EXPECT_EQ(regions.find("mars"), RegionTable::npos);
  EXPECT_THROW(regions.name(9), std::runtime_error);
}

TEST(TraceIo, LoadTraceMissingFileFails) {
  EXPECT_THROW(load_trace("/nonexistent/path/x.trace"), std::runtime_error);
}

}  // namespace
}  // namespace cocg::traffic
