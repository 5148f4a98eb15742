// Tests for the remaining common utilities: units formatting, config
// parsing, ASCII tables, logging levels.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;

TEST(Units, ByteConstants) {
  EXPECT_EQ(KiB(1), 1024u);
  EXPECT_EQ(MiB(2), 2u * 1024 * 1024);
  EXPECT_EQ(GiB(1), 1024u * 1024 * 1024);
  EXPECT_EQ(MB(3), 3'000'000u);
  EXPECT_EQ(GB(1), 1'000'000'000u);
}

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(mbps(8), 1e6);       // 8 Mb/s == 1 MB/s
  EXPECT_DOUBLE_EQ(gbps(8), 1e9);
  EXPECT_DOUBLE_EQ(MBps(1), 1e6);
  EXPECT_DOUBLE_EQ(GiBps(1), 1073741824.0);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(ms(1500), 1.5);
  EXPECT_DOUBLE_EQ(us(1000), 1e-3);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(KiB(1)), "1.0 KiB");
  EXPECT_EQ(format_bytes(MiB(128)), "128.0 MiB");
  EXPECT_EQ(format_bytes(GiB(12)), "12.0 GiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(2.5), "2.5 s");
  EXPECT_EQ(format_seconds(0.0025), "2.5 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.5 us");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(2.5e9), "2.50 GB/s");
  EXPECT_EQ(format_bandwidth(1.25e8), "125.00 MB/s");
}

TEST(Config, ParsesKeyValueArgs) {
  const auto cfg = Config::from_args({"alpha=1", "beta=2.5", "name=test", "flag=true"});
  EXPECT_EQ(cfg.get_int("alpha", 0), 1);
  EXPECT_DOUBLE_EQ(cfg.get_double("beta", 0), 2.5);
  EXPECT_EQ(cfg.get_string("name", ""), "test");
  EXPECT_TRUE(cfg.get_bool("flag", false));
}

TEST(Config, FallbacksWhenAbsent) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(cfg.get_bool("missing", false));
}

TEST(Config, LaterTokensOverride) {
  const auto cfg = Config::from_args({"x=1", "x=2"});
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, RejectsMalformedArgs) {
  EXPECT_THROW(Config::from_args({"noequals"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"=value"}), std::invalid_argument);
}

TEST(Config, RejectsBadTypes) {
  const auto cfg = Config::from_args({"x=abc"});
  EXPECT_THROW(cfg.get_int("x", 0), std::exception);
  EXPECT_THROW(cfg.get_double("x", 0), std::exception);
  EXPECT_THROW(cfg.get_bool("x", false), std::invalid_argument);
  // No digits, trailing junk or a value out of range fails naming the key.
  const auto names_x = [](const auto& get) {
    try {
      get();
      ADD_FAILURE() << "a bad value was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("config key x "), std::string::npos) << e.what();
    }
  };
  for (const char* arg : {"x=abc", "x=1e999"}) {
    const auto bad = Config::from_args({arg});
    names_x([&] { (void)bad.get_int("x", 0); });
    names_x([&] { (void)bad.get_double("x", 0); });
  }
  const auto huge = Config::from_args({"x=99999999999999999999"});
  names_x([&] { (void)huge.get_int("x", 0); });
}

TEST(Config, ParsesFileFormatWithComments) {
  const auto cfg = Config::from_string(
      "# a comment\n"
      "wan_mbps = 100   # trailing comment\n"
      "\n"
      "streams=8\n");
  EXPECT_EQ(cfg.get_int("wan_mbps", 0), 100);
  EXPECT_EQ(cfg.get_int("streams", 0), 8);
  EXPECT_EQ(cfg.keys().size(), 2u);
}

TEST(Config, BoolSpellings) {
  const auto cfg =
      Config::from_string("a=true\nb=1\nc=yes\nd=on\ne=false\nf=0\ng=no\nh=off\n");
  for (const char* k : {"a", "b", "c", "d"}) EXPECT_TRUE(cfg.get_bool(k, false)) << k;
  for (const char* k : {"e", "f", "g", "h"}) EXPECT_FALSE(cfg.get_bool(k, true)) << k;
}

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2"});
  const std::string out = t.render("My Table");
  EXPECT_NE(out.find("My Table"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(AsciiTable, RejectsArityMismatch) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiTable, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
  EXPECT_EQ(AsciiTable::pct(0.155, 1), "15.5%");
}

TEST(AsciiTable, SeparatorsRender) {
  AsciiTable t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + separator + bottom rule + top = at least 4 rules
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_GE(rules, 4u);
}

TEST(Logging, LevelGate) {
  const auto old = log::level();
  log::set_level(log::Level::Error);
  EXPECT_FALSE(log::enabled(log::Level::Debug));
  EXPECT_FALSE(log::enabled(log::Level::Warn));
  EXPECT_TRUE(log::enabled(log::Level::Error));
  log::set_level(log::Level::Trace);
  EXPECT_TRUE(log::enabled(log::Level::Debug));
  log::set_level(old);
}

}  // namespace
}  // namespace cloudburst
