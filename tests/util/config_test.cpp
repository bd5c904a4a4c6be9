#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/parse.hpp"

namespace tlbsim {
namespace {

using util::parseBool;
using util::parseInt;
using util::parseReal;

TEST(KeyValueConfig, ParsesBasicEntries) {
  const auto cfg = KeyValueConfig::fromString(
      "scheme = tlb\n"
      "load=0.6\n"
      "  flows =  300  \n");
  EXPECT_EQ(cfg.get("scheme"), "tlb");
  EXPECT_EQ(cfg.get("load"), "0.6");
  EXPECT_EQ(cfg.get("flows"), "300");
  EXPECT_EQ(cfg.get("missing"), "");
  EXPECT_TRUE(cfg.errors().empty());
}

TEST(KeyValueConfig, CommentsAndBlanksIgnored) {
  const auto cfg = KeyValueConfig::fromString(
      "# full-line comment\n"
      "\n"
      "a = 1   # trailing comment\n"
      "   \t  \n"
      "b = 2\n");
  EXPECT_EQ(cfg.get("a"), "1");
  EXPECT_EQ(cfg.get("b"), "2");
  EXPECT_EQ(cfg.keys().size(), 2u);
}

TEST(KeyValueConfig, LaterDuplicatesWin) {
  const auto cfg = KeyValueConfig::fromString("x = 1\nx = 2\n");
  EXPECT_EQ(cfg.get("x"), "2");
  EXPECT_EQ(cfg.keys().size(), 1u);
}

TEST(KeyValueConfig, MalformedLinesReportedNotFatal) {
  const auto cfg = KeyValueConfig::fromString(
      "good = yes\n"
      "this line has no equals\n"
      "= novalue-key\n"
      "also = fine\n");
  EXPECT_EQ(cfg.get("good"), "yes");
  EXPECT_EQ(cfg.get("also"), "fine");
  EXPECT_EQ(cfg.errors().size(), 2u);
  EXPECT_NE(cfg.errors()[0].find("2:"), std::string::npos);
}

// The values a config file hands the CLI parse strictly (util/parse.hpp).
TEST(KeyValueConfig, BoolSpellings) {
  const auto cfg = KeyValueConfig::fromString(
      "a = true\nb = 1\nc = yes\nd = on\ne = false\nf = 0\ng = no\nh = off\n");
  for (const char* k : {"a", "b", "c", "d"}) {
    EXPECT_EQ(parseBool(cfg.get(k)), true) << k;
  }
  for (const char* k : {"e", "f", "g", "h"}) {
    EXPECT_EQ(parseBool(cfg.get(k)), false) << k;
  }
}

TEST(KeyValueConfig, StrictIntRejectsTrailingGarbage) {
  const auto cfg = KeyValueConfig::fromString(
      "good = 65\nbad = 65x\nworse = x65\nempty =\n");
  EXPECT_EQ(parseInt(cfg.get("good")), 65);
  EXPECT_FALSE(parseInt(cfg.get("bad")).has_value());
  EXPECT_FALSE(parseInt(cfg.get("worse")).has_value());
  EXPECT_FALSE(parseInt(cfg.get("empty")).has_value());
  EXPECT_FALSE(parseInt(cfg.get("missing")).has_value());
}

TEST(KeyValueConfig, StrictIntRejectsOverflow) {
  const auto cfg = KeyValueConfig::fromString(
      "huge = 99999999999999999999999999\n"
      "neghuge = -99999999999999999999999999\n"
      "fine = -42\n");
  EXPECT_FALSE(parseInt(cfg.get("huge")).has_value());
  EXPECT_FALSE(parseInt(cfg.get("neghuge")).has_value());
  EXPECT_EQ(parseInt(cfg.get("fine")), -42);
}

TEST(KeyValueConfig, StrictDoubleRejectsGarbageAndOverflow) {
  const auto cfg = KeyValueConfig::fromString(
      "ok = 0.75\nsci = 1e3\nbad = 0.75oops\nhuge = 1e99999\n");
  ASSERT_TRUE(parseReal(cfg.get("ok")).has_value());
  EXPECT_DOUBLE_EQ(*parseReal(cfg.get("ok")), 0.75);
  EXPECT_DOUBLE_EQ(*parseReal(cfg.get("sci")), 1000.0);
  EXPECT_FALSE(parseReal(cfg.get("bad")).has_value());
  EXPECT_FALSE(parseReal(cfg.get("huge")).has_value());
}

TEST(KeyValueConfig, StrictBoolRejectsUnknownSpellings) {
  const auto cfg = KeyValueConfig::fromString("a = yes\nb = maybe\nc = 2\n");
  EXPECT_EQ(parseBool(cfg.get("a")), true);
  EXPECT_FALSE(parseBool(cfg.get("b")).has_value());
  EXPECT_FALSE(parseBool(cfg.get("c")).has_value());
  EXPECT_FALSE(parseBool(cfg.get("missing")).has_value());
}

TEST(KeyValueConfig, FromFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/kv_test.conf";
  {
    std::ofstream out(path);
    out << "scheme = conga\nload = 0.8\n";
  }
  const auto cfg = KeyValueConfig::fromFile(path);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get("scheme"), "conga");
  EXPECT_EQ(cfg->get("load"), "0.8");
  std::remove(path.c_str());
}

TEST(KeyValueConfig, MissingFileIsNullopt) {
  EXPECT_FALSE(KeyValueConfig::fromFile("/no/such/file.conf").has_value());
}

}  // namespace
}  // namespace tlbsim
