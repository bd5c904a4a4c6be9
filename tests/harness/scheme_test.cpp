#include "harness/scheme.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace tlbsim::harness {
namespace {

const Scheme kAllSchemes[] = {
    Scheme::kEcmp,          Scheme::kWcmp,        Scheme::kRps,
    Scheme::kDrill,         Scheme::kPresto,      Scheme::kLetFlow,
    Scheme::kConga,         Scheme::kHermes,      Scheme::kRoundRobin,
    Scheme::kFlowLevel,     Scheme::kShortestQueue, Scheme::kFixedGranularity,
    Scheme::kTlb,
};

TEST(SchemeRegistry, EverySchemeHasAName) {
  for (const Scheme s : kAllSchemes) {
    const std::string name = schemeName(s);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

TEST(SchemeRegistry, NamesAreUniqueUpToAliases) {
  // The registry holds no aliases: all labels are pairwise distinct.
  std::set<std::string> names;
  for (const Scheme s : kAllSchemes) names.insert(schemeName(s));
  EXPECT_EQ(names.size(), std::size(kAllSchemes));
}

TEST(SchemeRegistry, FactoryProducesEverySelector) {
  for (const Scheme s : kAllSchemes) {
    SchemeConfig cfg;
    cfg.scheme = s;
    cfg.numPaths = 8;
    auto sel = makeSelector(cfg, /*salt=*/3);
    ASSERT_NE(sel, nullptr) << schemeName(s);
    EXPECT_NE(std::string(sel->name()), "");
  }
}

TEST(SchemeRegistry, FactoryInstancesAreIndependent) {
  SchemeConfig cfg;
  cfg.scheme = Scheme::kPresto;
  auto a = makeSelector(cfg, 1);
  auto b = makeSelector(cfg, 1);
  EXPECT_NE(a.get(), b.get());
}

TEST(SchemeRegistry, TlbConfigPlumbsThrough) {
  SchemeConfig cfg;
  cfg.scheme = Scheme::kTlb;
  cfg.numPaths = 15;
  cfg.tlb.qthOverrideBytes = 4242_B;
  auto sel = makeSelector(cfg, 1);
  EXPECT_STREQ(sel->name(), "TLB");
}

TEST(SchemeRegistry, AllSchemesMatchesTheEnum) {
  const auto& all = allSchemes();
  ASSERT_EQ(all.size(), std::size(kAllSchemes));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], kAllSchemes[i]);
  }
}

TEST(SchemeRegistry, ParseSchemeRoundTripsEveryName) {
  for (const Scheme s : allSchemes()) {
    // Both the display name and the CLI name parse back to the scheme.
    const auto fromDisplay = parseScheme(schemeName(s));
    ASSERT_TRUE(fromDisplay.has_value()) << schemeName(s);
    EXPECT_EQ(*fromDisplay, s);
    const auto fromCli = parseScheme(schemeCliName(s));
    ASSERT_TRUE(fromCli.has_value()) << schemeCliName(s);
    EXPECT_EQ(*fromCli, s);
  }
}

TEST(SchemeRegistry, ParseSchemeFoldsCaseAndSeparators) {
  EXPECT_EQ(parseScheme("TLB"), Scheme::kTlb);
  EXPECT_EQ(parseScheme("LetFlow"), Scheme::kLetFlow);
  EXPECT_EQ(parseScheme("let_flow"), Scheme::kLetFlow);
  EXPECT_EQ(parseScheme("round robin"), Scheme::kRoundRobin);
  EXPECT_EQ(parseScheme("shortest-queue"), Scheme::kShortestQueue);
}

TEST(SchemeRegistry, ParseSchemeRejectsUnknownNames) {
  EXPECT_FALSE(parseScheme("").has_value());
  EXPECT_FALSE(parseScheme("no-such-scheme").has_value());
  EXPECT_FALSE(parseScheme("tlbx").has_value());
}

TEST(SchemeRegistry, MakeSelectorThrowsTypedErrorForUnknownEnumValue) {
  SchemeConfig cfg;
  cfg.scheme = static_cast<Scheme>(255);
  EXPECT_THROW(makeSelector(cfg, 1), UnknownSchemeError);
  EXPECT_THROW(schemeName(static_cast<Scheme>(255)), UnknownSchemeError);
}

}  // namespace
}  // namespace tlbsim::harness
