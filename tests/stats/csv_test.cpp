#include "stats/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tlbsim::stats {
namespace {

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Csv, FlowsRoundTrip) {
  FlowLedger ledger;
  FlowResult r;
  r.spec.id = 7;
  r.spec.src = 1;
  r.spec.dst = 2;
  r.spec.size = 12345_B;
  r.spec.start = 1000_ns;
  r.spec.deadline = 5000000_ns;
  r.completed = true;
  r.fct = 2500000_ns;
  r.dupAcks = 3;
  r.acks = 10;
  r.outOfOrderPackets = 1;
  r.dataPackets = 9;
  r.fastRetransmits = 1;
  r.timeouts = 0;
  ledger.add(r);

  const std::string path = ::testing::TempDir() + "/flows_test.csv";
  EXPECT_TRUE(writeFlowsCsv(path, ledger));
  const auto lines = readLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("flow,src,dst"), std::string::npos);
  EXPECT_EQ(lines[1], "7,1,2,12345,1000,5000000,1,2500000,3,10,1,9,1,0");
  std::remove(path.c_str());
}

TEST(Csv, EmptyLedgerWritesHeaderOnly) {
  FlowLedger ledger;
  const std::string path = ::testing::TempDir() + "/flows_empty.csv";
  EXPECT_TRUE(writeFlowsCsv(path, ledger));
  EXPECT_EQ(readLines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathDoesNotCrash) {
  FlowLedger ledger;
  EXPECT_FALSE(writeFlowsCsv("/nonexistent-dir/x.csv", ledger));
}

}  // namespace
}  // namespace tlbsim::stats
