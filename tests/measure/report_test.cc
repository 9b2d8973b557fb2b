#include "src/measure/report.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"

namespace affsched {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.num_processors = 4;
  return config;
}

TEST(ReportTest, HeaderColumns) {
  const auto header = JobReportHeader();
  ASSERT_EQ(header.size(), 8u);
  EXPECT_EQ(header.front(), "policy");
  EXPECT_EQ(header.back(), "avg alloc");
}

TEST(ReportTest, EngineReportHasRowPerJob) {
  Engine engine(SmallMachine(), MakePolicy(PolicyKind::kDynamic), 1);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallMatrixProfile());
  engine.Run();
  TextTable table;
  table.SetHeader(JobReportHeader());
  AppendJobReport(table, "Dynamic", engine);
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string out = table.Render();
  EXPECT_NE(out.find("MVA"), std::string::npos);
  EXPECT_NE(out.find("MATRIX"), std::string::npos);
  EXPECT_NE(out.find("Dynamic"), std::string::npos);
}

TEST(ReportTest, ComparePoliciesRendersAllPolicies) {
  const std::string out =
      ComparePolicies(SmallMachine(), {PolicyKind::kEquipartition, PolicyKind::kDynamic},
                      {MakeSmallMatrixProfile()}, 7);
  EXPECT_NE(out.find("Equipartition"), std::string::npos);
  EXPECT_NE(out.find("Dynamic"), std::string::npos);
}

}  // namespace
}  // namespace affsched
