#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace msopds {
namespace {

#if defined(__unix__) || defined(__APPLE__)

// A misspelled profile name is a usage error of the real bench binary:
// exit code 2 and the valid names on the console, never an abort.
TEST(BenchCliTest, UnknownDatasetIsUsageErrorNotAbort) {
  const std::string output = ::testing::TempDir() + "bench_cli_datasets.txt";
  const std::string command = std::string(MSOPDS_TABLE3_PATH) +
                              " --datasets=Epinions > " + output + " 2>&1";
  const int status = std::system(command.c_str());  // NOLINT
  ASSERT_TRUE(WIFEXITED(status)) << "raw status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 2);

  std::ifstream in(output);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("Epinions"), std::string::npos) << text.str();
  for (const std::string& name : ExperimentDatasetNames()) {
    EXPECT_NE(text.str().find(name), std::string::npos) << text.str();
  }
}

#endif

}  // namespace
}  // namespace msopds
