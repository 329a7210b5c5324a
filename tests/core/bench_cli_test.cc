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

// Runs a real bench binary with `args`, stores its stdout+stderr in
// `output`, and returns its exit code (-1 if it did not exit normally).
int RunBench(const std::string& binary, const std::string& args,
             std::string* output) {
  // One file per test: ctest runs the cases of this suite concurrently.
  const std::string path =
      ::testing::TempDir() + "bench_cli_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  const std::string command = binary + " " + args + " > " + path + " 2>&1";
  const int status = std::system(command.c_str());  // NOLINT
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  *output = text.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A misspelled profile name is a usage error of the real bench binary:
// exit code 2 and the valid names on the console, never an abort.
TEST(BenchCliTest, UnknownDatasetIsUsageErrorNotAbort) {
  std::string output;
  EXPECT_EQ(RunBench(MSOPDS_TABLE3_PATH, "--datasets=Epinions", &output), 2);
  EXPECT_NE(output.find("Epinions"), std::string::npos) << output;
  for (const std::string& name : ExperimentDatasetNames()) {
    EXPECT_NE(output.find(name), std::string::npos) << output;
  }
}

// A numeric flag whose token does not parse whole is a usage error that
// names the flag: never a silent 0 (and a later abort) or a prefix.
TEST(BenchCliTest, MalformedNumericFlagIsUsageError) {
  for (const char* arg : {"--scale=garbage", "--budgets=2x"}) {
    std::string output;
    EXPECT_EQ(RunBench(MSOPDS_TABLE3_PATH, arg, &output), 2) << arg;
    const std::string text = arg;
    const std::string flag = text.substr(0, text.find('='));
    EXPECT_NE(output.find(flag), std::string::npos) << arg << ": " << output;
  }
}

// Benches that default to one profile must still honour an explicit
// --datasets naming every profile.
TEST(BenchCliTest, ExplicitDatasetsOverrideSingleProfileDefault) {
  std::string output;
  ASSERT_EQ(RunBench(MSOPDS_FIG8_PATH,
                     "--datasets=ciao,epinions,librarything --scale=0.02 "
                     "--repeats=1 --budgets=2 --methods=None",
                     &output),
            0)
      << output;
  for (const std::string& name : ExperimentDatasetNames()) {
    EXPECT_NE(output.find("[" + name + "]"), std::string::npos)
        << name << ": " << output;
  }
}

#endif

}  // namespace
}  // namespace msopds
