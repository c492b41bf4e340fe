/**
 * @file
 * CLI contract tests for the run_trace driver: unknown flags, bad flag
 * values and malformed trace files go to stderr and exit 2 (scripts
 * depend on it), and the service-mode flags (--service,
 * --arrival-rate, --duration, in both "--flag v" and "--flag=v"
 * spellings) run clean. ext_service_soak follows the same contract.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace ef {
namespace {

/** Exit status of `<binary> <args>` with output discarded. */
int
run_binary(const std::string &binary, const std::string &args)
{
    const std::string command =
        binary + " " + args + " >/dev/null 2>/dev/null";
    const int raw = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(raw)) << command;
    return WEXITSTATUS(raw);
}

int
run_cli(const std::string &args)
{
    return run_binary(EF_RUN_TRACE_BIN, args);
}

/** Write @p text to a temp trace file and return its path. */
std::string
trace_file(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path) << text;
    return path;
}

TEST(RunTraceCli, UnknownFlagExitsTwo)
{
    EXPECT_EQ(run_cli("--definitely-not-a-flag"), 2);
    EXPECT_EQ(run_cli("trace.csv --frobnicate"), 2);
}

TEST(RunTraceCli, NoArgumentsExitsTwo)
{
    EXPECT_EQ(run_cli(""), 2);
}

TEST(RunTraceCli, ServiceModeNeedsRateAndDuration)
{
    EXPECT_EQ(run_cli("--service"), 2);
    EXPECT_EQ(run_cli("--service --arrival-rate=0.1"), 2);
    EXPECT_EQ(run_cli("--service --duration=100"), 2);
}

TEST(RunTraceCli, ServiceModeRunsClean)
{
    EXPECT_EQ(run_cli("--service --arrival-rate=0.05 --duration=600 "
                      "--gpus 16 --state-hash"),
              0);
    // Space-separated values work too.
    EXPECT_EQ(
        run_cli("--service --arrival-rate 0.05 --duration 600"), 0);
}

TEST(RunTraceCli, ServiceFlagsRejectedWithATraceFile)
{
    EXPECT_EQ(run_cli("trace.csv --arrival-rate=0.1 --duration=10"),
              2);
}

TEST(RunTraceCli, BadFlagValuesExitTwo)
{
    const std::string trace = trace_file(
        "cli_ok.csv", "id,name,user,model,global_batch,iterations,"
                      "submit_time,deadline,kind,requested_gpus\n"
                      "0,j0,u,ResNet50,128,100,0,inf,best-effort,1\n");
    EXPECT_EQ(run_cli(trace + " --snapshot-every=abc"), 2);
    EXPECT_EQ(run_cli(trace + " --gpus 12x"), 2);
    EXPECT_EQ(run_cli(trace + " --seed -3"), 2);
    EXPECT_EQ(run_cli(trace + " --noise"), 2);  // value missing
    EXPECT_EQ(run_cli("--generate cluster99 out.csv"), 2);
    EXPECT_EQ(run_cli(trace + " --gpus 16"), 0);
}

TEST(RunTraceCli, MalformedTraceFilesExitTwo)
{
    // Missing a required column (no 'id').
    EXPECT_EQ(run_cli(trace_file(
                  "cli_no_id.csv",
                  "name,user,model,global_batch,iterations,submit_time,"
                  "deadline,kind,requested_gpus\n"
                  "j0,u,ResNet50,128,100,0,inf,best-effort,1\n")),
              2);
    // Header only: a trace without jobs.
    EXPECT_EQ(run_cli(trace_file(
                  "cli_empty.csv",
                  "id,name,user,model,global_batch,iterations,"
                  "submit_time,deadline,kind,requested_gpus\n")),
              2);
    EXPECT_EQ(run_cli("/nonexistent/trace.csv"), 2);
}

TEST(ServiceSoakCli, BadArgumentsExitTwo)
{
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "--help"), 2);
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "100 fast"), 2);
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "1 2 3"), 2);
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "200 5"), 0);
}

}  // namespace
}  // namespace ef
