/**
 * @file
 * CLI contract tests for the run_trace driver: unknown flags, bad flag
 * values and malformed trace files (bad job ids included) go to
 * stderr and exit 2 (scripts
 * depend on it), and the service-mode flags (--service,
 * --arrival-rate, --duration, in both "--flag v" and "--flag=v"
 * spellings) run clean. Malformed fault scripts exit 2 with a
 * line-numbered diagnostic, and so do fault targets out of range for the
 * trace's cluster or naming no trace job. Every numeric flag is swept
 * with missing, empty, malformed, non-finite and negative values.
 * ext_service_soak follows the same contract.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace ef {
namespace {

/** Exit status of `<binary> <args>`. Stdout is discarded; stderr
 *  lands in @p err when given, else is discarded too. */
int
run_binary(const std::string &binary, const std::string &args,
           std::string *err = nullptr)
{
    const std::string err_path = testing::TempDir() + "/cli_stderr.txt";
    const std::string command = binary + " " + args + " >/dev/null 2>" +
                                (err != nullptr ? err_path : "/dev/null");
    const int raw = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(raw)) << command;
    if (err != nullptr) {
        std::ifstream in(err_path);
        err->assign(std::istreambuf_iterator<char>(in), {});
    }
    return WEXITSTATUS(raw);
}

int
run_cli(const std::string &args, std::string *err = nullptr)
{
    return run_binary(EF_RUN_TRACE_BIN, args, err);
}

/** Write @p text to a temp trace file and return its path. */
std::string
trace_file(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream(path) << text;
    return path;
}

/** A valid one-job trace. */
std::string
one_job_trace()
{
    return trace_file(
        "cli_ok.csv", "id,name,user,model,global_batch,iterations,"
                      "submit_time,deadline,kind,requested_gpus\n"
                      "0,j0,u,ResNet50,128,100,0,inf,best-effort,1\n");
}

TEST(RunTraceCli, UnknownFlagExitsTwo)
{
    EXPECT_EQ(run_cli("--definitely-not-a-flag"), 2);
    EXPECT_EQ(run_cli("trace.csv --frobnicate"), 2);
    // The background-defrag flags went with the defragmenter.
    const std::string trace = one_job_trace();
    std::string err;
    for (const char *args :
         {"--defrag", "--defrag-budget 16", "--defrag-steps 400",
          "--defrag-interval 600", "--defrag-seed 1"}) {
        EXPECT_EQ(run_cli(trace + " " + args, &err), 2) << args;
        EXPECT_NE(err.find("unknown flag"), std::string::npos)
            << args << ": " << err;
    }
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
    const std::string trace = one_job_trace();
    EXPECT_EQ(run_cli(trace + " --snapshot-every=abc"), 2);
    EXPECT_EQ(run_cli(trace + " --gpus 12x"), 2);
    EXPECT_EQ(run_cli(trace + " --seed -3"), 2);
    EXPECT_EQ(run_cli(trace + " --noise"), 2);  // value missing
    EXPECT_EQ(run_cli("--generate cluster99 out.csv"), 2);
    EXPECT_EQ(run_cli(trace + " --gpus 16"), 0);
    // One fault per GPU per 300 s slot is the highest rate accepted.
    EXPECT_EQ(run_cli(trace + " --gpu-fault-rate 288"), 0);

    // Out-of-range values exit 2 with a message naming the flag.
    const std::string journal = testing::TempDir() + "/cli_range_journal";
    const struct
    {
        std::string args;
        const char *flag;  ///< must appear in the diagnostic
    } cases[] = {
        // Each of these aborted (exit 134) before the range checks.
        {"--gpus 0", "--gpus"},
        {"--gpus -8", "--gpus"},
        {"--gpu-fault-rate 0", "--gpu-fault-rate"},
        {"--noise 2", "--noise"},
        {"--snapshot-every 0 --journal-dir " + journal, "--snapshot-every"},
        {"--rpc-drop 1.5", "--rpc-drop"},
        {"--scheduler nosuch", "--scheduler"},
        // This one ran out of memory building the topology.
        {"--gpus 2000000000", "--gpus needs"},
        {"--gpus 65537", "--gpus needs"},
        // ... and these were silently accepted.
        {"--mtbf -1", "--mtbf"},
        {"--repair -1", "--repair"},
        {"--rpc-drop -0.5", "--rpc-drop"},
        {"--noise -5", "--noise"},
        // Fault rates above one per GPU per planning slot were accepted
        // and the run then did not finish.
        {"--gpu-fault-rate 289", "--gpu-fault-rate needs"},
        {"--gpu-fault-rate 1e5", "--gpu-fault-rate needs"},
        {"--gpu-fault-rate 1e300", "--gpu-fault-rate needs"},
        // NaN and infinities never parse as a value.
        {"--noise nan", "--noise"},
        {"--rpc-drop=nan", "--rpc-drop"},
        {"--mtbf inf", "--mtbf"},
        {"--mtbf 1e305", "--mtbf"},
        // Service mode takes no trace; the message names its own form.
        {"--service", "run_trace --service --arrival-rate"},
        // Server crashes have one flag, --mtbf; the old days flag is
        // spelled in two pieces so that searching the tree for it finds
        // no use.
        {std::string("--failures-") + "mtbf-days 3", "unknown flag"},
    };
    std::string err;
    for (const auto &c : cases) {
        EXPECT_EQ(run_cli(trace + " " + c.args + " --state-hash", &err), 2)
            << c.args;
        EXPECT_NE(err.find(c.flag), std::string::npos)
            << c.args << ": " << err;
    }
    // Every value-taking numeric flag with each kind of bad value:
    // missing (the flag ends the line), empty, not a number, NaN, both
    // infinities, beyond double range, and negative.
    const char *numeric_flags[] = {
        "--arrival-rate", "--duration",       "--seed",
        "--gpus",         "--noise",          "--mtbf",
        "--repair",       "--gpu-fault-rate", "--rpc-drop",
        "--fault-seed",   "--snapshot-every"};
    const char *bad_values[] = {"''", "x", "nan", "inf", "-inf", "1e309",
                                "-1"};
    int swept = 0;
    for (const std::string flag : numeric_flags) {
        std::vector<std::string> lines = {trace + " --state-hash " + flag};
        for (const char *value : bad_values)
            lines.push_back(trace + " " + flag + " " + value + " --state-hash");
        for (const std::string &args : lines) {
            EXPECT_EQ(run_cli(args, &err), 2) << args;
            EXPECT_NE(err.find(flag + " needs"), std::string::npos)
                << args << ": " << err;
            ++swept;
        }
    }
    EXPECT_EQ(swept, 88);
    // Standalone service mode checks its values the same way.
    for (const char *args :
         {"--service --arrival-rate 1 --duration 100 --gpus 0",
          "--service --arrival-rate 0.01 --duration 100 --gpus 2000000000",
          "--service --arrival-rate nan --duration 100",
          "--service --arrival-rate 1 --duration -5"}) {
        EXPECT_EQ(run_cli(args, &err), 2) << args;
        EXPECT_NE(err.find("needs"), std::string::npos) << args << ": " << err;
    }
    // Zero stays valid where it means "disabled".
    EXPECT_EQ(run_cli(trace + " --mtbf 0 --noise 0 --rpc-drop 0 "
                              "--repair 0"),
              0);
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

TEST(RunTraceCli, BadJobIdsExitTwoWithTheLine)
{
    const std::string header = "id,name,user,model,global_batch,iterations,"
                               "submit_time,deadline,kind,requested_gpus\n";
    const std::string row = ",j,u,ResNet50,128,100,0,inf,best-effort,1\n";
    const struct
    {
        const char *name;
        std::string text;
        const char *expect;  ///< substring of the diagnostic
    } cases[] = {
        // The simulator's constructor aborts on a duplicate, so the
        // loader must reject it first.
        {"ids_dup.csv", header + "0" + row + "1" + row + "0" + row,
         "trace line 4: duplicate job id 0 (first on line 2)"},
        // -1 is kInvalidJob, the placement's free-GPU marker.
        {"ids_minus_one.csv", header + "0" + row + "-1" + row,
         "trace line 3: job id -1 is negative"},
        {"ids_negative.csv", header + "-7" + row,
         "trace line 2: job id -7 is negative"},
    };
    std::string err;
    for (const auto &c : cases) {
        EXPECT_EQ(run_cli(trace_file(c.name, c.text), &err), 2) << c.name;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.name << ": " << err;
    }
    // Ids need not be dense or in submission order.
    EXPECT_EQ(run_cli(trace_file("ids_sparse.csv",
                                 header + "9000" + row + "3" + row)),
              0);
}

TEST(RunTraceCli, MalformedFaultScriptsExitTwoWithTheLine)
{
    const std::string trace = trace_file(
        "cli_fault_trace.csv",
        "id,name,user,model,global_batch,iterations,"
        "submit_time,deadline,kind,requested_gpus\n"
        "0,j0,u,ResNet50,128,100,0,inf,best-effort,1\n");
    const struct
    {
        const char *name;
        const char *text;
        const char *expect;  ///< substring of the diagnostic
    } cases[] = {
        {"f_no_type.csv", "time,target\n100,1\n",
         "fault script line 1: missing column 'type'"},
        {"f_fields.csv", "time,type,target\n100,gpu-fault\n",
         "fault script line 2: expected 3 fields, got 2"},
        {"f_nan.csv", "time,type,target\n100,gpu-fault,1\nx,gpu-fault,1\n",
         "fault script line 3: column 'time': 'x' is not a number"},
        {"f_neg_time.csv", "time,type,target\n-1,gpu-fault,1\n",
         "fault script line 2: negative time"},
        {"f_neg_dur.csv",
         "time,type,target,duration\n1,straggler,1,-600\n",
         "fault script line 2: negative duration"},
        {"f_neg_mag.csv",
         "time,type,target,magnitude\n1,rpc-drop,1,-2\n",
         "fault script line 2: negative magnitude"},
        {"f_type.csv", "time,type,target\n1,martian-attack,1\n",
         "fault script line 2: unknown fault type 'martian-attack'"},
    };
    std::string err;
    for (const auto &c : cases) {
        EXPECT_EQ(run_cli(trace + " --fault-script " +
                              trace_file(c.name, c.text),
                          &err),
                  2)
            << c.name;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.name << ": " << err;
    }
    EXPECT_EQ(
        run_cli(trace + " --fault-script=/nonexistent/faults.csv", &err),
        2);
    EXPECT_NE(err.find("cannot open fault script"), std::string::npos)
        << err;
    // Standalone service mode reads the same flag.
    EXPECT_EQ(run_cli("--service --arrival-rate=0.05 --duration=600 "
                      "--fault-script " +
                      trace_file("f_svc.csv",
                                 "time,type,target\n1,gpu-fault\n")),
              2);
    // A well-formed script runs.
    EXPECT_EQ(run_cli(trace + " --fault-script " +
                      trace_file("f_ok.csv",
                                 "time,type,target,duration,magnitude\n"
                                 "100,straggler,0,600,2\n")),
              0);
}

TEST(RunTraceCli, FaultTargetsOutOfRangeExitTwoWithTheLine)
{
    // 16 GPUs in 2 servers, one job (id 0).
    const std::string trace =
        trace_file("cli_target_trace.csv",
                   "id,name,user,model,global_batch,iterations,"
                   "submit_time,deadline,kind,requested_gpus\n"
                   "0,j0,u,ResNet50,128,100,0,inf,best-effort,1\n") +
        " --gpus 16";
    const struct
    {
        const char *name;
        const char *text;
        const char *expect;  ///< substring of the diagnostic
    } cases[] = {
        {"t_gpu.csv", "time,type,target\n100,gpu-fault,99999\n",
         "fault script line 2: gpu-fault target 99999 is not one of the "
         "16 GPUs"},
        {"t_gpu_edge.csv", "time,type,target\n1,gpu-fault,15\n"
                           "100,gpu-fault,16\n",
         "fault script line 3: gpu-fault target 16"},
        {"t_server.csv", "time,type,target\n100,server-crash,2\n",
         "fault script line 2: server-crash target 2 is not one of the 2 "
         "servers"},
        {"t_server_neg.csv", "time,type,target\n100,server-crash,-1\n",
         "fault script line 2: server-crash target -1"},
        {"t_straggler.csv", "time,type,target\n100,straggler,7\n",
         "fault script line 2: straggler target 7 is not one of the 1 "
         "trace jobs"},
    };
    std::string err;
    for (const auto &c : cases) {
        EXPECT_EQ(run_cli(trace + " --fault-script " +
                              trace_file(c.name, c.text),
                          &err),
                  2)
            << c.name;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.name << ": " << err;
    }
    // Targets of the other kinds are not topology positions.
    EXPECT_EQ(run_cli(trace + " --fault-script " +
                      trace_file("t_ok.csv",
                                 "time,type,target\n"
                                 "100,server-crash,1\n100,gpu-fault,15\n"
                                 "100,rpc-drop,99999\n")),
              0);
}

TEST(ServiceSoakCli, BadArgumentsExitTwo)
{
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "--help"), 2);
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "100 fast"), 2);
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "1 2 3"), 2);
    // The stream needs a finite positive arrival rate.
    for (const char *args : {"100 0", "100 -5", "100 nan", "100 inf"})
        EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, args), 2) << args;
    EXPECT_EQ(run_binary(EF_SERVICE_SOAK_BIN, "200 5"), 0);
}

}  // namespace
}  // namespace ef
