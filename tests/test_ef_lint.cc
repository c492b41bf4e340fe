/**
 * @file
 * ef-lint rule-engine tests. Each rule is exercised on a small fixture
 * snippet, once violating and once with the allow() escape hatch, plus
 * path classification, annotation validation, and the lexer corner
 * cases (comments, strings, raw strings, digit separators) that must
 * never produce false positives. The layering rule also runs on the
 * real tree (EF_REPO_ROOT): it lints clean, and an injected upward
 * include is reported.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace ef {
namespace {

using lint::FileClass;
using lint::Issue;
using lint::classify;
using lint::lint_source;

/** Rule names of all issues found in @p text under @p cls. */
std::vector<std::string>
rules_in(std::string_view text, const FileClass &cls)
{
    std::vector<std::string> out;
    for (const Issue &issue : lint_source("fixture.cc", text, cls))
        out.push_back(issue.rule);
    return out;
}

bool
has_rule(const std::vector<std::string> &rules, std::string_view name)
{
    return std::find(rules.begin(), rules.end(), name) != rules.end();
}

FileClass
library_class()
{
    return classify("src/core/foo.cc");
}

FileClass
order_sensitive_class()
{
    return classify("src/sched/foo.cc");
}

TEST(EfLintClassify, PathsMapToRuleScopes)
{
    EXPECT_TRUE(classify("src/core/allocator.cc").library);
    EXPECT_FALSE(classify("src/core/allocator.cc").order_sensitive);
    EXPECT_TRUE(classify("src/sched/elastic_flow.cc").order_sensitive);
    EXPECT_TRUE(classify("src/sim/simulator.cc").order_sensitive);
    EXPECT_FALSE(classify("tests/test_smoke.cc").library);
    EXPECT_FALSE(classify("bench/fig7.cc").library);
    EXPECT_TRUE(classify("src/common/logging.cc").io_exempt);
    EXPECT_TRUE(classify("src/common/check.h").io_exempt);
    EXPECT_FALSE(classify("src/common/table.cc").io_exempt);
    EXPECT_TRUE(classify("src/common/rng.cc").rng_exempt);
    EXPECT_FALSE(classify("src/common/hash.h").rng_exempt);
    EXPECT_EQ(classify("src/core/allocator.cc").layer, "core");
    EXPECT_EQ(classify("src/top_level.h").layer, "");
    EXPECT_EQ(classify("tests/test_smoke.cc").layer, "");
}

TEST(EfLintNondet, FlagsEnginesAndCallsInLibraryCode)
{
    const char *text = "std::mt19937_64 gen(std::random_device{}());\n"
                       "int r = rand();\n"
                       "const char *home = getenv(\"HOME\");\n"
                       "auto t = std::chrono::system_clock::now();\n";
    auto rules = rules_in(text, library_class());
    EXPECT_EQ(std::count(rules.begin(), rules.end(), "nondet"), 5);
    // Same text outside src/ is fine (tests may use real clocks).
    EXPECT_TRUE(rules_in(text, classify("tests/t.cc")).empty());
    // The sanctioned source (common/rng.*) is exempt.
    EXPECT_FALSE(has_rule(
        rules_in("std::mt19937_64 gen_;", classify("src/common/rng.h")),
        "nondet"));
}

TEST(EfLintNondet, MemberNamedTimeIsNotACall)
{
    // `spec.time(...)`-style member access must not trip the time()
    // heuristic, and `event.time` has no call parens at all.
    const char *text = "double t = event.time; obj->clock();\n";
    EXPECT_TRUE(rules_in(text, library_class()).empty());
}

TEST(EfLintUnordered, OnlyInOrderSensitiveCode)
{
    const char *text = "std::unordered_map<int, int> m;\n";
    EXPECT_TRUE(has_rule(rules_in(text, order_sensitive_class()),
                         "unordered"));
    EXPECT_FALSE(has_rule(rules_in(text, library_class()), "unordered"));

    const char *allowed =
        "// ef-lint: allow(unordered: order never observed)\n"
        "std::unordered_map<int, int> m;\n";
    EXPECT_TRUE(rules_in(allowed, order_sensitive_class()).empty());
}

TEST(EfLintFloatEq, LiteralsAndSentinelBothSides)
{
    FileClass cls = library_class();
    EXPECT_TRUE(has_rule(rules_in("if (x == 1.0) {}", cls), "float-eq"));
    EXPECT_TRUE(has_rule(rules_in("if (0.5f != y) {}", cls), "float-eq"));
    EXPECT_TRUE(
        has_rule(rules_in("if (t != kTimeInfinity) {}", cls), "float-eq"));
    EXPECT_TRUE(
        has_rule(rules_in("return kTimeInfinity == deadline;", cls),
                 "float-eq"));
    // Scientific notation and hex floats count as floats.
    EXPECT_TRUE(has_rule(rules_in("if (x == 1e-9) {}", cls), "float-eq"));
    // Integer comparisons do not.
    EXPECT_FALSE(has_rule(rules_in("if (n == 3) {}", cls), "float-eq"));
    EXPECT_FALSE(
        has_rule(rules_in("if (a.time != b.time) {}", cls), "float-eq"));
    // A float in a *different* clause must not bleed across && or ;.
    EXPECT_FALSE(has_rule(
        rules_in("if (x > 1.0 && n == 3) {}", cls), "float-eq"));
    EXPECT_FALSE(has_rule(
        rules_in("double d = 1.0; if (n == 3) {}", cls), "float-eq"));
    // Escape hatch on the same line.
    EXPECT_TRUE(rules_in("bool eq = a == b && x == 1.0;  "
                         "// ef-lint: allow(float-eq: exact by design)",
                         cls)
                    .empty());
}

TEST(EfLintCheckSideEffect, ConditionOnlyNotMessage)
{
    FileClass cls = library_class();
    EXPECT_TRUE(has_rule(rules_in("EF_CHECK(n++ > 0);", cls),
                         "check-side-effect"));
    EXPECT_TRUE(has_rule(rules_in("EF_DCHECK(total += step);", cls),
                         "check-side-effect"));
    EXPECT_TRUE(has_rule(
        rules_in("EF_CHECK_MSG(x = 1, \"oops\");", cls),
        "check-side-effect"));
    EXPECT_TRUE(has_rule(rules_in("EF_FATAL_IF(--n == 0, \"gone\");", cls),
                         "check-side-effect"));
    // Comparisons are not side effects; the tokenizer must keep
    // ==, !=, <=, >= distinct from =.
    EXPECT_TRUE(rules_in("EF_CHECK(a == b && c <= d);", cls).empty());
    // The message argument may mutate (it only renders on failure).
    EXPECT_TRUE(
        rules_in("EF_CHECK_MSG(ok, \"retry \" << attempts++);", cls)
            .empty());
    // Calls with internal commas stay inside the condition argument.
    EXPECT_TRUE(has_rule(
        rules_in("EF_DCHECK_MSG(fits(a, b += 1), \"m\");", cls),
        "check-side-effect"));
}

TEST(EfLintIo, LibraryOnlyWithExemptions)
{
    const char *text = "std::cout << \"hi\";\nstd::cerr << \"uh\";\n";
    auto rules = rules_in(text, library_class());
    EXPECT_EQ(std::count(rules.begin(), rules.end(), "io"), 2);
    EXPECT_TRUE(rules_in(text, classify("examples/run.cpp")).empty());
    EXPECT_TRUE(rules_in(text, classify("src/common/logging.cc")).empty());
    // A member named cerr is not the global stream.
    EXPECT_TRUE(rules_in("sink.cerr << x;", library_class()).empty());
}

TEST(EfLintUsingNamespace, LibraryOnly)
{
    const char *text = "using namespace std;\n";
    EXPECT_TRUE(
        has_rule(rules_in(text, library_class()), "using-namespace"));
    EXPECT_TRUE(rules_in(text, classify("bench/fig7.cc")).empty());
    // Plain using-declarations are fine.
    EXPECT_TRUE(
        rules_in("using std::vector;", library_class()).empty());
}

TEST(EfLintLexer, CommentsStringsAndRawStringsAreOpaque)
{
    FileClass cls = order_sensitive_class();
    EXPECT_TRUE(rules_in("// std::unordered_map in a comment\n"
                         "/* rand() in a block comment */\n"
                         "const char *s = \"rand() == 1.0\";\n"
                         "const char *r = R\"(using namespace std)\";\n",
                         cls)
                    .empty());
    // Digit separators don't split numbers; 1'000 is an int.
    EXPECT_FALSE(
        has_rule(rules_in("if (n == 1'000) {}", cls), "float-eq"));
    // Character literals are opaque too.
    EXPECT_TRUE(rules_in("char c = '\\\"'; (void)c;", cls).empty());
}

TEST(EfLintAnnotations, MalformedAndUnknownAreReported)
{
    FileClass cls = library_class();
    auto issues =
        lint_source("fixture.cc", "// ef-lint: allow(float-eq)\n", cls);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "bad-annotation");
    EXPECT_EQ(issues[0].line, 1);

    issues = lint_source(
        "fixture.cc", "// ef-lint: allow(not-a-rule: because)\n", cls);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "bad-annotation");

    issues =
        lint_source("fixture.cc", "// ef-lint: suppress(io: x)\n", cls);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "bad-annotation");

    // An allow() for rule A does not silence rule B on that line.
    EXPECT_TRUE(has_rule(
        rules_in("bool b = x == 1.0;  // ef-lint: allow(io: wrong rule)",
                 cls),
        "float-eq"));

    // Unused-but-well-formed annotations are legal (may document
    // sites the lexical heuristics cannot see).
    EXPECT_TRUE(
        rules_in("// ef-lint: allow(float-eq: documented intent)\n"
                 "bool eq = close_enough(a, b);\n",
                 cls)
            .empty());
}

TEST(EfLintThreading, LibraryIncludesAreBanned)
{
    FileClass cls = library_class();
    // Direct threading includes are the violation, one per directive.
    auto rules = rules_in("#include <thread>\n#include <mutex>\n", cls);
    EXPECT_EQ(std::count(rules.begin(), rules.end(), "threading"), 2);
    EXPECT_TRUE(has_rule(rules_in("#include <atomic>\n", cls), "threading"));
    EXPECT_TRUE(has_rule(rules_in("#include <condition_variable>\n", cls),
                         "threading"));
    // Non-threading includes and mere mentions of std::thread are fine;
    // the rule targets the include directive, not usage (usage cannot
    // compile without the include anyway).
    EXPECT_TRUE(rules_in("#include <vector>\n", cls).empty());
    EXPECT_TRUE(rules_in("std::thread *none = nullptr;\n", cls).empty());
}

TEST(EfLintThreading, NoLibraryFileIsExempt)
{
    const char *text = "#include <thread>\n#include <condition_variable>\n";
    for (const char *path : {"src/common/parallel.cc", "src/common/rng.cc",
                             "src/recover/log.cc", "src/sim/simulator.cc"}) {
        auto rules = rules_in(text, classify(path));
        EXPECT_EQ(std::count(rules.begin(), rules.end(), "threading"), 2)
            << path;
    }
    // Outside src/ the rule does not apply at all.
    EXPECT_TRUE(rules_in(text, classify("tests/test_serve.cc")).empty());
    EXPECT_TRUE(rules_in(text, classify("bench/fig7.cc")).empty());
    EXPECT_TRUE(rules_in(text, classify("tools/ef_lint/main.cc")).empty());
}

TEST(EfLintThreading, AllowAnnotationSuppresses)
{
    FileClass cls = library_class();
    EXPECT_TRUE(
        rules_in("// ef-lint: allow(threading: lock-free stat counter)\n"
                 "#include <atomic>\n",
                 cls)
            .empty());
    EXPECT_TRUE(
        rules_in("#include <mutex>  // ef-lint: allow(threading: guard)\n",
                 cls)
            .empty());
    // An allow() for a different rule does not silence it.
    EXPECT_TRUE(has_rule(
        rules_in("#include <thread>  // ef-lint: allow(io: wrong rule)\n",
                 cls),
        "threading"));
}

TEST(EfLintFileIo, LibraryConfinedToRecoverAndTraceIo)
{
    FileClass cls = library_class();
    // The include directive, stream types, and C-style opens are each
    // one violation.
    const auto include_rules = rules_in("#include <fstream>\n", cls);
    EXPECT_EQ(std::count(include_rules.begin(), include_rules.end(),
                         "file-io"),
              1);
    EXPECT_TRUE(
        has_rule(rules_in("std::ofstream out(path);", cls), "file-io"));
    EXPECT_TRUE(
        has_rule(rules_in("std::ifstream in(path);", cls), "file-io"));
    EXPECT_TRUE(has_rule(
        rules_in("FILE *f = std::fopen(p, \"rb\");", cls), "file-io"));
    EXPECT_TRUE(
        has_rule(rules_in("f = freopen(p, \"w\", f);", cls), "file-io"));
    // A member named fopen is not the C call; other includes are fine.
    EXPECT_TRUE(rules_in("vfs.fopen(p);", cls).empty());
    EXPECT_TRUE(rules_in("#include <sstream>\n", cls).empty());
}

TEST(EfLintFileIo, RecoverAndTraceIoAreTheSanctionedHomes)
{
    EXPECT_TRUE(classify("src/recover/journal.cc").file_io_exempt);
    EXPECT_TRUE(classify("src/recover/snapshot.h").file_io_exempt);
    EXPECT_TRUE(classify("src/workload/trace_io.cc").file_io_exempt);
    EXPECT_FALSE(classify("src/workload/trace_gen.cc").file_io_exempt);
    EXPECT_FALSE(classify("src/sim/report.cc").file_io_exempt);

    const char *text = "#include <fstream>\nstd::ofstream out(p);\n";
    EXPECT_TRUE(
        rules_in(text, classify("src/recover/snapshot.cc")).empty());
    EXPECT_TRUE(
        rules_in(text, classify("src/workload/trace_io.cc")).empty());
    // Outside src/ the rule does not apply at all.
    EXPECT_TRUE(rules_in(text, classify("tests/test_recover.cc")).empty());
    EXPECT_TRUE(rules_in(text, classify("tools/ef_lint/main.cc")).empty());
}

TEST(EfLintFileIo, AllowAnnotationSuppresses)
{
    FileClass cls = library_class();
    EXPECT_TRUE(rules_in(
                    "// ef-lint: allow(file-io: read-only script input)\n"
                    "std::ifstream in(path);\n",
                    cls)
                    .empty());
    EXPECT_TRUE(
        rules_in("#include <fstream>  "
                 "// ef-lint: allow(file-io: report artifacts)\n",
                 cls)
            .empty());
    // An allow() for a different rule does not silence it.
    EXPECT_TRUE(has_rule(
        rules_in("#include <fstream>  // ef-lint: allow(io: wrong)\n",
                 cls),
        "file-io"));
}

TEST(EfLintIssues, FormatAndLineNumbers)
{
    auto issues = lint_source("src/sched/x.cc",
                              "int a;\nint b;\nstd::unordered_set<int> s;\n",
                              classify("src/sched/x.cc"));
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].line, 3);
    const std::string formatted = lint::format_issue(issues[0]);
    EXPECT_EQ(formatted.find("src/sched/x.cc:3: [unordered] "), 0u);
}

TEST(EfLintUnusedAllow, ReportedOnlyWhenAsked)
{
    FileClass cls = library_class();
    const char *stale =
        "// ef-lint: allow(float-eq: nothing floaty here)\n"
        "int n = 3;\n";
    // Default behavior is unchanged: stale allows stay silent.
    EXPECT_TRUE(lint_source("fixture.cc", stale, cls).empty());
    lint::LintOptions options;
    options.warn_unused_allow = true;
    auto issues = lint_source("fixture.cc", stale, cls, options);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "unused-allow");
    EXPECT_EQ(issues[0].line, 1);

    // An allow that actually suppressed something is not stale.
    const char *used =
        "bool eq = x == 1.0;  // ef-lint: allow(float-eq: by design)\n";
    EXPECT_TRUE(lint_source("fixture.cc", used, cls, options).empty());
}

// ---------------------------------------------------------------------------
// layering: quoted includes follow the library DAG that
// src/<dir>/CMakeLists.txt declares.
// ---------------------------------------------------------------------------

/** base <- mid <- top; third-party link targets are not layers, and a
 *  layer without dependencies is declared by its add_library(). */
const std::map<std::string, std::string> kDag = {
    {"src/base/CMakeLists.txt",
     "add_library(ef_base b.cc)\n"
     "target_link_libraries(ef_base PUBLIC GTest::gtest)\n"},
    {"src/leaf/CMakeLists.txt", "add_library(ef_leaf l.cc)\n"},
    {"src/mid/CMakeLists.txt",
     "target_link_libraries(ef_mid PUBLIC ef_base)\n"},
    {"src/top/CMakeLists.txt",
     "target_link_libraries(ef_top PUBLIC\n    ef_mid)\n"}};

/** Lint @p text as the file @p path against the DAG of @p cmake_lists. */
std::vector<Issue>
lint_layered(const std::string &path, std::string_view text,
             const std::map<std::string, std::string> &cmake_lists = kDag)
{
    const lint::LayerDag dag = lint::read_layer_dag(cmake_lists);
    lint::LintOptions options;
    options.layers = &dag;
    return lint_source(path, text, classify(path), options);
}

TEST(EfLintLayering, DirectAndTransitiveIncludesAreFine)
{
    const lint::LayerDag dag = lint::read_layer_dag(kDag);
    EXPECT_TRUE(dag.issues.empty());
    const std::set<std::string> top = {"top", "mid", "base"};
    EXPECT_EQ(dag.reach.at("top"), top);
    EXPECT_EQ(dag.reach.at("leaf"), std::set<std::string>{"leaf"});
    EXPECT_TRUE(lint_layered("src/top/a.cc", "#include \"mid/m.h\"\n"
                                             "#include \"base/b.h\"\n"
                                             "#include \"top/a.h\"\n"
                                             "#include \"a_impl.h\"\n"
                                             "#include \"gtest/gtest.h\"\n"
                                             "#include <vector>\n")
                    .empty());
    // Outside src/<dir>/ the rule does not apply.
    EXPECT_TRUE(lint_layered("tests/t.cc", "#include \"top/a.h\"\n").empty());
}

TEST(EfLintLayering, UpwardIncludeIsReportedAtItsLine)
{
    auto issues =
        lint_layered("src/base/b.cc", "#include <vector>\n"
                                      "#include \"base/b.h\"\n"
                                      "#include \"top/a.h\"\n");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "layering");
    EXPECT_EQ(issues[0].file, "src/base/b.cc");
    EXPECT_EQ(issues[0].line, 3);
    EXPECT_NE(issues[0].message.find("\"top/a.h\""), std::string::npos);
    // Sideways is upward too: leaf and base do not depend on each other.
    EXPECT_EQ(lint_layered("src/leaf/l.cc", "#include \"base/b.h\"\n").size(),
              1u);
    // The allow() grammar covers the rule.
    EXPECT_TRUE(lint_layered("src/base/b.cc",
                             "// ef-lint: allow(layering: test seam)\n"
                             "#include \"top/a.h\"\n")
                    .empty());
}

TEST(EfLintLayering, UndeclaredDirectoryIsReported)
{
    auto issues = lint_layered("src/rogue/r.cc", "#include \"base/b.h\"\n");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].rule, "layering");
    EXPECT_EQ(issues[0].line, 1);
    EXPECT_NE(issues[0].message.find("src/rogue/"), std::string::npos);
    // With no DAG at all the rule is off.
    EXPECT_TRUE(lint_layered("src/rogue/r.cc", "#include \"top/a.h\"\n", {})
                    .empty());
}

TEST(EfLintLayering, UnknownLibraryIsReportedAtItsCmakeLine)
{
    std::map<std::string, std::string> cmake_lists = kDag;
    cmake_lists["src/odd/CMakeLists.txt"] =
        "add_library(ef_odd o.cc)\n"
        "target_link_libraries(ef_odd PUBLIC ef_base\n"
        "    ef_nope)\n";
    const lint::LayerDag dag = lint::read_layer_dag(cmake_lists);
    ASSERT_EQ(dag.issues.size(), 1u);
    EXPECT_EQ(dag.issues[0].rule, "layering");
    EXPECT_EQ(dag.issues[0].file, "src/odd/CMakeLists.txt");
    EXPECT_EQ(dag.issues[0].line, 3);
    EXPECT_NE(dag.issues[0].message.find("ef_nope"), std::string::npos);
    // The known dependency still counts.
    EXPECT_EQ(dag.reach.at("odd").count("base"), 1u);
}

TEST(EfLintLayering, CycleIsReported)
{
    std::map<std::string, std::string> cmake_lists = kDag;
    cmake_lists["src/base/CMakeLists.txt"] =
        "add_library(ef_base b.cc)\n"
        "\n"
        "target_link_libraries(ef_base PUBLIC ef_top)\n";
    const lint::LayerDag dag = lint::read_layer_dag(cmake_lists);
    // Every library on the cycle is reported, at its link line.
    ASSERT_EQ(dag.issues.size(), 3u);
    for (const Issue &issue : dag.issues) {
        EXPECT_EQ(issue.rule, "layering");
        EXPECT_NE(issue.message.find("cycle"), std::string::npos);
    }
    EXPECT_EQ(dag.issues[0].file, "src/base/CMakeLists.txt");
    EXPECT_EQ(dag.issues[0].line, 3);
    EXPECT_TRUE(dag.reach.at("leaf") == std::set<std::string>{"leaf"});
}

/** Every file under src/ of the real tree: C++ sources and the
 *  libraries' CMakeLists.txt, keyed by repo-relative path. */
std::map<std::string, std::string>
real_src_tree()
{
    namespace fs = std::filesystem;
    const fs::path root = EF_REPO_ROOT;
    std::map<std::string, std::string> tree;
    for (const auto &entry : fs::recursive_directory_iterator(root / "src")) {
        const std::string ext = entry.path().extension().string();
        if (!entry.is_regular_file() ||
            (ext != ".h" && ext != ".cc" &&
             entry.path().filename() != "CMakeLists.txt")) {
            continue;
        }
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        tree[fs::relative(entry.path(), root).generic_string()] = text.str();
    }
    return tree;
}

TEST(EfLintLayering, RealTreeIsCleanAndCatchesAnUpwardInclude)
{
    const std::map<std::string, std::string> tree = real_src_tree();
    const lint::LayerDag dag = lint::read_layer_dag(tree);
    for (const Issue &issue : dag.issues)
        ADD_FAILURE() << lint::format_issue(issue);
    EXPECT_GE(dag.reach.size(), 12u);
    EXPECT_EQ(dag.reach.at("common"), std::set<std::string>{"common"});
    EXPECT_EQ(dag.reach.at("sim").count("core"), 1u);
    EXPECT_EQ(dag.reach.at("core").count("sim"), 0u);

    lint::LintOptions options;
    options.layers = &dag;
    for (const auto &[path, text] : tree) {
        if (path.size() > 14 &&
            path.compare(path.size() - 14, 14, "CMakeLists.txt") == 0)
            continue;
        for (const Issue &issue :
             lint_source(path, text, classify(path), options))
            ADD_FAILURE() << lint::format_issue(issue);
    }

    const std::string victim = "src/core/allocator.cc";
    ASSERT_EQ(tree.count(victim), 1u);
    const auto issues = lint_source(
        victim, "// injected\n#include \"sim/simulator.h\"\n" + tree.at(victim),
        classify(victim), options);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(lint::format_issue(issues[0])
                  .find("src/core/allocator.cc:2: [layering] "),
              0u);
}

TEST(EfLintRules, NamesAreStable)
{
    const std::vector<std::string> expected = {
        "nondet",            "unordered", "float-eq",
        "check-side-effect", "io",        "using-namespace",
        "threading",         "file-io",   "layering"};
    EXPECT_EQ(lint::rule_names(), expected);
}

}  // namespace
}  // namespace ef
