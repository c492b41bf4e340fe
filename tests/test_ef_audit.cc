/**
 * @file
 * ef-audit engine tests. Two layers:
 *
 *  - Clean-tree contract: the real repository (loaded from
 *    EF_REPO_ROOT, with its src/<dir>/CMakeLists.txt library DAG)
 *    audits clean, and an injected violation is reported identically
 *    for any --jobs.
 *  - Synthetic fixtures for the thread-ownership and layering rules,
 *    the annotation grammar, and the JSON/SARIF emitters.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit.h"

namespace ef {
namespace {

/** The real src/ + tools/ tree, loaded once (as ef_audit's CLI does). */
const std::vector<audit::SourceFile> &
real_tree()
{
    static const std::vector<audit::SourceFile> tree = [] {
        std::vector<std::string> unreadable;
        auto files = audit::load_tree(EF_REPO_ROOT, &unreadable);
        EXPECT_TRUE(unreadable.empty());
        return files;
    }();
    return tree;
}

std::vector<audit::Finding>
run(const std::vector<audit::SourceFile> &files, int jobs = 2)
{
    audit::AuditOptions options;
    options.jobs = jobs;
    return audit::run_audit(files, options);
}

TEST(EfAuditRealTree, TreeIsClean)
{
    const std::vector<audit::Finding> findings = run(real_tree());
    for (const audit::Finding &finding : findings)
        ADD_FAILURE() << audit::format_finding(finding);
}

TEST(EfAuditRealTree, JobsCountDoesNotChangeFindings)
{
    // An upward include (common -> sim) must be reported, and
    // identically whatever the indexing thread count.
    std::vector<audit::SourceFile> files = real_tree();
    for (audit::SourceFile &source : files) {
        if (source.path == "src/common/rng.h")
            source.text = "#include \"sim/simulator.h\"\n" + source.text;
    }
    const auto serial = run(files, 1);
    const auto parallel = run(files, 8);
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(serial[0].rule, "layering");
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(audit::format_finding(serial[i]),
                  audit::format_finding(parallel[i]));
    }
}

// ---------------------------------------------------------------------------
// Synthetic fixtures: annotations, the thread-ownership and layering
// rules, and the emitters.
// ---------------------------------------------------------------------------

TEST(EfAuditAnnotations, MalformedAndUnsuppressibleAreReported)
{
    // No reason.
    auto findings = run(
        {{"fixtures/a.h", "// ef-audit: allow(layering:)\nint x;\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
    // Unknown keyword (the retired field annotations included).
    for (const char *text :
         {"// ef-audit: ignore(x: y)\n",
          "// ef-audit: transient(hash: derived)\n"}) {
        findings = run({{"fixtures/a.h", text}});
        ASSERT_EQ(findings.size(), 1u) << text;
        EXPECT_EQ(findings[0].rule, "bad-annotation");
    }
    // allow() may only waive thread-ownership or layering.
    findings = run({{"fixtures/a.h", "// ef-audit: allow(bogus: no)\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "bad-annotation");
}

TEST(EfAuditThreadOwnership, SharedWritesInParallelForAreFlagged)
{
    const char *bad =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    int total = 0;\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        total += i;\n"
        "    });\n"
        "}\n";
    auto findings = run({{"src/core/demo.cc", bad}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "thread-ownership");
    EXPECT_NE(findings[0].message.find("total"), std::string::npos);

    // Index-owned slots, locals, and by-value captures are all fine.
    const char *good =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    int base = 7;\n"
        "    ef::parallel_for(pool, 4, [&, base](int i) {\n"
        "        int local = base + i;\n"
        "        local += 1;\n"
        "        out[i] = local;\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(run({{"src/core/demo.cc", good}}).empty());

    // Mutating-method calls on a shared container are writes too.
    const char *push =
        "void plan(ef::ThreadPool *pool, std::vector<int> &out) {\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        out.push_back(i);\n"
        "    });\n"
        "}\n";
    findings = run({{"src/core/demo.cc", push}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "thread-ownership");

    // The audited escape hatch (line above the call site).
    const char *allowed =
        "void plan(ef::ThreadPool *pool, std::atomic<int> &n) {\n"
        "    // ef-audit: allow(thread-ownership: atomic counter)\n"
        "    ef::parallel_for(pool, 4, [&](int i) {\n"
        "        n += i;\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(run({{"src/core/demo.cc", allowed}}).empty());
}

TEST(EfAuditLayering, IncludesMustFollowTheDeclaredDag)
{
    // The DAG comes from the libraries' CMakeLists.txt: base <- mid <-
    // top (third-party link targets are not layers).
    const std::vector<audit::SourceFile> dag = {
        {"src/base/CMakeLists.txt",
         "add_library(ef_base b.cc)\n"
         "target_link_libraries(ef_base PUBLIC Threads::Threads)\n"},
        {"src/mid/CMakeLists.txt",
         "target_link_libraries(ef_mid PUBLIC ef_base)\n"},
        {"src/top/CMakeLists.txt",
         "target_link_libraries(ef_top PUBLIC\n    ef_mid)\n"}};
    const auto with_dag = [&](audit::SourceFile file) {
        std::vector<audit::SourceFile> files = dag;
        files.push_back(std::move(file));
        return run(files);
    };
    // top -> mid (direct) and top -> base (transitive) are fine.
    EXPECT_TRUE(with_dag({"src/top/a.cc", "#include \"mid/m.h\"\n"
                                          "#include \"base/b.h\"\n"
                                          "#include \"top/a.h\"\n"
                                          "#include <vector>\n"})
                    .empty());
    // base -> top inverts the DAG.
    auto findings = with_dag({"src/base/b.cc", "#include \"top/a.h\"\n"});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_EQ(findings[0].file, "src/base/b.cc");
    EXPECT_EQ(findings[0].line, 1);
    // A directory missing from the DAG is itself a finding.
    findings = with_dag({"src/rogue/r.cc", "#include \"base/b.h\"\n"});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    // So is a link to an unknown library, at its declaration.
    findings = with_dag({"src/odd/CMakeLists.txt",
                         "\ntarget_link_libraries(ef_odd PUBLIC ef_nope)"});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/odd/CMakeLists.txt");
    EXPECT_EQ(findings[0].line, 2);
}

TEST(EfAuditOutput, JsonAndSarifCarryTheFindings)
{
    const std::vector<audit::Finding> findings = {
        {"src/a.cc", 3, "layering", "includes upward"}};
    const std::string json = audit::findings_to_json(findings);
    EXPECT_NE(json.find("\"layering\""), std::string::npos);
    EXPECT_NE(json.find("\"src/a.cc\""), std::string::npos);
    EXPECT_NE(json.find("\"count\""), std::string::npos);
    const std::string sarif = audit::findings_to_sarif(findings);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ef-audit\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":3"), std::string::npos);
}

TEST(EfAuditRules, NamesAreStable)
{
    const std::vector<std::string> expected = {
        "thread-ownership", "layering", "bad-annotation"};
    EXPECT_EQ(audit::rule_names(), expected);
}

}  // namespace
}  // namespace ef
