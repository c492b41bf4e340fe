/**
 * @file
 * ef-lint command-line driver.
 *
 *   ef_lint --root <repo-root>          lint src/ tests/ examples/ bench/
 *   ef_lint --root <repo-root> <files>  lint specific files (paths
 *                                       relative to the root)
 *   ef_lint --list-rules                print rule names and exit
 *   --warn-unused-allow                 advisory: report allow()
 *                                       annotations that suppressed
 *                                       nothing (never affects the
 *                                       exit status)
 *
 * The layering rule's library DAG is always read from
 * <repo-root>/src/<dir>/CMakeLists.txt; faults in it (unknown
 * libraries, cycles) are reported first.
 *
 * Exits 0 when clean, 1 when any issue was found, 2 on usage/IO
 * errors. Output is one "file:line: [rule] message" per issue, in
 * sorted file order so runs are diffable.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

bool
lintable(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp";
}

std::string
slurp(const fs::path &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ok = true;
    return buffer.str();
}

int
usage()
{
    std::cerr << "usage: ef_lint --root <repo-root>"
              << " [--warn-unused-allow] [files...]\n"
              << "       ef_lint --list-rules\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    fs::path root;
    std::vector<std::string> explicit_files;
    ef::lint::LintOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const std::string &name : ef::lint::rule_names())
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--root") {
            if (i + 1 >= argc)
                return usage();
            root = argv[++i];
        } else if (arg == "--warn-unused-allow") {
            options.warn_unused_allow = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            explicit_files.push_back(arg);
        }
    }
    if (root.empty())
        return usage();
    if (!fs::is_directory(root)) {
        std::cerr << "ef_lint: not a directory: " << root.string()
                  << "\n";
        return 2;
    }

    // Collect repo-relative paths to lint.
    std::vector<std::string> files;
    if (!explicit_files.empty()) {
        files = explicit_files;
    } else {
        for (const char *dir :
             {"src", "tests", "examples", "bench"}) {
            const fs::path base = root / dir;
            if (!fs::is_directory(base))
                continue;
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file() &&
                    lintable(entry.path())) {
                    files.push_back(fs::relative(entry.path(), root)
                                        .generic_string());
                }
            }
        }
    }
    std::sort(files.begin(), files.end());

    int issue_count = 0;
    int warn_count = 0;
    int file_errors = 0;
    const auto report = [&](const std::vector<ef::lint::Issue> &issues) {
        for (const ef::lint::Issue &issue : issues) {
            std::cout << ef::lint::format_issue(issue) << "\n";
            if (issue.rule == "unused-allow")
                ++warn_count;
            else
                ++issue_count;
        }
    };

    // The library DAG the layering rule checks against.
    std::map<std::string, std::string> cmake_lists;
    if (fs::is_directory(root / "src")) {
        for (const auto &entry : fs::directory_iterator(root / "src")) {
            const fs::path lists = entry.path() / "CMakeLists.txt";
            if (!entry.is_directory() || !fs::is_regular_file(lists))
                continue;
            const std::string rel =
                fs::relative(lists, root).generic_string();
            bool ok = false;
            cmake_lists[rel] = slurp(lists, ok);
            if (!ok) {
                std::cerr << "ef_lint: cannot read " << rel << "\n";
                ++file_errors;
            }
        }
    }
    const ef::lint::LayerDag dag = ef::lint::read_layer_dag(cmake_lists);
    options.layers = &dag;
    report(dag.issues);

    for (const std::string &rel : files) {
        bool ok = false;
        const std::string text = slurp(root / rel, ok);
        if (!ok) {
            std::cerr << "ef_lint: cannot read " << rel << "\n";
            ++file_errors;
            continue;
        }
        report(ef::lint::lint_source(rel, text, ef::lint::classify(rel),
                                     options));
    }

    std::cerr << "ef_lint: " << files.size() << " files, "
              << issue_count << " issue(s)";
    if (options.warn_unused_allow)
        std::cerr << ", " << warn_count << " warning(s)";
    std::cerr << "\n";
    if (file_errors > 0)
        return 2;
    return issue_count > 0 ? 1 : 0;
}
