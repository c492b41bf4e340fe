/**
 * @file
 * ef-audit command-line driver.
 *
 *   ef_audit --root <repo-root>       audit src/ and tools/ against
 *                                     the library DAG declared in
 *                                     src/<dir>/CMakeLists.txt
 *   --jobs N                          index files on N threads
 *   --json <file|->                   machine-readable findings
 *   --sarif <file>                    SARIF 2.1.0 report
 *   --list-rules                      print rule names and exit
 *
 * Exits 0 when clean, 1 when any finding was reported, 2 on usage/IO
 * errors. Text output is one "file:line: [rule] message" per finding,
 * sorted by (file, line, rule) so runs are diffable regardless of
 * --jobs.
 */
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit.h"

namespace fs = std::filesystem;

namespace {

bool
spill(const fs::path &path, std::string_view text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

int
usage()
{
    std::cerr
        << "usage: ef_audit --root <repo-root> [--jobs N] "
        << "[--json <file|->] [--sarif <file>]\n"
        << "       ef_audit --list-rules\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    fs::path root;
    std::string json_out;
    std::string sarif_out;
    ef::audit::AuditOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const std::string &name : ef::audit::rule_names())
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--root") {
            if (i + 1 >= argc)
                return usage();
            root = argv[++i];
        } else if (arg == "--jobs") {
            if (i + 1 >= argc)
                return usage();
            options.jobs = std::atoi(argv[++i]);
            if (options.jobs < 1)
                return usage();
        } else if (arg == "--json") {
            if (i + 1 >= argc)
                return usage();
            json_out = argv[++i];
        } else if (arg == "--sarif") {
            if (i + 1 >= argc)
                return usage();
            sarif_out = argv[++i];
        } else {
            return usage();
        }
    }
    if (root.empty())
        return usage();
    if (!fs::is_directory(root)) {
        std::cerr << "ef_audit: not a directory: " << root.string()
                  << "\n";
        return 2;
    }

    std::vector<std::string> unreadable;
    const std::vector<ef::audit::SourceFile> files =
        ef::audit::load_tree(root.string(), &unreadable);
    for (const std::string &rel : unreadable)
        std::cerr << "ef_audit: cannot read " << rel << "\n";
    int file_errors = static_cast<int>(unreadable.size());

    const std::vector<ef::audit::Finding> findings =
        ef::audit::run_audit(files, options);

    for (const ef::audit::Finding &finding : findings)
        std::cout << ef::audit::format_finding(finding) << "\n";
    if (!json_out.empty()) {
        const std::string doc =
            ef::audit::findings_to_json(findings);
        if (json_out == "-") {
            std::cout << doc << "\n";
        } else if (!spill(json_out, doc)) {
            std::cerr << "ef_audit: cannot write " << json_out
                      << "\n";
            ++file_errors;
        }
    }
    if (!sarif_out.empty() &&
        !spill(sarif_out, ef::audit::findings_to_sarif(findings))) {
        std::cerr << "ef_audit: cannot write " << sarif_out << "\n";
        ++file_errors;
    }

    std::cerr << "ef_audit: " << files.size() << " files, "
              << findings.size() << " finding(s)\n";
    if (file_errors > 0)
        return 2;
    return findings.empty() ? 0 : 1;
}
