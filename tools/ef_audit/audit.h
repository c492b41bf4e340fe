/**
 * @file
 * ef-audit: cross-file semantic analysis for the repo's determinism
 * and layering contracts.
 *
 * Where ef-lint (tools/ef_lint) judges one file at a time, ef-audit
 * runs in two passes: pass 1 builds a lightweight index over the
 * scanned sources (quoted-include graph, lambda captures at
 * ef::ThreadPool dispatch sites, annotations) and reads the library
 * DAG from src/<dir>/CMakeLists.txt; pass 2 runs cross-file rules over
 * that index:
 *
 *   thread-ownership Lambdas passed to parallel_for may only write
 *                    through locals bound to index-owned slots.
 *                    Captured-by-reference mutation of shared state
 *                    without a subscripted owned slot violates the
 *                    ThreadPool determinism contract (DESIGN.md §7).
 *   layering         Quoted includes in src/ must respect the library
 *                    DAG the build declares — each
 *                    `target_link_libraries(ef_<dir> ... ef_<dep> ...)`
 *                    in src/<dir>/CMakeLists.txt: a directory may
 *                    include itself and its (transitive) dependencies,
 *                    never upward. A dependency on an unknown library
 *                    or a cycle is a finding too.
 *   bad-annotation   Malformed ef-audit annotations.
 *
 * State coverage needs no rule: each persistent type lists its fields
 * once (recover/fields.h) and the state hash, snapshot encoder and
 * decoder are all derived from that list.
 *
 * Escape hatch (audited — it carries a mandatory reason):
 *
 *   // ef-audit: allow(<rule>: <reason>)
 *       Suppress a thread-ownership or layering finding on this line
 *       or the line below (same contract as ef-lint allow()).
 */
#ifndef EF_TOOLS_EF_AUDIT_AUDIT_H_
#define EF_TOOLS_EF_AUDIT_AUDIT_H_

#include <string>
#include <vector>

namespace ef {
namespace audit {

/** One file handed to the audit: repo-relative path + contents. */
struct SourceFile
{
    std::string path;  // forward-slash, relative to the repo root
    std::string text;
};

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** "file:line: [rule] message" */
std::string format_finding(const Finding &finding);

/** All rule names, for allow() validation and --list-rules. */
const std::vector<std::string> &rule_names();

/**
 * The files ef-audit scans under @p root: C++ sources and
 * CMakeLists.txt in src/ and tools/, sorted by path. Paths that could
 * not be read are appended to @p unreadable.
 */
std::vector<SourceFile> load_tree(const std::string &root,
                                  std::vector<std::string> *unreadable);

struct AuditOptions
{
    /** Worker threads for the pass-1 file indexing (>= 1). */
    int jobs = 1;
};

/**
 * Run both passes over @p files and return all findings, sorted by
 * (file, line, rule) and deduplicated. src/<dir>/CMakeLists.txt files
 * declare the layer DAG; thread-ownership and bad-annotation scan
 * every other file given, and layering (when a DAG was given) the
 * ones under src/.
 */
std::vector<Finding> run_audit(const std::vector<SourceFile> &files,
                               const AuditOptions &options = {});

/** Machine-readable output: {"findings": [...], "count": N}. */
std::string findings_to_json(const std::vector<Finding> &findings);

/** SARIF 2.1.0, one run, level "error" results. */
std::string findings_to_sarif(const std::vector<Finding> &findings);

}  // namespace audit
}  // namespace ef

#endif  // EF_TOOLS_EF_AUDIT_AUDIT_H_
