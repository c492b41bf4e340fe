/**
 * @file
 * ef-lint: ElasticFlow-specific static analysis.
 *
 * A lightweight lexer-based analyzer (no libclang) that enforces the
 * repo's determinism and scheduler-invariant contracts:
 *
 *   nondet            No nondeterminism sources in library code
 *                     (std::rand, random_device, system_clock,
 *                     steady_clock, time(), clock(), getenv, raw
 *                     standard engines). All randomness flows through
 *                     ef::Rng; all time through the simulated clock.
 *   unordered         No std::unordered_map / unordered_set in
 *                     src/sched/ and src/sim/, where iteration order
 *                     can leak into plan or event order.
 *   float-eq          No ==/!= whose operand expression contains a
 *                     floating-point literal or the kTimeInfinity
 *                     sentinel; use ef::almost_equal / ef::is_unbounded.
 *   check-side-effect No assignments or ++/-- inside the condition of
 *                     EF_CHECK / EF_CHECK_MSG / EF_FATAL_IF /
 *                     EF_DCHECK / EF_DCHECK_MSG (the EF_DCHECK
 *                     condition is not evaluated in release builds).
 *   io                No std::cout / std::cerr / std::clog in library
 *                     code outside common/logging and common/check.
 *   using-namespace   No using-namespace directives in library code.
 *   threading         No threading includes (<thread>, <mutex>,
 *                     <atomic>, <condition_variable>, ...) in library
 *                     code: the library is single-threaded, so planner
 *                     decisions are a function of the inputs alone.
 *   file-io           No raw file I/O (<fstream> includes, fstream
 *                     stream types, fopen/freopen) in library code
 *                     outside recover/ and workload/trace_io.* — all
 *                     durable state flows through recover::DurableLog
 *                     so crash-consistency (checksums, fsync'd commit
 *                     points, atomic snapshot replace) cannot be
 *                     bypassed by ad-hoc writes.
 *   layering          Quoted includes in src/<dir>/ follow the library
 *                     DAG the build declares (read_layer_dag): a
 *                     directory includes itself and its transitive
 *                     ef_* dependencies, never upward. A src/<dir>/
 *                     missing from the DAG is reported at line 1 of
 *                     each of its files; links to unknown libraries
 *                     and cycles are reported by read_layer_dag at
 *                     the CMakeLists.txt line.
 *
 * Escape hatch: a violation is suppressed by a line comment on the
 * same line or the line directly above it, naming the rule and a
 * non-empty reason:
 *
 *     // ef-lint: allow(unordered: order never observed, keys drained
 *     //                into a sorted vector)
 *
 * Malformed annotations (unknown rule, missing reason) are themselves
 * reported, as rule "bad-annotation". Unused annotations are legal by
 * default — they may document intent at sites the lexical heuristics
 * are too weak to flag — but LintOptions::warn_unused_allow surfaces
 * them as advisory "unused-allow" issues so stale escape hatches are
 * visible instead of accumulating silently.
 */
#ifndef EF_TOOLS_EF_LINT_LINT_H_
#define EF_TOOLS_EF_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ef {
namespace lint {

/** Which rule groups apply to a file, derived from its repo path. */
struct FileClass
{
    /** Library code (under src/): nondet, io, using-namespace apply. */
    bool library = false;
    /** Iteration order can leak into decisions (src/sched, src/sim). */
    bool order_sensitive = false;
    /** The sanctioned stderr sinks (common/logging.*, common/check.*). */
    bool io_exempt = false;
    /** The sanctioned randomness source (common/rng.*). */
    bool rng_exempt = false;
    /** The sanctioned persistence layer (recover/, workload/trace_io.*). */
    bool file_io_exempt = false;
    /** The library directory <dir> of a file under src/<dir>/, which
     *  the layering rule checks; empty elsewhere. */
    std::string layer;
};

/** Classify a forward-slash path relative to the repo root. */
FileClass classify(std::string_view repo_relative_path);

/** One rule violation (or malformed annotation). */
struct Issue
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

/** "file:line: [rule] message" */
std::string format_issue(const Issue &issue);

/** All valid rule names, for annotation validation and --list-rules. */
const std::vector<std::string> &rule_names();

/** The library DAG declared by src/<dir>/CMakeLists.txt. */
struct LayerDag
{
    /** <dir> -> the directories its files may include: itself and
     *  every (transitive) dependency. */
    std::map<std::string, std::set<std::string>> reach;
    /** Links to unknown libraries and cycles, at their CMake line. */
    std::vector<Issue> issues;
};

/**
 * Read the DAG from CMakeLists.txt contents keyed by repo-relative
 * path (other paths are ignored). `add_library(ef_<dir>` or
 * `target_link_libraries(ef_<dir>` in src/<dir>/CMakeLists.txt
 * declares the layer <dir>; the ef_<dep> arguments of the latter are
 * its direct dependencies.
 */
LayerDag read_layer_dag(const std::map<std::string, std::string> &cmake_lists);

/** Optional behaviors beyond the always-on rule set. */
struct LintOptions
{
    /** The DAG the layering rule checks against. Null or empty skips
     *  the rule. */
    const LayerDag *layers = nullptr;
    /**
     * Emit an advisory "unused-allow" issue for every well-formed
     * allow() annotation that suppressed nothing. Not a member of
     * rule_names(): it cannot itself be allow()ed, and callers treat
     * it as a warning (it never affects the ef_lint exit status).
     */
    bool warn_unused_allow = false;
};

/**
 * Lint one file's contents. @p path is used for issue reporting only;
 * pass @p cls from classify() (or hand-build it in tests).
 */
std::vector<Issue> lint_source(std::string_view path,
                               std::string_view text,
                               const FileClass &cls);
std::vector<Issue> lint_source(std::string_view path,
                               std::string_view text,
                               const FileClass &cls,
                               const LintOptions &options);

}  // namespace lint
}  // namespace ef

#endif  // EF_TOOLS_EF_LINT_LINT_H_
