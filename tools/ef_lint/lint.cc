#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "lexer.h"

namespace ef {
namespace lint {
namespace {

/** One `ef-lint: allow(rule: reason)` comment, or a malformed try. */
struct Annotation
{
    int line = 0;
    std::string rule;
    std::string reason;
    bool malformed = false;
    std::string error;
};

/**
 * Parse an ef-lint annotation out of one line comment's body. The
 * closing ')' is optional so a long reason may run to the end of the
 * comment; the rule name and a non-empty reason are not.
 */
void
parse_annotation(std::string_view comment, int line,
                 std::vector<Annotation> &out)
{
    const std::string_view kTag = "ef-lint:";
    std::size_t pos = comment.find(kTag);
    if (pos == std::string_view::npos)
        return;
    Annotation a;
    a.line = line;
    std::size_t i = pos + kTag.size();
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i]))) {
        ++i;
    }
    const std::string_view kAllow = "allow(";
    if (comment.substr(i, kAllow.size()) != kAllow) {
        a.malformed = true;
        a.error = "expected 'ef-lint: allow(<rule>: <reason>)'";
        out.push_back(std::move(a));
        return;
    }
    i += kAllow.size();
    std::size_t colon = comment.find(':', i);
    std::size_t close = comment.find(')', i);
    if (colon == std::string_view::npos ||
        (close != std::string_view::npos && close < colon)) {
        a.malformed = true;
        a.error = "allow() needs a reason: allow(<rule>: <reason>)";
        out.push_back(std::move(a));
        return;
    }
    a.rule = trim(comment.substr(i, colon - i));
    std::size_t reason_end = close == std::string_view::npos
                                 ? comment.size()
                                 : close;
    a.reason = trim(comment.substr(colon + 1, reason_end - colon - 1));
    if (a.rule.empty() || a.reason.empty()) {
        a.malformed = true;
        a.error = "allow() needs a rule name and a non-empty reason";
    }
    out.push_back(std::move(a));
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const std::set<std::string> kNondetCalls = {"rand", "srand", "getenv",
                                            "time", "clock"};
const std::set<std::string> kNondetTypes = {
    "random_device", "system_clock",         "steady_clock",
    "high_resolution_clock", "mt19937",      "mt19937_64",
    "minstd_rand",    "minstd_rand0",        "default_random_engine",
    "knuth_b",        "ranlux24",            "ranlux48",
    "random_shuffle"};
const std::set<std::string> kUnordered = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
const std::set<std::string> kIoSinks = {"cout", "cerr", "clog"};
const std::set<std::string> kThreadingHeaders = {
    "thread",    "mutex",     "atomic",    "condition_variable",
    "shared_mutex", "future", "semaphore", "barrier",
    "latch",     "stop_token"};
const std::set<std::string> kFileIoTypes = {"ifstream", "ofstream",
                                            "fstream", "filebuf"};
const std::set<std::string> kFileIoCalls = {"fopen", "freopen",
                                            "tmpfile"};
const std::set<std::string> kSideEffectOps = {
    "=",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<=", ">>=", "++", "--"};
const std::set<std::string> kCondMacros = {"EF_CHECK", "EF_DCHECK"};
const std::set<std::string> kCondMsgMacros = {"EF_CHECK_MSG",
                                              "EF_DCHECK_MSG",
                                              "EF_FATAL_IF"};

/** Is tokens[idx] a member access (preceded by '.' or '->')? */
bool
is_member(const std::vector<Token> &tokens, std::size_t idx)
{
    if (idx == 0)
        return false;
    const Token &prev = tokens[idx - 1];
    return prev.kind == Token::kPunct &&
           (prev.text == "." || prev.text == "->");
}

bool
next_is(const std::vector<Token> &tokens, std::size_t idx,
        std::string_view text)
{
    return idx + 1 < tokens.size() &&
           tokens[idx + 1].kind == Token::kPunct &&
           tokens[idx + 1].text == text;
}

/** Is this punct/ident a boundary that ends an ==/!= operand scan? */
bool
operand_boundary(const Token &tok)
{
    if (tok.kind == Token::kIdent)
        return tok.text == "return" || tok.text == "case";
    if (tok.kind != Token::kPunct)
        return false;
    static const std::set<std::string> kBoundary = {
        ";", "{", "}", ",", "?", ":", "&&", "||", "=",  "+=", "-=",
        "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "#"};
    return kBoundary.count(tok.text) > 0;
}

/**
 * Does the operand neighborhood of the ==/!= at @p idx contain a
 * floating-point literal or the kTimeInfinity sentinel? Scans outward
 * in both directions until an expression boundary at paren depth 0
 * (bounded, so pathological lines cannot blow up).
 */
bool
float_operand_nearby(const std::vector<Token> &tokens, std::size_t idx)
{
    constexpr int kMaxScan = 64;
    auto is_float_tok = [](const Token &tok) {
        return (tok.kind == Token::kNumber && tok.is_float) ||
               (tok.kind == Token::kIdent &&
                tok.text == "kTimeInfinity");
    };
    int depth = 0;
    for (std::size_t j = idx; j-- > 0 && idx - j <= kMaxScan;) {
        const Token &tok = tokens[j];
        if (tok.kind == Token::kPunct &&
            (tok.text == ")" || tok.text == "]")) {
            ++depth;
        } else if (tok.kind == Token::kPunct &&
                   (tok.text == "(" || tok.text == "[")) {
            if (depth == 0)
                break;
            --depth;
        } else if (depth == 0 && operand_boundary(tok)) {
            break;
        } else if (is_float_tok(tok)) {
            return true;
        }
    }
    depth = 0;
    for (std::size_t j = idx + 1;
         j < tokens.size() && j - idx <= kMaxScan; ++j) {
        const Token &tok = tokens[j];
        if (tok.kind == Token::kPunct &&
            (tok.text == "(" || tok.text == "[")) {
            ++depth;
        } else if (tok.kind == Token::kPunct &&
                   (tok.text == ")" || tok.text == "]")) {
            if (depth == 0)
                break;
            --depth;
        } else if (depth == 0 && operand_boundary(tok)) {
            break;
        } else if (is_float_tok(tok)) {
            return true;
        }
    }
    return false;
}

void
add_issue(std::vector<Issue> &issues, std::string_view path, int line,
          const char *rule, std::string message)
{
    issues.push_back(
        Issue{std::string(path), line, rule, std::move(message)});
}

/**
 * The layering rule for one quoted include, @p inc, in a file of
 * src/<layer>/: a path into another library directory must name one
 * that <layer> depends on. Same-directory includes and paths into
 * non-library directories are not layer edges.
 */
void
check_include(const LayerDag &dag, const std::string &layer,
              std::string_view path, const Token &inc,
              std::vector<Issue> &issues)
{
    const std::size_t slash = inc.text.find('/');
    if (slash == std::string::npos)
        return;
    const std::string target = inc.text.substr(0, slash);
    if (dag.reach.count(target) == 0 ||
        dag.reach.at(layer).count(target) > 0) {
        return;
    }
    add_issue(issues, path, inc.line, "layering",
              "src/" + layer + "/ includes \"" + inc.text +
                  "\" but ef_" + layer +
                  " does not (transitively) link ef_" + target +
                  " — includes follow the library DAG, never upward");
}

}  // namespace

FileClass
classify(std::string_view path)
{
    auto starts = [&](std::string_view prefix) {
        return path.substr(0, prefix.size()) == prefix;
    };
    FileClass cls;
    cls.library = starts("src/");
    cls.order_sensitive = starts("src/sched/") || starts("src/sim/");
    cls.io_exempt =
        starts("src/common/logging.") || starts("src/common/check.");
    cls.rng_exempt = starts("src/common/rng.");
    cls.file_io_exempt =
        starts("src/recover/") || starts("src/workload/trace_io.");
    const std::size_t slash = path.find('/', 4);
    if (cls.library && slash != std::string_view::npos)
        cls.layer = std::string(path.substr(4, slash - 4));
    return cls;
}

LayerDag
read_layer_dag(const std::map<std::string, std::string> &cmake_lists)
{
    /** One declared layer: its CMakeLists.txt, the line of its
     *  target_link_libraries call, and each ef_* dependency with the
     *  line it is named on. */
    struct Layer
    {
        std::string file;
        int line = 1;
        std::vector<std::pair<std::string, int>> deps;
    };
    const std::string kSuffix = "/CMakeLists.txt";
    std::map<std::string, Layer> layers;
    for (const auto &[path, text] : cmake_lists) {
        if (path.rfind("src/", 0) != 0 ||
            path.size() <= 4 + kSuffix.size() ||
            path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0) {
            continue;
        }
        const std::string dir =
            path.substr(4, path.size() - 4 - kSuffix.size());
        // Offset of `<call>(ef_<dir>` as a whole word, or npos.
        const auto find_call = [&](std::string_view call) {
            const std::string needle =
                std::string(call) + "(ef_" + dir;
            for (std::size_t at = text.find(needle);
                 at != std::string::npos;
                 at = text.find(needle, at + 1)) {
                const std::size_t end = at + needle.size();
                if (end == text.size() || !ident_char(text[end]))
                    return at;
            }
            return std::string::npos;
        };
        const std::size_t link = find_call("target_link_libraries");
        if (link == std::string::npos &&
            find_call("add_library") == std::string::npos) {
            continue;
        }
        Layer &layer = layers[dir];
        layer.file = path;
        if (link == std::string::npos)
            continue;
        layer.line = 1 + static_cast<int>(std::count(
                             text.begin(),
                             text.begin() +
                                 static_cast<std::ptrdiff_t>(link),
                             '\n'));
        int line = layer.line;
        std::size_t i =
            link + std::string_view("target_link_libraries(ef_").size() +
            dir.size();
        const std::size_t close = std::min(text.find(')', i), text.size());
        while (i < close) {
            if (std::isspace(static_cast<unsigned char>(text[i]))) {
                line += text[i++] == '\n';
                continue;
            }
            std::size_t end = i;
            while (end < close &&
                   !std::isspace(static_cast<unsigned char>(text[end])))
                ++end;
            if (text.compare(i, 3, "ef_") == 0)
                layer.deps.push_back(
                    {text.substr(i + 3, end - i - 3), line});
            i = end;
        }
    }

    LayerDag dag;
    for (const auto &[dir, layer] : layers) {
        std::set<std::string> &reach = dag.reach[dir];
        std::vector<std::string> todo;
        for (const auto &[dep, line] : layer.deps) {
            if (layers.count(dep) == 0) {
                add_issue(dag.issues, layer.file, line, "layering",
                          "ef_" + dir + " links unknown library ef_" +
                              dep + " — no src/" + dep +
                              "/CMakeLists.txt declares it");
            }
            todo.push_back(dep);
        }
        while (!todo.empty()) {
            const std::string next = std::move(todo.back());
            todo.pop_back();
            if (layers.count(next) == 0 || !reach.insert(next).second)
                continue;
            for (const auto &[dep, line] : layers.at(next).deps)
                todo.push_back(dep);
        }
        if (reach.count(dir) > 0) {
            add_issue(dag.issues, layer.file, layer.line, "layering",
                      "ef_" + dir +
                          " depends on itself: the library DAG has a "
                          "cycle");
        }
        reach.insert(dir);
    }
    return dag;
}

const std::vector<std::string> &
rule_names()
{
    static const std::vector<std::string> kNames = {
        "nondet",           "unordered", "float-eq",
        "check-side-effect", "io",        "using-namespace",
        "threading",        "file-io",   "layering"};
    return kNames;
}

std::string
format_issue(const Issue &issue)
{
    std::ostringstream out;
    out << issue.file << ":" << issue.line << ": [" << issue.rule
        << "] " << issue.message;
    return out.str();
}

std::vector<Issue>
lint_source(std::string_view path, std::string_view text,
            const FileClass &cls)
{
    return lint_source(path, text, cls, LintOptions{});
}

std::vector<Issue>
lint_source(std::string_view path, std::string_view text,
            const FileClass &cls, const LintOptions &options)
{
    Lexed lexed = lex(text);
    const std::vector<Token> &tokens = lexed.tokens;
    std::vector<Issue> issues;

    bool layered = options.layers != nullptr &&
                   !options.layers->reach.empty() && !cls.layer.empty();
    if (layered && options.layers->reach.count(cls.layer) == 0) {
        add_issue(issues, path, 1, "layering",
                  "src/" + cls.layer +
                      "/ is not in the library DAG — declare "
                      "add_library(ef_" +
                      cls.layer + " ...) in its CMakeLists.txt");
        layered = false;
    }

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &tok = tokens[i];
        if (tok.kind == Token::kIdent) {
            if (cls.library && !cls.rng_exempt && !is_member(tokens, i)) {
                if (kNondetTypes.count(tok.text) > 0 ||
                    (kNondetCalls.count(tok.text) > 0 &&
                     next_is(tokens, i, "("))) {
                    add_issue(issues, path, tok.line, "nondet",
                              "nondeterminism source '" + tok.text +
                                  "' in library code — route "
                                  "randomness through ef::Rng and "
                                  "time through the simulated clock");
                }
            }
            if (cls.order_sensitive && kUnordered.count(tok.text) > 0) {
                add_issue(issues, path, tok.line, "unordered",
                          "'" + tok.text +
                              "' in order-sensitive code: iteration "
                              "order can leak into plan or event "
                              "order — use std::map/std::set or a "
                              "sorted vector");
            }
            if (cls.library && !cls.io_exempt &&
                kIoSinks.count(tok.text) > 0 &&
                !is_member(tokens, i)) {
                add_issue(issues, path, tok.line, "io",
                          "direct std::" + tok.text +
                              " in library code — log through "
                              "EF_INFO/EF_WARN or return text to the "
                              "caller");
            }
            // (An `#include <fstream>` directive is reported once, by
            // the include branch below — the `<` guard skips it here.)
            const bool after_angle =
                i > 0 && tokens[i - 1].kind == Token::kPunct &&
                tokens[i - 1].text == "<";
            if (cls.library && !cls.file_io_exempt &&
                !is_member(tokens, i) && !after_angle &&
                (kFileIoTypes.count(tok.text) > 0 ||
                 (kFileIoCalls.count(tok.text) > 0 &&
                  next_is(tokens, i, "(")))) {
                add_issue(issues, path, tok.line, "file-io",
                          "raw file I/O ('" + tok.text +
                              "') in library code — durable state "
                              "flows through recover::DurableLog "
                              "(recover/) or workload/trace_io so "
                              "crash-consistency guarantees hold");
            }
            if (cls.library && tok.text == "using" &&
                i + 1 < tokens.size() &&
                tokens[i + 1].kind == Token::kIdent &&
                tokens[i + 1].text == "namespace") {
                add_issue(issues, path, tok.line, "using-namespace",
                          "'using namespace' in library code — "
                          "qualify names explicitly");
            }
            const bool cond_macro = kCondMacros.count(tok.text) > 0;
            const bool msg_macro = kCondMsgMacros.count(tok.text) > 0;
            if ((cond_macro || msg_macro) && next_is(tokens, i, "(")) {
                // Scan the condition argument (for _MSG/_FATAL_IF
                // variants: up to the first top-level comma) for
                // side-effect operators.
                int depth = 0;
                for (std::size_t j = i + 1; j < tokens.size(); ++j) {
                    const Token &arg = tokens[j];
                    if (arg.kind != Token::kPunct) {
                        continue;
                    } else if (arg.text == "(" || arg.text == "[" ||
                               arg.text == "{") {
                        ++depth;
                    } else if (arg.text == ")" || arg.text == "]" ||
                               arg.text == "}") {
                        if (--depth == 0)
                            break;
                    } else if (msg_macro && depth == 1 &&
                               arg.text == ",") {
                        break;  // message argument may stream freely
                    } else if (kSideEffectOps.count(arg.text) > 0) {
                        add_issue(
                            issues, path, arg.line,
                            "check-side-effect",
                            "side effect ('" + arg.text + "') inside " +
                                tok.text +
                                " condition — EF_DCHECK conditions "
                                "are not evaluated in release builds "
                                "and checks must never mutate state");
                    }
                }
            }
        } else if (tok.kind == Token::kPunct && tok.text == "#") {
            // Include directives lex as `#` `include` `<` name `>`.
            const bool is_include =
                i + 4 < tokens.size() &&
                tokens[i + 1].kind == Token::kIdent &&
                tokens[i + 1].text == "include" &&
                tokens[i + 2].kind == Token::kPunct &&
                tokens[i + 2].text == "<" &&
                tokens[i + 3].kind == Token::kIdent &&
                tokens[i + 4].kind == Token::kPunct &&
                tokens[i + 4].text == ">";
            if (cls.library && is_include &&
                kThreadingHeaders.count(tokens[i + 3].text) > 0) {
                add_issue(issues, path, tok.line, "threading",
                          "<" + tokens[i + 3].text +
                              "> include in library code — the "
                              "library is single-threaded, so its "
                              "decisions depend on its inputs alone");
            }
            if (layered && i + 2 < tokens.size() &&
                tokens[i + 1].kind == Token::kIdent &&
                tokens[i + 1].text == "include" &&
                tokens[i + 2].kind == Token::kString) {
                check_include(*options.layers, cls.layer, path,
                              tokens[i + 2], issues);
            }
            if (cls.library && !cls.file_io_exempt && is_include &&
                tokens[i + 3].text == "fstream") {
                add_issue(issues, path, tok.line, "file-io",
                          "<fstream> include in library code — "
                          "durable state flows through "
                          "recover::DurableLog (recover/) or "
                          "workload/trace_io so crash-consistency "
                          "guarantees hold");
            }
        } else if (tok.kind == Token::kPunct &&
                   (tok.text == "==" || tok.text == "!=")) {
            if (float_operand_nearby(tokens, i)) {
                add_issue(issues, path, tok.line, "float-eq",
                          "floating-point ==/!= — use "
                          "ef::almost_equal (common/math_util) or "
                          "ef::is_unbounded for kTimeInfinity "
                          "sentinels");
            }
        }
    }

    // Annotation validation + suppression.
    std::vector<Annotation> annotations;
    for (const Comment &comment : lexed.comments)
        parse_annotation(comment.text, comment.line, annotations);
    std::map<std::pair<std::string, int>, bool> allows;  // -> used?
    const std::vector<std::string> &known = rule_names();
    for (const Annotation &a : annotations) {
        if (a.malformed) {
            add_issue(issues, path, a.line, "bad-annotation", a.error);
            continue;
        }
        bool valid = false;
        for (const std::string &name : known)
            valid = valid || name == a.rule;
        if (!valid) {
            add_issue(issues, path, a.line, "bad-annotation",
                      "unknown rule '" + a.rule +
                          "' in ef-lint: allow(...)");
            continue;
        }
        allows.insert({{a.rule, a.line}, false});
    }
    std::vector<Issue> kept;
    for (Issue &issue : issues) {
        if (issue.rule != "bad-annotation") {
            auto same = allows.find({issue.rule, issue.line});
            auto above = allows.find({issue.rule, issue.line - 1});
            if (same != allows.end() || above != allows.end()) {
                // Suppressed by an allow() on this/previous line.
                if (same != allows.end())
                    same->second = true;
                if (above != allows.end())
                    above->second = true;
                continue;
            }
        }
        kept.push_back(std::move(issue));
    }
    if (options.warn_unused_allow) {
        for (const auto &[key, used] : allows) {
            if (used)
                continue;
            add_issue(kept, path, key.second, "unused-allow",
                      "ef-lint: allow(" + key.first +
                          ") suppressed nothing — stale escape "
                          "hatches hide real regressions; remove it "
                          "or re-anchor it to the flagged line");
        }
    }
    return kept;
}

}  // namespace lint
}  // namespace ef
