/** @file ef-audit pass 2: cross-file rules over the file index. */
#include "audit.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "common/parallel.h"
#include "index.h"

namespace ef {
namespace audit {
namespace {

using lint::Token;

const std::set<std::string> kAssignOps = {
    "=",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<=", ">>="};

/** Container methods that mutate the receiver. */
const std::set<std::string> kMutatingMethods = {
    "push_back", "emplace_back", "emplace", "insert", "erase",
    "clear",     "resize",       "assign",  "pop_back", "push",
    "pop",       "reserve",      "swap",    "fill"};

/** Rules an `ef-audit: allow(...)` may suppress. */
const std::set<std::string> kAllowableRules = {"thread-ownership",
                                               "layering"};

void
add_finding(std::vector<Finding> &findings, std::string file, int line,
            const char *rule, std::string message)
{
    findings.push_back(
        Finding{std::move(file), line, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// thread-ownership
// ---------------------------------------------------------------------------

/**
 * Local declarations inside a lambda body, by a two-token pattern:
 * an identifier preceded by a type-ish token (identifier, '&', '*',
 * '>') and followed by '=', ';', ':' or '{'. Catches `Foo &slot =
 * out[i];`, `const auto x = ...;` and range-for variables — the
 * idiomatic owned-slot bindings — without parsing declarations fully.
 */
std::set<std::string>
collect_locals(const std::vector<Token> &tokens, std::size_t begin,
               std::size_t end)
{
    static const std::set<std::string> kNotTypes = {
        "return", "case",  "goto",     "delete", "throw",
        "new",    "else",  "do",       "sizeof", "co_return",
        "co_yield", "co_await", "break", "continue"};
    std::set<std::string> locals;
    for (std::size_t k = begin; k < end; ++k) {
        if (tokens[k].kind != Token::kIdent || k == begin ||
            k + 1 >= end) {
            continue;
        }
        const Token &prev = tokens[k - 1];
        const Token &next = tokens[k + 1];
        const bool prev_typeish =
            (prev.kind == Token::kIdent &&
             kNotTypes.count(prev.text) == 0) ||
            (prev.kind == Token::kPunct &&
             (prev.text == "&" || prev.text == "*" ||
              prev.text == ">"));
        const bool next_declish =
            next.kind == Token::kPunct &&
            (next.text == "=" || next.text == ";" ||
             next.text == ":" || next.text == "{");
        if (prev_typeish && next_declish)
            locals.insert(tokens[k].text);
    }
    return locals;
}

struct Lvalue
{
    std::string root;
    bool subscript = false;
};

/**
 * Walk the member-access chain leftward from @p j (the token just
 * before a mutation) to its root identifier. `a.b[i].c` → root "a",
 * subscript true. Complex lvalues (through a call's result) return an
 * empty root and are skipped.
 */
Lvalue
walk_lvalue(const std::vector<Token> &tokens, std::size_t j,
            std::size_t begin)
{
    Lvalue out;
    while (true) {
        if (j < begin || j >= tokens.size())
            return {};
        const Token &tok = tokens[j];
        if (tok.kind == Token::kPunct && tok.text == "]") {
            int depth = 0;
            while (true) {
                const Token &t = tokens[j];
                if (t.kind == Token::kPunct && t.text == "]") {
                    ++depth;
                } else if (t.kind == Token::kPunct &&
                           t.text == "[") {
                    if (--depth == 0)
                        break;
                }
                if (j == begin)
                    return {};
                --j;
            }
            out.subscript = true;
            if (j == begin)
                return {};
            --j;
            continue;
        }
        if (tok.kind == Token::kIdent) {
            if (j >= begin + 2 &&
                tokens[j - 1].kind == Token::kPunct &&
                (tokens[j - 1].text == "." ||
                 tokens[j - 1].text == "->")) {
                j -= 2;
                continue;
            }
            out.root = tok.text;
            return out;
        }
        return {};  // ')' etc.: lvalue through a call — skip
    }
}

void
check_lambda_site(const FileIndex &index, const LambdaSite &site,
                  std::vector<Finding> &findings)
{
    // An allow(thread-ownership) on the dispatch line (or the line
    // above it) sanctions the whole lambda — writes are flagged at
    // their own line, which the annotator cannot predict.
    for (const AuditAnnotation &a : index.annotations) {
        if (!a.malformed && a.rule == "thread-ownership" &&
            (a.line == site.line || a.line == site.line - 1)) {
            return;
        }
    }
    const std::vector<Token> &tokens = index.lexed.tokens;
    const std::set<std::string> locals =
        collect_locals(tokens, site.body_begin, site.body_end);
    auto flag = [&](const Lvalue &lv, int line,
                    const std::string &via) {
        if (lv.root.empty() || lv.subscript)
            return;
        if (locals.count(lv.root) > 0 ||
            site.params.count(lv.root) > 0 ||
            site.by_value.count(lv.root) > 0) {
            return;
        }
        const bool shared =
            lv.root == "this"
                ? (site.captures_this || site.capture_default_ref ||
                   site.capture_default_value)
                : (site.by_ref.count(lv.root) > 0 ||
                   site.capture_default_ref);
        if (!shared)
            return;
        add_finding(
            findings, index.path, line, "thread-ownership",
            "lambda at this parallel_for site " + via + " '" +
                lv.root +
                "' captured by reference without an index-owned "
                "subscript — fn(i) may only touch index-i state "
                "(write through a slot like out[i], or annotate "
                "`// ef-audit: allow(thread-ownership: ...)`)");
    };
    for (std::size_t k = site.body_begin; k < site.body_end; ++k) {
        const Token &tok = tokens[k];
        if (tok.kind != Token::kPunct && tok.kind != Token::kIdent)
            continue;
        if (tok.kind == Token::kPunct &&
            kAssignOps.count(tok.text) > 0 && k > site.body_begin) {
            flag(walk_lvalue(tokens, k - 1, site.body_begin),
                 tok.line, "writes");
        } else if (tok.kind == Token::kPunct &&
                   (tok.text == "++" || tok.text == "--")) {
            const bool postfix =
                k > site.body_begin &&
                (tokens[k - 1].kind == Token::kIdent ||
                 (tokens[k - 1].kind == Token::kPunct &&
                  (tokens[k - 1].text == "]" ||
                   tokens[k - 1].text == ")")));
            if (postfix) {
                flag(walk_lvalue(tokens, k - 1, site.body_begin),
                     tok.line, "increments");
            } else if (k + 1 < site.body_end &&
                       tokens[k + 1].kind == Token::kIdent) {
                // Prefix: the chain runs rightward; re-use the
                // leftward walker from the chain's last token.
                std::size_t e = k + 1;
                while (e + 1 < site.body_end) {
                    const Token &nx = tokens[e + 1];
                    if (nx.kind == Token::kPunct &&
                        (nx.text == "." || nx.text == "->") &&
                        e + 2 < site.body_end &&
                        tokens[e + 2].kind == Token::kIdent) {
                        e += 2;
                    } else if (nx.kind == Token::kPunct &&
                               nx.text == "[") {
                        int depth = 0;
                        std::size_t m = e + 1;
                        for (; m < site.body_end; ++m) {
                            if (tokens[m].kind == Token::kPunct &&
                                tokens[m].text == "[")
                                ++depth;
                            else if (tokens[m].kind ==
                                         Token::kPunct &&
                                     tokens[m].text == "]" &&
                                     --depth == 0)
                                break;
                        }
                        e = m;
                    } else {
                        break;
                    }
                }
                flag(walk_lvalue(tokens, e, site.body_begin),
                     tok.line, "increments");
            }
        } else if (tok.kind == Token::kIdent &&
                   kMutatingMethods.count(tok.text) > 0 &&
                   k + 1 < site.body_end &&
                   tokens[k + 1].kind == Token::kPunct &&
                   tokens[k + 1].text == "(" &&
                   k >= site.body_begin + 2 &&
                   tokens[k - 1].kind == Token::kPunct &&
                   (tokens[k - 1].text == "." ||
                    tokens[k - 1].text == "->")) {
            flag(walk_lvalue(tokens, k - 2, site.body_begin),
                 tok.line, "calls mutating method ." + tok.text +
                               "() on");
        }
    }
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

/** One src/<dir>/ library: its direct dependencies, and the
 *  CMakeLists.txt line that declares them. */
struct Layer
{
    std::vector<std::string> deps;
    std::string file;
    int line = 0;
};

bool
is_cmake_lists(const std::string &path)
{
    return path.size() > 15 &&
           path.compare(path.size() - 15, 15, "/CMakeLists.txt") == 0;
}

/** The layer DAG as the build declares it: the ef_<dep> arguments of
 *  `target_link_libraries(ef_<dir> ...)` in src/<dir>/CMakeLists.txt. */
std::map<std::string, Layer>
read_layers(const std::vector<SourceFile> &files)
{
    std::map<std::string, Layer> layers;
    for (const SourceFile &file : files) {
        if (!is_cmake_lists(file.path) || file.path.rfind("src/", 0) != 0 ||
            file.path.size() <= 4 + 15)
            continue;
        const std::string dir =
            file.path.substr(4, file.path.size() - 4 - 15);
        const std::string call = "target_link_libraries(ef_" + dir;
        const std::size_t at = file.text.find(call + " ");
        if (at == std::string::npos)
            continue;
        Layer &layer = layers[dir];
        layer.file = file.path;
        layer.line = 1 + static_cast<int>(std::count(
                             file.text.begin(),
                             file.text.begin() +
                                 static_cast<std::ptrdiff_t>(at),
                             '\n'));
        const std::size_t begin = at + call.size();
        std::istringstream args(
            file.text.substr(begin, file.text.find(')', at) - begin));
        for (std::string word; args >> word;) {
            if (word.rfind("ef_", 0) == 0)
                layer.deps.push_back(word.substr(3));
        }
    }
    return layers;
}

std::map<std::string, std::set<std::string>>
layer_closure(const std::map<std::string, Layer> &layers,
              std::vector<Finding> &findings)
{
    for (const auto &[dir, layer] : layers) {
        for (const std::string &dep : layer.deps) {
            if (layers.count(dep) == 0) {
                add_finding(findings, layer.file, layer.line, "layering",
                            "src/" + dir + "/ links unknown library ef_" +
                                dep);
            }
        }
    }
    std::map<std::string, std::set<std::string>> closure;
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::map<std::string, int> color;
    std::function<void(const std::string &)> visit =
        [&](const std::string &dir) {
            color[dir] = 1;
            for (const std::string &dep : layers.at(dir).deps) {
                if (layers.count(dep) == 0)
                    continue;
                if (color[dep] == 1) {
                    add_finding(findings, layers.at(dir).file,
                                layers.at(dir).line, "layering",
                                "library DAG cycle through " + dir +
                                    " -> " + dep);
                    continue;
                }
                if (color[dep] == 0)
                    visit(dep);
                closure[dir].insert(dep);
                closure[dir].insert(closure[dep].begin(),
                                    closure[dep].end());
            }
            color[dir] = 2;
        };
    for (const auto &[dir, layer] : layers) {
        if (color[dir] == 0)
            visit(dir);
    }
    return closure;
}

void
check_layering(const FileIndex &index,
               const std::map<std::string, std::set<std::string>>
                   &closure,
               std::vector<Finding> &findings)
{
    const std::string &path = index.path;
    if (path.rfind("src/", 0) != 0)
        return;
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return;  // src/ top-level files are outside the DAG
    const std::string dir = path.substr(4, slash - 4);
    if (closure.count(dir) == 0) {
        add_finding(findings, path, 1, "layering",
                    "directory src/" + dir +
                        "/ is not in the library DAG — declare "
                        "target_link_libraries(ef_" +
                        dir + " ...) in its CMakeLists.txt");
        return;
    }
    for (const IncludeDirective &inc : index.includes) {
        std::size_t inc_slash = inc.path.find('/');
        if (inc_slash == std::string::npos)
            continue;  // same-directory include
        const std::string target = inc.path.substr(0, inc_slash);
        if (closure.count(target) == 0)
            continue;  // not a library directory (e.g. nested path)
        if (target == dir || closure.at(dir).count(target) > 0)
            continue;
        add_finding(findings, path, inc.line, "layering",
                    "src/" + dir + "/ includes \"" + inc.path +
                        "\" but the declared DAG gives " + dir +
                        " no (transitive) dependency on " + target);
    }
}

}  // namespace

std::string
format_finding(const Finding &finding)
{
    std::ostringstream out;
    out << finding.file << ":" << finding.line << ": ["
        << finding.rule << "] " << finding.message;
    return out.str();
}

const std::vector<std::string> &
rule_names()
{
    static const std::vector<std::string> kNames = {
        "thread-ownership", "layering", "bad-annotation"};
    return kNames;
}

std::vector<SourceFile>
load_tree(const std::string &root, std::vector<std::string> *unreadable)
{
    namespace fs = std::filesystem;
    std::vector<std::string> rels;
    for (const char *dir : {"src", "tools"}) {
        if (!fs::is_directory(fs::path(root) / dir))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(fs::path(root) / dir)) {
            const std::string ext = entry.path().extension().string();
            if (entry.is_regular_file() &&
                (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                 ext == ".cpp" ||
                 entry.path().filename() == "CMakeLists.txt")) {
                rels.push_back(
                    fs::relative(entry.path(), root).generic_string());
            }
        }
    }
    std::sort(rels.begin(), rels.end());
    std::vector<SourceFile> files;
    for (const std::string &rel : rels) {
        std::ifstream in(fs::path(root) / rel, std::ios::binary);
        std::ostringstream text;
        if (in && (text << in.rdbuf()))
            files.push_back({rel, text.str()});
        else
            unreadable->push_back(rel);
    }
    return files;
}

std::vector<Finding>
run_audit(const std::vector<SourceFile> &files, const AuditOptions &options)
{
    std::vector<const SourceFile *> sources;
    for (const SourceFile &file : files) {
        if (!is_cmake_lists(file.path))
            sources.push_back(&file);
    }
    // Pass 1: per-file indexes, one index-owned slot per file.
    std::vector<FileIndex> indexes(sources.size());
    ThreadPool pool(options.jobs < 1 ? 1 : options.jobs);
    parallel_for(&pool, static_cast<int>(sources.size()), [&](int i) {
        const std::size_t n = static_cast<std::size_t>(i);
        indexes[n] = index_file(sources[n]->path, sources[n]->text);
    });

    std::vector<Finding> findings;

    // Annotation hygiene + allow() collection across every file.
    std::map<std::tuple<std::string, std::string, int>, bool> allows;
    for (const FileIndex &index : indexes) {
        for (const AuditAnnotation &a : index.annotations) {
            if (a.malformed) {
                add_finding(findings, index.path, a.line,
                            "bad-annotation", a.error);
                continue;
            }
            if (kAllowableRules.count(a.rule) == 0) {
                add_finding(findings, index.path, a.line,
                            "bad-annotation",
                            "ef-audit: allow() cannot suppress '" +
                                a.rule +
                                "' (suppressible: thread-ownership, "
                                "layering)");
                continue;
            }
            allows[{index.path, a.rule, a.line}] = true;
        }
    }

    for (const FileIndex &index : indexes) {
        for (const LambdaSite &site : index.lambda_sites)
            check_lambda_site(index, site, findings);
    }

    const std::map<std::string, Layer> layers = read_layers(files);
    const std::map<std::string, std::set<std::string>> closure =
        layer_closure(layers, findings);
    if (!layers.empty()) {
        for (const FileIndex &index : indexes)
            check_layering(index, closure, findings);
    }

    // allow() suppression: an annotation on the finding's line or the
    // line directly above it.
    std::vector<Finding> kept;
    for (Finding &finding : findings) {
        if (kAllowableRules.count(finding.rule) > 0 &&
            (allows.count({finding.file, finding.rule,
                           finding.line}) > 0 ||
             allows.count({finding.file, finding.rule,
                           finding.line - 1}) > 0)) {
            continue;
        }
        kept.push_back(std::move(finding));
    }
    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    kept.erase(std::unique(kept.begin(), kept.end(),
                           [](const Finding &a, const Finding &b) {
                               return std::tie(a.file, a.line, a.rule,
                                               a.message) ==
                                      std::tie(b.file, b.line, b.rule,
                                               b.message);
                           }),
               kept.end());
    return kept;
}

std::string
findings_to_json(const std::vector<Finding> &findings)
{
    JsonWriter w;
    w.begin_object();
    w.key("findings").begin_array();
    for (const Finding &finding : findings) {
        w.begin_object();
        w.kv("file", finding.file);
        w.kv("line", finding.line);
        w.kv("rule", finding.rule);
        w.kv("message", finding.message);
        w.end_object();
    }
    w.end_array();
    w.kv("count", static_cast<std::int64_t>(findings.size()));
    w.end_object();
    return w.str();
}

std::string
findings_to_sarif(const std::vector<Finding> &findings)
{
    JsonWriter w;
    w.begin_object();
    w.kv("version", "2.1.0");
    w.kv("$schema",
         "https://json.schemastore.org/sarif-2.1.0.json");
    w.key("runs").begin_array();
    w.begin_object();
    w.key("tool").begin_object();
    w.key("driver").begin_object();
    w.kv("name", "ef-audit");
    w.kv("informationUri",
         "https://github.com/elasticflow/elasticflow");
    w.key("rules").begin_array();
    for (const std::string &rule : rule_names()) {
        w.begin_object();
        w.kv("id", rule);
        w.end_object();
    }
    w.end_array();
    w.end_object();  // driver
    w.end_object();  // tool
    w.key("results").begin_array();
    for (const Finding &finding : findings) {
        w.begin_object();
        w.kv("ruleId", finding.rule);
        w.kv("level", "error");
        w.key("message").begin_object();
        w.kv("text", finding.message);
        w.end_object();
        w.key("locations").begin_array();
        w.begin_object();
        w.key("physicalLocation").begin_object();
        w.key("artifactLocation").begin_object();
        w.kv("uri", finding.file);
        w.end_object();
        w.key("region").begin_object();
        w.kv("startLine", finding.line);
        w.end_object();
        w.end_object();  // physicalLocation
        w.end_object();  // location
        w.end_array();   // locations
        w.end_object();  // result
    }
    w.end_array();   // results
    w.end_object();  // run
    w.end_array();   // runs
    w.end_object();
    return w.str();
}

}  // namespace audit
}  // namespace ef
