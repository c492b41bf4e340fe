/**
 * @file
 * ef-audit pass 1: the per-file symbol index.
 *
 * Built once per source file (in parallel, one index per slot) from
 * the shared ef-lint lexer's token stream. Everything pass 2 needs is
 * precomputed here: parsed ef-audit annotations, quoted includes,
 * parallel_for lambda sites, and the token stream they point into.
 */
#ifndef EF_TOOLS_EF_AUDIT_INDEX_H_
#define EF_TOOLS_EF_AUDIT_INDEX_H_

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace ef {
namespace audit {

/** One parsed `// ef-audit: allow(...)` annotation (or a malformed
 *  try). */
struct AuditAnnotation
{
    int line = 0;
    /** Suppressed rule. */
    std::string rule;
    std::string reason;
    bool malformed = false;
    std::string error;
};

/** One quoted `#include "path"` directive. */
struct IncludeDirective
{
    int line = 0;
    std::string path;  // as written, e.g. "cluster/topology.h"
};

/** One lambda literal passed to a parallel_for call. */
struct LambdaSite
{
    int line = 0;  // line of the parallel_for identifier
    bool capture_default_ref = false;
    bool capture_default_value = false;
    bool captures_this = false;
    std::set<std::string> by_ref;    // explicit &name captures
    std::set<std::string> by_value;  // explicit name / name=init
    std::set<std::string> params;
    /** Token range [body_begin, body_end) of the lambda body. */
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
};

struct FileIndex
{
    std::string path;
    lint::Lexed lexed;
    std::vector<AuditAnnotation> annotations;
    std::vector<IncludeDirective> includes;
    std::vector<LambdaSite> lambda_sites;
};

/** Build the index for one file. Never fails. */
FileIndex index_file(std::string path, std::string_view text);

}  // namespace audit
}  // namespace ef

#endif  // EF_TOOLS_EF_AUDIT_INDEX_H_
