/** @file See index.h. */
#include "index.h"

#include <cctype>
#include <utility>

namespace ef {
namespace audit {
namespace {

using lint::Token;

bool
is_punct(const Token &tok, std::string_view text)
{
    return tok.kind == Token::kPunct && tok.text == text;
}

bool
is_ident(const Token &tok, std::string_view text)
{
    return tok.kind == Token::kIdent && tok.text == text;
}

/**
 * Index after the brace/bracket/paren block opening at @p i (which
 * must hold the opening token). Only the opener's own kind nests.
 */
std::size_t
skip_balanced(const std::vector<Token> &tokens, std::size_t i,
              std::string_view open, std::string_view close)
{
    int depth = 0;
    for (; i < tokens.size(); ++i) {
        if (is_punct(tokens[i], open)) {
            ++depth;
        } else if (is_punct(tokens[i], close)) {
            if (--depth == 0)
                return i + 1;
        }
    }
    return tokens.size();
}

/**
 * Split [begin, end) into top-level comma-separated ranges. Depth
 * tracking covers (), [], {} exactly and template angle brackets
 * heuristically (a '<' after an identifier or '>' opens a level).
 */
std::vector<std::pair<std::size_t, std::size_t>>
split_top_level(const std::vector<Token> &tokens, std::size_t begin,
                std::size_t end)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int depth = 0;
    int angle = 0;
    std::size_t start = begin;
    for (std::size_t i = begin; i < end; ++i) {
        const Token &tok = tokens[i];
        if (tok.kind != Token::kPunct)
            continue;
        if (tok.text == "(" || tok.text == "[" || tok.text == "{") {
            ++depth;
        } else if (tok.text == ")" || tok.text == "]" ||
                   tok.text == "}") {
            if (depth > 0)
                --depth;
        } else if (tok.text == "<") {
            if (i > begin && (tokens[i - 1].kind == Token::kIdent ||
                              is_punct(tokens[i - 1], ">"))) {
                ++angle;
            }
        } else if (tok.text == ">") {
            if (angle > 0)
                --angle;
        } else if (tok.text == ">>") {
            angle = angle >= 2 ? angle - 2 : 0;
        } else if (tok.text == "," && depth == 0 && angle == 0) {
            out.push_back({start, i});
            start = i + 1;
        }
    }
    out.push_back({start, end});
    return out;
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

void
parse_annotation(std::string_view comment, int line,
                 std::vector<AuditAnnotation> &out)
{
    const std::string_view kTag = "ef-audit:";
    std::size_t pos = comment.find(kTag);
    if (pos == std::string_view::npos)
        return;
    AuditAnnotation a;
    a.line = line;
    std::size_t i = pos + kTag.size();
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i]))) {
        ++i;
    }
    std::size_t open = comment.find('(', i);
    if (open == std::string_view::npos) {
        a.malformed = true;
        a.error = "expected 'ef-audit: allow(<rule>: <reason>)'";
        out.push_back(std::move(a));
        return;
    }
    const std::string keyword = lint::trim(comment.substr(i, open - i));
    if (keyword != "allow") {
        a.malformed = true;
        a.error = "unknown ef-audit annotation '" + keyword +
                  "' (expected allow)";
        out.push_back(std::move(a));
        return;
    }
    std::size_t close = comment.find(')', open);
    std::string_view content = comment.substr(
        open + 1, (close == std::string_view::npos ? comment.size()
                                                   : close) -
                      open - 1);
    std::size_t colon = content.find(':');
    if (colon == std::string_view::npos) {
        a.malformed = true;
        a.error = "allow() needs a reason: allow(<rule>: <reason>)";
        out.push_back(std::move(a));
        return;
    }
    a.rule = lint::trim(content.substr(0, colon));
    a.reason = lint::trim(content.substr(colon + 1));
    if (a.rule.empty() || a.reason.empty()) {
        a.malformed = true;
        a.error = "allow() needs a rule name and a non-empty reason";
    }
    out.push_back(std::move(a));
}

// ---------------------------------------------------------------------------
// Lambda sites
// ---------------------------------------------------------------------------

void
parse_lambda(const std::vector<Token> &tokens, std::size_t open_bracket,
             int call_line, std::vector<LambdaSite> &out)
{
    LambdaSite site;
    site.line = call_line;
    const std::size_t cap_end =
        skip_balanced(tokens, open_bracket, "[", "]");  // one past ']'
    if (cap_end >= tokens.size())
        return;
    for (auto [b, e] :
         split_top_level(tokens, open_bracket + 1, cap_end - 1)) {
        if (b >= e)
            continue;
        const Token &first = tokens[b];
        if (e - b == 1 && is_punct(first, "&")) {
            site.capture_default_ref = true;
        } else if (e - b == 1 && is_punct(first, "=")) {
            site.capture_default_value = true;
        } else if (is_ident(first, "this") ||
                   (is_punct(first, "*") && b + 1 < e &&
                    is_ident(tokens[b + 1], "this"))) {
            site.captures_this = true;
        } else if (is_punct(first, "&")) {
            for (std::size_t k = b + 1; k < e; ++k) {
                if (tokens[k].kind == Token::kIdent) {
                    site.by_ref.insert(tokens[k].text);
                    break;
                }
            }
        } else {
            for (std::size_t k = b; k < e; ++k) {
                if (tokens[k].kind == Token::kIdent) {
                    site.by_value.insert(tokens[k].text);
                    break;
                }
            }
        }
    }
    std::size_t j = cap_end;
    if (j < tokens.size() && is_punct(tokens[j], "(")) {
        const std::size_t params_end =
            skip_balanced(tokens, j, "(", ")");
        for (auto [b, e] :
             split_top_level(tokens, j + 1, params_end - 1)) {
            for (std::size_t k = e; k-- > b;) {
                if (tokens[k].kind == Token::kIdent) {
                    site.params.insert(tokens[k].text);
                    break;
                }
            }
        }
        j = params_end;
    }
    // Specifiers (mutable, noexcept, trailing return) up to the body.
    while (j < tokens.size() && !is_punct(tokens[j], "{"))
        ++j;
    if (j >= tokens.size())
        return;
    site.body_begin = j + 1;
    site.body_end = skip_balanced(tokens, j, "{", "}") - 1;
    out.push_back(std::move(site));
}

}  // namespace

FileIndex
index_file(std::string path, std::string_view text)
{
    FileIndex index;
    index.path = std::move(path);
    index.lexed = lint::lex(text);
    for (const lint::Comment &comment : index.lexed.comments)
        parse_annotation(comment.text, comment.line, index.annotations);

    const std::vector<Token> &tokens = index.lexed.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &tok = tokens[i];
        if (is_punct(tok, "#") && i + 2 < tokens.size() &&
            is_ident(tokens[i + 1], "include") &&
            tokens[i + 2].kind == Token::kString) {
            index.includes.push_back(
                {tokens[i + 2].line, tokens[i + 2].text});
            i += 2;
            continue;
        }
        if (is_ident(tok, "parallel_for") && i + 1 < tokens.size() &&
            is_punct(tokens[i + 1], "(")) {
            const std::size_t args_end =
                skip_balanced(tokens, i + 1, "(", ")");
            for (std::size_t j = i + 2; j < args_end; ++j) {
                // A '[' directly after '(' or ',' introduces a lambda;
                // after anything else it is a subscript.
                if (is_punct(tokens[j], "[") &&
                    (is_punct(tokens[j - 1], "(") ||
                     is_punct(tokens[j - 1], ","))) {
                    parse_lambda(tokens, j, tok.line,
                                 index.lambda_sites);
                    j = skip_balanced(tokens, j, "[", "]") - 1;
                }
            }
        }
    }
    return index;
}

}  // namespace audit
}  // namespace ef
