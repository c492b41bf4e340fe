/**
 * @file
 * The C++ lexer behind ef-lint.
 *
 * Produces preprocessed-enough C++: comments are stripped (line-comment
 * bodies captured separately so the allow() annotation grammar can be
 * parsed out of them), string and character literals are collapsed to
 * opaque tokens so rule patterns never match inside them (the literal's
 * text is still carried for the layering rule's include paths), and
 * numbers know whether they are floating-point.
 */
#ifndef EF_TOOLS_EF_LINT_LEXER_H_
#define EF_TOOLS_EF_LINT_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace ef {
namespace lint {

struct Token
{
    enum Kind { kIdent, kNumber, kPunct, kString, kChar };
    Kind kind = kPunct;
    std::string text;
    int line = 0;
    bool is_float = false;
};

/** One `//` line comment: the body after the slashes, untrimmed. */
struct Comment
{
    int line = 0;
    std::string text;
};

struct Lexed
{
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

/** Lex one file's contents. Never fails: unknown bytes become punct. */
Lexed lex(std::string_view text);

bool ident_start(char c);
bool ident_char(char c);

/** Strip leading and trailing whitespace. */
std::string trim(std::string_view s);

}  // namespace lint
}  // namespace ef

#endif  // EF_TOOLS_EF_LINT_LEXER_H_
