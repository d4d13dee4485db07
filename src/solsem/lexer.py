"""Tokenizer for the covered Solidity subset (pre-0.5 dialect).

One master regex is matched at each position in turn; its first matching
alternative names the token's kind. Comments and whitespace are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SolSyntaxError, Span

KEYWORDS = {
    "contract", "struct", "function", "modifier", "mapping", "returns", "return",
    "if", "else", "while", "for", "do", "true", "false", "msg",
    "memory", "storage", "calldata",
    "public", "private", "internal", "external", "payable", "constant",
    "view", "pure",
    # recognized so the parser can reject them with a named diagnostic
    "assembly", "event", "using", "is", "continue", "break", "throw", "new",
    "constructor", "fallback", "enum", "emit", "delete", "import", "pragma",
    "var",
}

PUNCT = [
    # longest first
    "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||", "=>",
    "++", "--", "<<", ">>", "&=", "|=", "^=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "+", "-", "*", "/", "%",
    "<", ">", "!", "&", "|", "^", "~", "?", ":",
]

_TOKEN = re.compile("|".join((
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    r"(?P<hexnumber>0[xX][\da-fA-F]*)",
    r"(?P<number>\d+)",
    r"(?P<word>[^\W\d]\w*)",
    r"""(?P<string>"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*')""",
    r"""(?P<unclosed>/\*|["'])""",  # a comment or string with no end
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")",
    r"(?P<bad>.)",
)), re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character is itself


@dataclass
class Token:
    kind: str  # 'ident', 'keyword', 'number', 'hexnumber', 'string', 'punct', 'eof'
    value: str
    span: Span

    def __repr__(self):
        return f"{self.kind}({self.value!r})@{self.span}"


def _escaped(m) -> str:
    return _ESCAPES.get(m[1], m[1])


def tokenize(source: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: where the current line begins
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind != "space" and kind != "comment":
            span = Span(line, m.start() - line_start + 1)
            value = text
            if kind == "word":
                kind = "keyword" if text in KEYWORDS else "ident"
            elif kind == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_escaped, value)
            elif kind == "unclosed":
                raise SolSyntaxError("unterminated block comment"
                                     if text == "/*" else
                                     "unterminated string literal", span)
            elif kind == "bad":
                raise SolSyntaxError(f"unexpected character {text!r}", span)
            tokens.append(Token(kind, value, span))
        if "\n" in text:
            line += text.count("\n")
            line_start = m.start() + text.rindex("\n") + 1
    tokens.append(Token("eof", "", Span(line, len(source) - line_start + 1)))
    return tokens
