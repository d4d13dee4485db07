"""The character-by-character tokenizer, kept as a test oracle.

This is the loop `solsem.lexer.tokenize` replaced with one master regex.
test_frontend.py checks that both give the same tokens, and the same errors
at the same positions, on every fixture source and on the error cases.
"""

from solsem.errors import SolSyntaxError, Span
from solsem.lexer import KEYWORDS, PUNCT, Token


def tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)

    def bump(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            bump(ch)
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j < 0 else j
            bump(source[i:j])
            i = j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise SolSyntaxError("unterminated block comment", Span(line, col))
            bump(source[i:j + 2])
            i = j + 2
            continue
        span = Span(line, col)
        if ch.isdigit():
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
                    j += 1
                tokens.append(Token("hexnumber", source[i:j], span))
            else:
                while j < n and source[j].isdigit():
                    j += 1
                tokens.append(Token("number", source[i:j], span))
            bump(source[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, span))
            bump(word)
            i = j
            continue
        if ch in ('"', "'"):
            quote = ch
            j = i + 1
            buf = []
            while j < n and source[j] != quote:
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "'": "'",
                                "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise SolSyntaxError("unterminated string literal", span)
            tokens.append(Token("string", "".join(buf), span))
            bump(source[i:j + 1])
            i = j + 1
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, span))
                bump(p)
                i += len(p)
                break
        else:
            raise SolSyntaxError(f"unexpected character {ch!r}", span)
    tokens.append(Token("eof", "", Span(line, col)))
    return tokens
