"""The reference tokenizer that ``chorprism.parser.tokenize`` is compared
against: one ``finditer`` match per token over the whole text, each match
taking the blanks, newlines and comments before its token, and the line
and column worked out from the match's start positions."""

from __future__ import annotations

import re

from chorprism.errors import ParseError
from chorprism.parser import Token

KEYWORDS = {
    "ctmc", "dtmc", "const", "role", "var", "init", "def", "main",
    "if", "then", "else", "end", "allsynch", "foreach", "rate",
    "and", "or", "not", "true", "false", "bool",
}

# multi-character punctuation first, ``bad`` is any other character
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|//[^\n]*)*
    (?:
        (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<punct>->|\.\.|!=|<=|>=|[;,:|{}\[\]()@'=<>+\-*/])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, bol = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lead, pos = m.start(), m.start(kind)
        if pos != lead and (nl := text.count("\n", lead, pos)):
            line, bol = line + nl, text.rindex("\n", lead, pos) + 1
        raw, col = m[kind], pos - bol + 1
        if kind == "punct":
            toks.append(Token(raw, raw, line, col))
        elif kind == "name":
            toks.append(Token(raw if raw in KEYWORDS else kind, raw, line, col))
        elif kind == "number":
            toks.append(Token(kind, int(raw) if raw.isdecimal() else float(raw), line, col))
        elif kind == "eof":  # after trailing blanks it would match once more
            toks.append(Token(kind, None, line, col))
            break
        else:
            raise ParseError(f"unexpected character {raw!r}", line, col)
    return toks
