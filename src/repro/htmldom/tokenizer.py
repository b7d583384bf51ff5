"""A lenient HTML tokenizer that preserves source character offsets.

The tokenizer turns a raw HTML string into a flat sequence of
:class:`Token` objects: start tags (with parsed attributes), end tags,
text runs, comments, and doctype declarations.  Every token records the
half-open ``[start, end)`` span it occupies in the source string; for text
tokens this span is what aligns the DOM view of a page with the character
view consumed by the LR wrapper family.

The grammar is intentionally forgiving — broken markup produces text
tokens rather than errors — because wrapper induction must cope with the
real, imperfect HTML emitted by site scripts.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.htmldom.entities import decode_entities

_TAG_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_:")
_WHITESPACE = frozenset(" \t\r\n\f")

# Content of these elements is raw text up to the matching close tag.
RAWTEXT_ELEMENTS = frozenset({"script", "style"})

# Close-tag openers of the raw-text elements, matched ASCII
# case-insensitively as HTML tag names are ("</SCRIPT" closes a script;
# non-ASCII look-alikes do not).
_RAWTEXT_CLOSE = {
    tag: re.compile(re.escape("</" + tag), re.IGNORECASE | re.ASCII)
    for tag in RAWTEXT_ELEMENTS
}


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    START_TAG = "start_tag"
    END_TAG = "end_tag"
    TEXT = "text"
    COMMENT = "comment"
    DOCTYPE = "doctype"


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical unit of an HTML document.

    Attributes:
        kind: lexical category.
        start: offset of the first character of the token in the source.
        end: offset one past the last character of the token.
        name: tag name (lowercased) for tags, ``""`` otherwise.
        data: decoded text for TEXT/COMMENT/DOCTYPE tokens.
        attrs: attribute mapping for start tags (values entity-decoded).
        self_closing: whether a start tag ended with ``/>``.
    """

    kind: TokenKind
    start: int
    end: int
    name: str = ""
    data: str = ""
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


def tokenize(html: str) -> list[Token]:
    """Tokenize ``html`` into a list of :class:`Token`.

    The concatenation of the source spans of all returned tokens covers
    the whole input, in order, with no overlaps.
    """
    tokens: list[Token] = []
    i = 0
    n = len(html)
    rawtext_until: str | None = None
    while i < n:
        if rawtext_until is not None:
            i = _consume_rawtext(html, i, rawtext_until, tokens)
            rawtext_until = None
            continue
        if html[i] == "<":
            consumed, token = _consume_markup(html, i)
            if token is not None:
                tokens.append(token)
                if (
                    token.kind is TokenKind.START_TAG
                    and token.name in RAWTEXT_ELEMENTS
                    and not token.self_closing
                ):
                    rawtext_until = token.name
                i = consumed
                continue
            # "<" that does not begin valid markup: fall through to text.
        i = _consume_text(html, i, tokens)
    return tokens


def _consume_text(html: str, i: int, tokens: list[Token]) -> int:
    """Consume a text run starting at ``i``; append a TEXT token."""
    start = i
    n = len(html)
    # A bare "<" that failed markup parsing is included in the text run.
    i += 1 if html[i] == "<" else 0
    while i < n and html[i] != "<":
        i += 1
    # Greedily also swallow subsequent bare "<" that are not markup.
    while i < n and html[i] == "<" and _consume_markup(html, i)[1] is None:
        i += 1
        while i < n and html[i] != "<":
            i += 1
    raw = html[start:i]
    tokens.append(
        Token(kind=TokenKind.TEXT, start=start, end=i, data=decode_entities(raw))
    )
    return i


def _consume_rawtext(html: str, i: int, tag: str, tokens: list[Token]) -> int:
    """Consume raw text content of ``<script>``/``<style>`` up to its close tag.

    The close tag is searched in the source itself, from ``i`` on, so
    each raw-text block costs time linear in its own length.
    """
    match = _RAWTEXT_CLOSE[tag].search(html, i)
    close = len(html) if match is None else match.start()
    if close > i:
        tokens.append(
            Token(kind=TokenKind.TEXT, start=i, end=close, data=html[i:close])
        )
    return close


def _consume_markup(html: str, i: int) -> tuple[int, Token | None]:
    """Try to parse markup starting at ``html[i] == '<'``.

    Returns ``(next_index, token)``; ``token`` is ``None`` when the input
    at ``i`` is not valid markup (the caller treats it as text).
    """
    n = len(html)
    if i + 1 >= n:
        return i + 1, None
    ch = html[i + 1]
    if ch == "!":
        return _consume_declaration(html, i)
    if ch == "/":
        return _consume_end_tag(html, i)
    if ch in _TAG_NAME_CHARS and not ch.isdigit():
        return _consume_start_tag(html, i)
    return i + 1, None


def _consume_declaration(html: str, i: int) -> tuple[int, Token | None]:
    """Parse ``<!-- ... -->`` comments and ``<!DOCTYPE ...>`` declarations."""
    n = len(html)
    if html.startswith("<!--", i):
        close = html.find("-->", i + 4)
        end = n if close == -1 else close + 3
        data = html[i + 4 : close if close != -1 else n]
        return end, Token(kind=TokenKind.COMMENT, start=i, end=end, data=data)
    close = html.find(">", i)
    end = n if close == -1 else close + 1
    data = html[i + 2 : close if close != -1 else n]
    return end, Token(kind=TokenKind.DOCTYPE, start=i, end=end, data=data)


def _consume_end_tag(html: str, i: int) -> tuple[int, Token | None]:
    """Parse ``</name ...>`` starting at ``i``."""
    n = len(html)
    j = i + 2
    name_start = j
    while j < n and html[j] in _TAG_NAME_CHARS:
        j += 1
    name = html[name_start:j].lower()
    if not name:
        return i + 1, None
    close = html.find(">", j)
    end = n if close == -1 else close + 1
    return end, Token(kind=TokenKind.END_TAG, start=i, end=end, name=name)


def _consume_start_tag(html: str, i: int) -> tuple[int, Token | None]:
    """Parse ``<name attr=value ...>`` starting at ``i``."""
    n = len(html)
    j = i + 1
    name_start = j
    while j < n and html[j] in _TAG_NAME_CHARS:
        j += 1
    name = html[name_start:j].lower()
    attrs: dict[str, str] = {}
    self_closing = False
    while j < n:
        while j < n and html[j] in _WHITESPACE:
            j += 1
        if j >= n:
            break
        if html[j] == ">":
            j += 1
            break
        if html[j] == "/" and j + 1 < n and html[j + 1] == ">":
            self_closing = True
            j += 2
            break
        j = _consume_attribute(html, j, attrs)
    return j, Token(
        kind=TokenKind.START_TAG,
        start=i,
        end=j,
        name=name,
        attrs=attrs,
        self_closing=self_closing,
    )


def _consume_attribute(html: str, j: int, attrs: dict[str, str]) -> int:
    """Parse a single ``name[=value]`` attribute; store it into ``attrs``."""
    n = len(html)
    name_start = j
    while j < n and html[j] not in _WHITESPACE and html[j] not in "=/>":
        j += 1
    name = html[name_start:j].lower()
    if j >= n or not name:
        return j + 1 if j < n and html[j] in "=/" else j
    while j < n and html[j] in _WHITESPACE:
        j += 1
    if j < n and html[j] == "=":
        j += 1
        while j < n and html[j] in _WHITESPACE:
            j += 1
        if j < n and html[j] in "\"'":
            quote = html[j]
            j += 1
            value_start = j
            while j < n and html[j] != quote:
                j += 1
            value = html[value_start:j]
            j = min(j + 1, n)
        else:
            value_start = j
            while j < n and html[j] not in _WHITESPACE and html[j] != ">":
                j += 1
            value = html[value_start:j]
        attrs.setdefault(name, decode_entities(value))
    else:
        attrs.setdefault(name, "")
    return j
