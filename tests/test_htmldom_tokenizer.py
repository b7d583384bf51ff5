"""Tests for the HTML tokenizer, including span bookkeeping."""

from hypothesis import given
from hypothesis import strategies as st

from repro.htmldom.tokenizer import Token, TokenKind, tokenize


def kinds(tokens: list[Token]) -> list[TokenKind]:
    return [t.kind for t in tokens]


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokenize("<b>hi</b>")
        assert kinds(tokens) == [
            TokenKind.START_TAG,
            TokenKind.TEXT,
            TokenKind.END_TAG,
        ]
        assert tokens[0].name == "b"
        assert tokens[1].data == "hi"
        assert tokens[2].name == "b"

    def test_tag_names_are_lowercased(self):
        tokens = tokenize("<DIV></DIV>")
        assert tokens[0].name == "div"
        assert tokens[1].name == "div"

    def test_text_spans_are_exact(self):
        source = "<td>PORTER FURNITURE</td>"
        tokens = tokenize(source)
        text = tokens[1]
        assert source[text.start : text.end] == "PORTER FURNITURE"

    def test_all_spans_tile_the_input(self):
        source = '<div class="a">x<br>y</div><!--c--><p>z</p>'
        tokens = tokenize(source)
        position = 0
        for token in tokens:
            assert token.start == position
            position = token.end
        assert position == len(source)

    def test_text_entities_decoded(self):
        tokens = tokenize("<p>Smith &amp; Sons</p>")
        assert tokens[1].data == "Smith & Sons"

    def test_out_of_range_numeric_reference_is_replacement_char(self):
        tokens = tokenize("<p>x&#x110000;y</p>")
        assert tokens[1].data == "x�y"

    def test_surrogate_numeric_reference_is_replacement_char(self):
        tokens = tokenize("<p>x&#xD800;y&#xDFFF;z</p>")
        assert tokens[1].data == "x�y�z"
        tokens[1].data.encode("utf-8")  # no lone surrogates survive

    def test_null_numeric_reference_is_replacement_char(self):
        tokens = tokenize("<p>a&#0;b</p>")
        assert tokens[1].data == "a�b"

    def test_huge_decimal_reference_is_replacement_char(self):
        tokens = tokenize("<p>a&#99999999;b</p>")
        assert tokens[1].data == "a�b"

    def test_attribute_value_bad_reference_is_replacement_char(self):
        tokens = tokenize('<a title="x&#xDABC;y">')
        assert tokens[0].attrs == {"title": "x�y"}

    def test_comment(self):
        tokens = tokenize("<!-- hello -->")
        assert kinds(tokens) == [TokenKind.COMMENT]
        assert tokens[0].data == " hello "

    def test_unterminated_comment_runs_to_eof(self):
        tokens = tokenize("<!-- oops")
        assert kinds(tokens) == [TokenKind.COMMENT]
        assert tokens[0].end == len("<!-- oops")

    def test_doctype(self):
        tokens = tokenize("<!DOCTYPE html><p>x</p>")
        assert tokens[0].kind is TokenKind.DOCTYPE

    def test_self_closing_tag(self):
        tokens = tokenize("<br/>")
        assert tokens[0].kind is TokenKind.START_TAG
        assert tokens[0].self_closing


class TestAttributes:
    def test_double_quoted(self):
        tokens = tokenize('<div class="dealer links">')
        assert tokens[0].attrs == {"class": "dealer links"}

    def test_single_quoted(self):
        tokens = tokenize("<div class='dealerlinks'>")
        assert tokens[0].attrs == {"class": "dealerlinks"}

    def test_unquoted(self):
        tokens = tokenize("<td colspan=2>")
        assert tokens[0].attrs == {"colspan": "2"}

    def test_bare_attribute(self):
        tokens = tokenize("<input disabled>")
        assert tokens[0].attrs == {"disabled": ""}

    def test_multiple_attributes(self):
        tokens = tokenize('<a href="#" class="x" id="y">')
        assert tokens[0].attrs == {"href": "#", "class": "x", "id": "y"}

    def test_attribute_names_lowercased(self):
        tokens = tokenize('<div CLASS="x">')
        assert tokens[0].attrs == {"class": "x"}

    def test_first_attribute_occurrence_wins(self):
        tokens = tokenize('<div class="a" class="b">')
        assert tokens[0].attrs == {"class": "a"}

    def test_attribute_value_entities_decoded(self):
        tokens = tokenize('<a title="a&amp;b">')
        assert tokens[0].attrs == {"title": "a&b"}

    def test_whitespace_around_equals(self):
        tokens = tokenize('<div class = "x">')
        assert tokens[0].attrs == {"class": "x"}


class TestLenientParsing:
    def test_bare_less_than_is_text(self):
        tokens = tokenize("1 < 2")
        assert kinds(tokens) == [TokenKind.TEXT]
        assert tokens[0].data == "1 < 2"

    def test_less_than_digit_is_text(self):
        tokens = tokenize("<5 items>")
        assert tokens[0].kind is TokenKind.TEXT

    def test_stray_end_tag_is_tokenized(self):
        tokens = tokenize("</none>")
        assert kinds(tokens) == [TokenKind.END_TAG]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_unclosed_tag_at_eof(self):
        tokens = tokenize("<div class='x'")
        assert tokens[0].kind is TokenKind.START_TAG
        assert tokens[0].attrs == {"class": "x"}

    def test_script_content_is_raw(self):
        tokens = tokenize("<script>if (a < b) { x(); }</script>")
        assert kinds(tokens) == [
            TokenKind.START_TAG,
            TokenKind.TEXT,
            TokenKind.END_TAG,
        ]
        assert tokens[1].data == "if (a < b) { x(); }"

    def test_style_content_is_raw(self):
        tokens = tokenize("<style>a > b {}</style>")
        assert tokens[1].data == "a > b {}"

    def test_unclosed_script_runs_to_eof(self):
        tokens = tokenize("<script>var x = 1;")
        assert tokens[1].data == "var x = 1;"

    def test_raw_text_close_tag_is_case_insensitive(self):
        tokens = tokenize("<SCRIPT>a</ScRiPt><style>b</STYLE>")
        assert [t.data for t in tokens if t.kind is TokenKind.TEXT] == ["a", "b"]
        assert [t.name for t in tokens if t.kind is TokenKind.END_TAG] == [
            "script",
            "style",
        ]

    def test_raw_text_close_tag_after_case_changing_text(self):
        """``"İ".lower()`` is two code points: a close tag searched in a
        lowercased copy of the page lands at the wrong offset."""
        html = "<p>\u0130\u0130\u0130\u0130</p><script>var x=1;</script>"
        tokens = tokenize(html)
        assert tokens[4].data == "var x=1;"
        assert tokens[5].kind is TokenKind.END_TAG
        assert tokens[5].name == "script"
        assert tokens[5].end == len(html)

    def test_raw_text_close_tag_matches_ascii_letters_only(self):
        # U+017F (long s) case-folds to "s" outside ASCII matching.
        tokens = tokenize("<script>a</\u017fcript>b</script>")
        assert tokens[1].data == "a</\u017fcript>b"

    def test_raw_text_scanning_is_linear(self):
        """8x the script blocks must cost ~8x the time, not ~25x."""
        import time

        def best_of_three(blocks: int) -> float:
            html = "<p>x</p>" + "<script>var a = 1;</script>" * blocks
            times = []
            for _ in range(3):
                started = time.perf_counter()
                tokenize(html)
                times.append(time.perf_counter() - started)
            return min(times)

        assert best_of_three(4000) / best_of_three(500) <= 12


class TestTokenizeProperties:
    @given(st.text(max_size=300))
    def test_total_on_arbitrary_input(self, text):
        tokens = tokenize(text)
        for token in tokens:
            assert 0 <= token.start <= token.end <= len(text)

    @given(st.text(max_size=300))
    def test_spans_are_monotonic(self, text):
        tokens = tokenize(text)
        for first, second in zip(tokens, tokens[1:]):
            assert first.end <= second.start

    @given(
        st.lists(
            st.sampled_from(["<b>", "</b>", "text", "<td a='1'>", "&amp;", "<"]),
            max_size=30,
        )
    )
    def test_markup_soup_never_crashes(self, parts):
        tokenize("".join(parts))
