"""Pinned well-formedness errors: exact message, line and column.

Each row is a malformed input and the error the parser reports for it.
The parser consumes text, names, white space and attribute values in
bulk runs and hands the character that stops a run to per-character
code; these rows pin that the error a user sees, and where it points,
does not depend on how the scanning is done.
"""

from __future__ import annotations

import pytest

from repro.xml import XMLNamespaceError, XMLSyntaxError, parse

#: (input, error class, message, line, column)
MALFORMED = [
    # an illegal character in content, and in an attribute
    ("<a>\n  x\x01y</a>", XMLSyntaxError,
     "illegal character U+0001 in content", 2, 4),
    ("<a>\n￾</a>", XMLSyntaxError,
     "illegal character U+FFFE in content", 2, 1),
    ("<a b='\t'>\r\n\x0b</a>", XMLSyntaxError,
     "illegal character U+000B in content", 2, 1),
    ('<a>\n<b c="ok" d="x\x01"/></a>', XMLSyntaxError,
     "illegal character U+0001 in attribute", 2, 15),
    # '<' in an attribute value, also after a reference
    ('<a b="x<y"/>', XMLSyntaxError,
     "'<' is not allowed in attribute values", 1, 8),
    ('<a>\n  <b c="1 &lt; 2 < 3"/></a>', XMLSyntaxError,
     "'<' is not allowed in attribute values", 2, 18),
    # ']]>' in content
    ("<a>\n x]]>y</a>", XMLSyntaxError,
     "']]>' is not allowed in content", 2, 3),
    ("<a>]]></a>", XMLSyntaxError,
     "']]>' is not allowed in content", 1, 4),
    # unterminated values, comments, sections and references
    ('<a b="xyz', XMLSyntaxError, "unterminated attribute value", 1, 10),
    ("<a b='xyz\n", XMLSyntaxError, "unterminated attribute value", 2, 1),
    ("<a>\n<!-- abc </a>", XMLSyntaxError, "unterminated comment", 2, 5),
    ("<a><![CDATA[x</a>", XMLSyntaxError,
     "unterminated CDATA section", 1, 13),
    ("<a>&amp</a>", XMLSyntaxError, "unterminated entity reference", 1, 5),
    ("<a>text", XMLSyntaxError, "unexpected end of input inside <a>", 1, 8),
    # a duplicate attribute, reported at the second occurrence
    ('<a b="1"\n   b="2"/>', XMLSyntaxError, "duplicate attribute 'b'", 2, 4),
    ('<a b="1" b="x<y"/>', XMLSyntaxError, "duplicate attribute 'b'", 1, 10),
    # undeclared prefixes
    ("<a>\n <p:b/></a>", XMLNamespaceError,
     "undeclared namespace prefix 'p' on element <p:b>", 2, 2),
    ('<a>\n <b p:c="1"/></a>', XMLNamespaceError,
     "undeclared namespace prefix 'p' on attribute 'p:c'", 2, 5),
    # non-ASCII names: not a name start, and a name cut short
    ("<×/>", XMLSyntaxError, "expected element name", 1, 2),
    ('<a>\n<b ×="1"/></a>', XMLSyntaxError,
     "expected attribute name", 2, 4),
    ("<élève></eleve>", XMLSyntaxError,
     "end tag </eleve> does not match start tag <élève>", 1, 8),
    ('<a>\n<é· x="1"></é¸></a>', XMLSyntaxError,
     "end tag </é> does not match start tag <é·>", 2, 11),
    # start-tag syntax
    ('<a b="1"c="2"/>', XMLSyntaxError,
     "white space required before attribute", 1, 9),
    ('<a b"1"/>', XMLSyntaxError,
     "expected \"'=' after attribute name\", found '\"'", 1, 5),
    ("<a b=1/>", XMLSyntaxError, "attribute value must be quoted", 1, 6),
    ('<a b="1"\n  c =\t', XMLSyntaxError,
     "attribute value must be quoted", 2, 7),
    ("<a b='x\r\ny' c=1/>", XMLSyntaxError,
     "attribute value must be quoted", 2, 6),
    ('<a b="&amp;"c="1"/>', XMLSyntaxError,
     "white space required before attribute", 1, 13),
    ('<a b="1"/ >', XMLSyntaxError,
     "white space required before attribute", 1, 9),
    ('<a b="1"', XMLSyntaxError,
     "white space required before attribute", 1, 9),
    ('<a b="1" / >', XMLSyntaxError, "expected attribute name", 1, 10),
    ('<a b="1" ', XMLSyntaxError, "expected attribute name", 1, 10),
    ('<a b="1" b>', XMLSyntaxError, "duplicate attribute 'b'", 1, 10),
    ('<a\n b="x\ty"\r\n b/>', XMLSyntaxError,
     "duplicate attribute 'b'", 3, 2),
    # references, structure and markup
    ("<a>&unknown;</a>", XMLSyntaxError,
     "reference to undefined entity '&unknown;'", 1, 4),
    ("<a>&#0;</a>", XMLSyntaxError,
     "character reference '&#0;' is not a legal XML character", 1, 4),
    ("<a><b></a>", XMLSyntaxError,
     "end tag </a> does not match start tag <b>", 1, 7),
    ("<a/>junk", XMLSyntaxError, "content after document element", 1, 5),
    ("<a><!-- a--b --></a>", XMLSyntaxError,
     "'--' is not allowed inside comments", 1, 17),
    ("<a><!DOCTYPE x></a>", XMLSyntaxError,
     "markup declaration not allowed here", 1, 4),
    ("<a><?xml x?></a>", XMLSyntaxError,
     "processing-instruction target 'xml' is reserved", 1, 4),
    ("<!DOCTYPE a [<!ELEMENT a ANY>", XMLSyntaxError,
     "unterminated internal subset", 1, 30),
    ("<!DOCTYPE a [<!ENTITY e 'x]>", XMLSyntaxError,
     "unterminated literal in internal subset", 1, 26),
    ("", XMLSyntaxError, "expected document element", 1, 1),
]


@pytest.mark.parametrize(
    "text, error, message, line, column", MALFORMED,
    ids=[repr(case[0])[:40] for case in MALFORMED])
def test_error_message_and_position_are_pinned(text, error, message, line,
                                               column):
    with pytest.raises(error) as caught:
        parse(text)
    assert type(caught.value) is error
    assert (caught.value.message, caught.value.line,
            caught.value.column) == (message, line, column)
