"""Differential oracle: ``repro.xml.parse`` against stdlib expat.

:mod:`xml.dom.minidom` parses with expat, a C parser that shares no code
with the in-repo engines, so the two cannot share a bug.  Both must
build the same element, attribute and text tree for

* every Hypothesis ``documents()`` tree, written out by a noisy writer
  that mixes in CRLF and lone CR line ends, raw tabs and line breaks in
  attribute values, decimal and hex character references, CDATA
  sections, non-ASCII and astral characters, both quote styles and
  white space around ``=``;
* the large benchmark model and every version of an edit chain over it.

Each malformed input of the pinned error table in
``test_parser_errors.py`` is rejected by expat as well.
"""

from __future__ import annotations

import random
import xml.dom.minidom as minidom
from xml.parsers.expat import ExpatError

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mdm import model_to_xml, synthetic_model
from repro.testkit.generators import apply_model_edit, random_model_edit_script
from repro.testkit.strategies import documents
from repro.xml import parse
from repro.xml.serializer import serialize

from .test_parser_errors import MALFORMED

#: The large model every perfbench workload serves.
LARGE = dict(facts=20, dimensions=25, levels_per_dimension=5,
             measures_per_fact=8)

_EXTRA_TEXT = ("é", "中", "\U0001D11E", " ", "]", ">", "'", '"')
_LINE_ENDS = ("\r\n", "\r", "\n")
_SPACES = (" ", "  ", "\n", "\t", "\r\n")


# -- normalized trees --------------------------------------------------------

def _repro_tree(node) -> tuple:
    if node.kind in ("root", "document"):
        return ("doc", _repro_children(node))
    if node.kind == "element":
        attrs = sorted((a.name, a.value) for a in node.attributes)
        return ("el", node.name, tuple(attrs), _repro_children(node))
    if node.kind == "comment":
        return ("comment", node.data)
    return ("pi", node.target, node.data)


def _repro_children(node) -> tuple:
    out: list = []
    for child in node.children:
        if child.kind == "text":
            _add_text(out, child.data)
        else:
            out.append(_repro_tree(child))
    return tuple(out)


def _dom_tree(node) -> tuple:
    if node.nodeType == node.DOCUMENT_NODE:
        return ("doc", _dom_children(node))
    if node.nodeType == node.ELEMENT_NODE:
        attrs = sorted(node.attributes.items())
        return ("el", node.tagName, tuple(attrs), _dom_children(node))
    if node.nodeType == node.COMMENT_NODE:
        return ("comment", node.data)
    return ("pi", node.target, node.data)


def _dom_children(node) -> tuple:
    out: list = []
    for child in node.childNodes:
        if child.nodeType in (child.TEXT_NODE, child.CDATA_SECTION_NODE):
            _add_text(out, child.data)
        elif child.nodeType != child.DOCUMENT_TYPE_NODE:
            out.append(_dom_tree(child))
    return tuple(out)


def _add_text(out: list, data: str) -> None:
    # Adjacent character data and CDATA sections are one text run.
    if out and out[-1][0] == "text":
        out[-1] = ("text", out[-1][1] + data)
    else:
        out.append(("text", data))


def assert_same_tree(text: str) -> None:
    ours = _repro_tree(parse(text))
    theirs = _dom_tree(minidom.parseString(text.encode("utf-8")))
    assert ours == theirs


# -- the noisy writer ---------------------------------------------------------

def _char(rng: random.Random, ch: str, quote: str | None) -> str:
    roll = rng.random()
    if roll < 0.1:
        return f"&#{ord(ch)};"
    if roll < 0.2:
        return f"&#x{ord(ch):x};"
    if ch == "&":
        return "&amp;"
    if ch == "<":
        return "&lt;"
    if ch == ">" and rng.random() < 0.5:
        return "&gt;"
    if ch == quote:
        return "&quot;" if ch == '"' else "&apos;"
    return ch


def _noisy_text(rng: random.Random, data: str) -> str:
    pieces = []
    for ch in data:
        if rng.random() < 0.1:
            pieces.append(rng.choice(_LINE_ENDS + _EXTRA_TEXT))
        pieces.append(_char(rng, ch, None))
    body = "".join(pieces)
    # "]]>" may not appear literally in content.
    body = body.replace("]]>", "]]&gt;")
    if "]]>" not in data and "\r" not in data and rng.random() < 0.2:
        return f"<![CDATA[{data}]]>"
    return body


def _noisy_value(rng: random.Random, value: str, quote: str) -> str:
    pieces = []
    for ch in value:
        roll = rng.random()
        if roll < 0.08:
            # Raw white space: attribute-value normalization maps it to
            # one space per character (CRLF counts as one).
            pieces.append(rng.choice(("\t", "\n", "\r\n", "\r")))
        elif roll < 0.12:
            # Referenced white space survives normalization.
            pieces.append(rng.choice(("&#9;", "&#10;", "&#13;", "&#xD;")))
        elif roll < 0.16:
            pieces.append(rng.choice(_EXTRA_TEXT[:4]))
        pieces.append(_char(rng, ch, quote))
    return "".join(pieces)


def _write(rng: random.Random, node, out: list) -> None:
    kind = node.kind
    if kind == "element":
        out.append(f"<{node.name}")
        for attr in node.attributes:
            quote = rng.choice("'\"")
            # Expat rejects white space in a namespace name, so
            # declarations are written as they are.
            value = attr.value if attr.is_namespace_decl \
                else _noisy_value(rng, attr.value, quote)
            out.append(rng.choice(_SPACES) + attr.name
                       + rng.choice(("", " ", "\n")) + "="
                       + rng.choice(("", " ", "\t")) + quote + value
                       + quote)
        if rng.random() < 0.3:
            out.append(rng.choice(_SPACES))
        if not node.children and rng.random() < 0.5:
            out.append("/>")
            return
        out.append(">")
        for child in node.children:
            _write(rng, child, out)
        out.append(f"</{node.name}" + rng.choice(("", " ", "\n")) + ">")
    elif kind == "text":
        out.append(_noisy_text(rng, node.data))
    elif kind == "comment":
        out.append(f"<!--{node.data}-->")
    else:
        data = f" {node.data}" if node.data else ""
        out.append(f"<?{node.target}{data}?>")


def noisy_xml(rng: random.Random, document) -> str:
    """*document* written out with random but meaning-preserving noise.

    The tree is reparsed from the canonical serialization first, so
    namespace declarations arrive as ordinary ``xmlns`` attributes.
    """
    canonical = parse(serialize(document))
    out = ['<?xml version="1.0" encoding="UTF-8"?>'] \
        if rng.random() < 0.5 else []
    wrap = rng.random() < 0.3
    for node in canonical.children:
        if wrap and node.kind == "element":
            out.append('<p:wrap xmlns:p="urn:p" p:k="v">')
            _write(rng, node, out)
            out.append("</p:wrap>")
        else:
            _write(rng, node, out)
        out.append(rng.choice(_SPACES))
    return "".join(out)


# -- the oracle --------------------------------------------------------------

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.randoms(use_true_random=False))
def test_generated_documents_match_expat(document, rng):
    assert_same_tree(noisy_xml(rng, document))


def test_line_end_and_value_normalization_match_expat():
    assert_same_tree('<a b="x\r\ny\tz\rw&#13;&#10;&#9;">1\r\n2\r3'
                     '<![CDATA[\r\n]]>&#13;&#x1D11E;<!--\r\r\n-->'
                     '<?pi x\ry?></a>')


def test_cdata_keeps_its_place_among_text():
    assert_same_tree("<a>ab<![CDATA[<x>]]>cd</a>")
    children = parse("<a>ab<![CDATA[<x>]]>cd</a>").root_element.children
    assert [(c.data, c.is_cdata) for c in children] == [
        ("ab", False), ("<x>", True), ("cd", False)]


def test_large_model_matches_expat():
    assert_same_tree(model_to_xml(synthetic_model(**LARGE)))


@pytest.mark.parametrize("seed", [0, 1])
def test_edit_chain_versions_match_expat(seed):
    model = synthetic_model(**LARGE)
    for op in random_model_edit_script(random.Random(seed), 6):
        model, _what = apply_model_edit(model, op)
        assert_same_tree(model_to_xml(model))


@pytest.mark.parametrize("text", [case[0] for case in MALFORMED])
def test_expat_rejects_every_pinned_malformed_input(text):
    with pytest.raises(ExpatError):
        minidom.parseString(text.encode("utf-8"))
