"""A conforming-subset XML 1.0 + Namespaces parser.

Parses a document string into the :mod:`repro.xml.dom` tree.  Supported:

* XML declaration, document type declaration (internal subset captured as
  raw text for the DTD module), comments, processing instructions,
* elements, attributes (with value normalization), namespaces
  (well-formedness checked when ``namespaces=True``),
* character data, CDATA sections, predefined entities and character
  references,
* precise error positions on every well-formedness violation.

Unsupported (rejected, not silently ignored): external entities and custom
general entities — the CASE-tool documents of the paper never use them.

Example
-------
>>> doc = parse('<goldmodel id="m1" name="DW"><factclasses/></goldmodel>')
>>> doc.root_element.get_attribute("name")
'DW'
"""

from __future__ import annotations

import re
from typing import NoReturn

from .chars import ILLEGAL_CLASS, NAME_RE, is_qname
from .dom import (
    Attribute,
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)
from .errors import XMLNamespaceError, XMLSyntaxError
from .escaping import resolve_char_ref, resolve_entity
from .lexer import Scanner

__all__ = ["parse", "parse_file", "XMLParser"]

# Bulk runs.  Each pattern consumes the longest stretch that needs no
# special handling; the parser's per-character code then deals with the
# one character that stopped the run (a reference, a CR, a possible
# ``]]>``, an illegal character, a quote or the end of input).  The
# classes exclude exactly those characters, so a run never swallows
# anything the well-formedness checks would have rejected.

#: Character data up to ``<``, ``&``, CR, ``]`` or an illegal character.
_TEXT_RUN = re.compile(f"[^<&\r\\]{ILLEGAL_CLASS}]+")
#: Attribute-value characters that are kept verbatim, per quote style.
_VALUE_RUN = {
    quote: re.compile(f"[^{quote}<&\t\n\r{ILLEGAL_CLASS}]*")
    for quote in ("'", '"')
}
#: The end of a start tag, ``>`` or ``/>``.
_TAG_CLOSE = re.compile("[ \t\r\n]*(/?)>")
#: An attribute up to the first value character that needs a closer look:
#: ``S Name Eq``, the opening quote and a bulk run of the value.
_ATTRIBUTE_HEAD = re.compile(
    f"[ \t\r\n]+({NAME_RE.pattern})[ \t\r\n]*=[ \t\r\n]*"
    + "(?:" + "|".join(
        f"{quote}({run.pattern})" for quote, run in _VALUE_RUN.items())
    + ")")
#: The characters the internal-subset skipper has to look at.
_SUBSET_MARK = re.compile("[][\"']")


def parse(text: str | bytes, *, namespaces: bool = True) -> Document:
    """Parse *text* into a :class:`Document`.

    Raises :class:`~repro.xml.errors.XMLSyntaxError` for well-formedness
    violations and :class:`~repro.xml.errors.XMLNamespaceError` for
    namespace violations (undeclared prefixes, duplicate expanded names).
    """
    return XMLParser(namespaces=namespaces).parse(text)


def parse_file(path, *, namespaces: bool = True) -> Document:
    """Parse the file at *path* (bytes are decoded per the XML declaration)."""
    with open(path, "rb") as handle:
        return parse(handle.read(), namespaces=namespaces)


def _decode(data: bytes) -> str:
    """Decode *data* honouring BOMs and the encoding pseudo-attribute."""
    if data.startswith(b"\xef\xbb\xbf"):
        return data[3:].decode("utf-8")
    if data.startswith(b"\xff\xfe"):
        return data.decode("utf-16-le")[1:] if data[2:4] != b"\x00\x00" else data.decode("utf-32-le")[1:]
    if data.startswith(b"\xfe\xff"):
        return data.decode("utf-16-be")[1:]
    head = data[:128].decode("latin-1", errors="replace")
    if head.startswith("<?xml"):
        decl_end = head.find("?>")
        if decl_end != -1 and "encoding" in head[:decl_end]:
            import re

            match = re.search(
                r"encoding\s*=\s*['\"]([A-Za-z][A-Za-z0-9._-]*)['\"]",
                head[:decl_end])
            if match:
                return data.decode(match.group(1))
    return data.decode("utf-8")


def _normalize_line_ends(data: str) -> str:
    """End-of-line normalization (XML 1.0 §2.11) of a raw section."""
    if "\r" in data:
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    return data


class XMLParser:
    """Recursive-descent XML parser.  One instance parses one document."""

    def __init__(self, *, namespaces: bool = True) -> None:
        self.namespaces = namespaces
        self._scanner: Scanner | None = None

    # -- entry point -----------------------------------------------------------

    def parse(self, text: str | bytes) -> Document:
        """Parse *text* and return the document tree."""
        if isinstance(text, bytes):
            text = _decode(text)
        if text.startswith("﻿"):
            text = text[1:]
        scanner = self._scanner = Scanner(text)
        document = Document()

        self._parse_prolog(document)
        if scanner.at_end or scanner.peek() != "<":
            raise scanner.error("expected document element")
        element = self._parse_element(parent_element=None)
        document.append_child(element)
        self._parse_misc(document)
        if not scanner.at_end:
            raise scanner.error("content after document element")
        return document

    # -- prolog -----------------------------------------------------------------

    def _parse_prolog(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        if scanner.startswith("<?xml") and scanner.peek(5) in " \t\r\n":
            self._parse_xml_declaration(document)
        while True:
            scanner.skip_space()
            if scanner.startswith("<!--"):
                document.append_child(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append_child(self._parse_pi())
            elif scanner.startswith("<!DOCTYPE"):
                if document.doctype_name is not None:
                    raise scanner.error("multiple document type declarations")
                self._parse_doctype(document)
            else:
                return

    def _parse_xml_declaration(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<?xml")
        scanner.require_space("after '<?xml'")
        scanner.expect("version", "version pseudo-attribute")
        document.version = self._parse_pseudo_attr_value()
        if document.version not in ("1.0", "1.1"):
            raise scanner.error(
                f"unsupported XML version {document.version!r}")
        scanner.skip_space()
        if scanner.startswith("encoding"):
            scanner.expect("encoding")
            document.encoding = self._parse_pseudo_attr_value()
            scanner.skip_space()
        if scanner.startswith("standalone"):
            scanner.expect("standalone")
            value = self._parse_pseudo_attr_value()
            if value not in ("yes", "no"):
                raise scanner.error("standalone must be 'yes' or 'no'")
            document.standalone = value == "yes"
            scanner.skip_space()
        scanner.expect("?>", "end of XML declaration")

    def _parse_pseudo_attr_value(self) -> str:
        scanner = self._scanner
        assert scanner is not None
        scanner.skip_space()
        scanner.expect("=", "'='")
        scanner.skip_space()
        return scanner.read_quoted("value")

    def _parse_doctype(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<!DOCTYPE")
        scanner.require_space("after '<!DOCTYPE'")
        document.doctype_name = scanner.read_name("doctype name")
        scanner.skip_space()
        if scanner.startswith("SYSTEM"):
            scanner.expect("SYSTEM")
            scanner.require_space("after SYSTEM")
            document.doctype_system = scanner.read_quoted("system identifier")
        elif scanner.startswith("PUBLIC"):
            scanner.expect("PUBLIC")
            scanner.require_space("after PUBLIC")
            document.doctype_public = scanner.read_quoted("public identifier")
            scanner.require_space("after public identifier")
            document.doctype_system = scanner.read_quoted("system identifier")
        scanner.skip_space()
        if scanner.peek() == "[":
            scanner.advance()
            start = scanner.pos
            depth = 1
            while depth:
                mark = _SUBSET_MARK.search(scanner.text, scanner.pos)
                if mark is None:
                    scanner.pos = len(scanner.text)
                    raise scanner.error("unterminated internal subset")
                scanner.pos = mark.end()
                ch = mark.group()
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                else:
                    scanner.read_until(ch, "literal in internal subset")
            document.internal_subset = scanner.text[start:scanner.pos - 1]
            scanner.skip_space()
        scanner.expect(">", "end of DOCTYPE")

    def _parse_misc(self, document: Document) -> None:
        scanner = self._scanner
        assert scanner is not None
        while True:
            scanner.skip_space()
            if scanner.startswith("<!--"):
                document.append_child(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append_child(self._parse_pi())
            else:
                return

    # -- elements ---------------------------------------------------------------

    def _parse_element(self, parent_element: Element | None) -> Element:
        scanner = self._scanner
        assert scanner is not None
        text = scanner.text
        start = scanner.pos
        scanner.expect("<")
        name = scanner.read_name("element name")
        line, column = scanner.location(start)
        element = Element(name, line=line, column=column)
        if parent_element is not None:
            # Attach early so namespace lookup sees ancestors during parsing.
            element.parent = parent_element

        seen_attrs: set[str] = set()
        pos = scanner.pos
        head = _ATTRIBUTE_HEAD.match(text, pos)
        while head is not None:
            attr_name, single, double = head.groups()
            attr_start = head.start(1)
            if attr_name in seen_attrs:
                raise scanner.error(
                    f"duplicate attribute {attr_name!r}", attr_start)
            seen_attrs.add(attr_name)
            quote, value = ("'", single) if double is None else ('"', double)
            pos = head.end()
            if text.startswith(quote, pos):
                # The common case: the first run was the whole value.
                pos += 1
            else:
                scanner.pos = pos
                value = self._finish_attribute_value(quote, value)
                pos = scanner.pos
            if attr_name.startswith("xmlns"):
                self._declare_namespace(element, attr_name, value, attr_start)
            line, column = scanner.location(attr_start)
            attr = Attribute(attr_name, value, line=line, column=column)
            attr.parent = element
            element.attributes.append(attr)
            head = _ATTRIBUTE_HEAD.match(text, pos)
        close = _TAG_CLOSE.match(text, pos)
        if close is None:
            scanner.pos = pos
            self._raise_attribute_error(seen_attrs)
        scanner.pos = close.end()
        if not close.group(1):
            self._parse_content(element)
            self._parse_end_tag(element)

        element.parent = None  # the caller re-attaches via append_child
        if self.namespaces:
            self._check_namespaces(element, parent_element)
        return element

    def _raise_attribute_error(self, seen: set[str]) -> NoReturn:
        """Report why the start tag neither ends nor goes on with an
        attribute (``S Name Eq`` and a quote)."""
        scanner = self._scanner
        assert scanner is not None
        if not scanner.skip_space():
            raise scanner.error("white space required before attribute")
        attr_start = scanner.pos
        name = scanner.read_name("attribute name")
        if name in seen:
            raise scanner.error(f"duplicate attribute {name!r}", attr_start)
        scanner.skip_space()
        scanner.expect("=", "'=' after attribute name")
        scanner.skip_space()
        raise scanner.error("attribute value must be quoted")

    def _declare_namespace(self, element: Element, name: str, value: str,
                           attr_start: int) -> None:
        """Apply the namespace declaration attribute *name*, if it is one."""
        scanner = self._scanner
        assert scanner is not None
        if name == "xmlns":
            element.declare_namespace("", value)
        elif name.startswith("xmlns:"):
            prefix = name[6:]
            if prefix == "xmlns":
                raise scanner.error(
                    "the 'xmlns' prefix cannot be declared", attr_start)
            if prefix == "xml" and value != "http://www.w3.org/XML/1998/namespace":
                raise scanner.error(
                    "the 'xml' prefix cannot be rebound", attr_start)
            if not value:
                raise scanner.error(
                    f"namespace prefix {prefix!r} cannot be undeclared "
                    "in XML 1.0", attr_start)
            element.declare_namespace(prefix, value)

    def _finish_attribute_value(self, quote: str, first_run: str) -> str:
        """Read the rest of a *quote*-delimited value from the character
        that stopped its first bulk run *first_run*."""
        scanner = self._scanner
        assert scanner is not None
        text = scanner.text
        run = _VALUE_RUN[quote].match
        parts = [first_run]
        while True:
            pos = scanner.pos
            ch = text[pos:pos + 1]
            if not ch:
                raise scanner.error("unterminated attribute value")
            if ch == quote:
                scanner.pos = pos + 1
                return "".join(parts)
            if ch == "<":
                raise scanner.error("'<' is not allowed in attribute values")
            if ch == "&":
                parts.append(self._parse_reference())
            elif ch in "\t\r\n":
                # Attribute-value normalization (XML 1.0 §3.3.3).
                parts.append(" ")
                if ch == "\r" and text.startswith("\n", pos + 1):
                    pos += 1
                scanner.pos = pos + 1
            else:
                raise scanner.error(
                    f"illegal character U+{ord(ch):04X} in attribute")
            chunk = run(text, scanner.pos)
            parts.append(chunk.group())
            scanner.pos = chunk.end()

    def _parse_content(self, element: Element) -> None:
        scanner = self._scanner
        assert scanner is not None
        text = scanner.text
        run = _TEXT_RUN.match
        text_parts: list[str] = []
        while True:
            chunk = run(text, scanner.pos)
            if chunk is not None:
                text_parts.append(chunk.group())
                scanner.pos = chunk.end()
            pos = scanner.pos
            ch = text[pos:pos + 1]
            if ch == "<":
                if text_parts:
                    element.append_child(Text("".join(text_parts)))
                    text_parts = []
                if text.startswith("</", pos):
                    return
                if text.startswith("<!--", pos):
                    element.append_child(self._parse_comment())
                elif text.startswith("<![CDATA[", pos):
                    scanner.pos = pos + 9
                    data = scanner.read_until("]]>", "CDATA section")
                    element.append_child(
                        Text(_normalize_line_ends(data), is_cdata=True))
                elif text.startswith("<?", pos):
                    element.append_child(self._parse_pi())
                elif text.startswith("<!", pos):
                    raise scanner.error("markup declaration not allowed here")
                else:
                    element.append_child(self._parse_element(element))
            elif ch == "&":
                text_parts.append(self._parse_reference())
            elif ch == "]":
                if text.startswith("]]>", pos):
                    raise scanner.error("']]>' is not allowed in content")
                text_parts.append(ch)
                scanner.pos = pos + 1
            elif ch == "\r":
                # End-of-line normalization (XML 1.0 §2.11).
                text_parts.append("\n")
                if text.startswith("\n", pos + 1):
                    pos += 1
                scanner.pos = pos + 1
            elif not ch:
                raise scanner.error(
                    f"unexpected end of input inside <{element.name}>")
            else:
                raise scanner.error(
                    f"illegal character U+{ord(ch):04X} in content")

    def _parse_end_tag(self, element: Element) -> None:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("</")
        name = scanner.read_name("end-tag name")
        if name != element.name:
            raise scanner.error(
                f"end tag </{name}> does not match start tag "
                f"<{element.name}>", start)
        scanner.skip_space()
        scanner.expect(">", "'>' closing end tag")

    # -- misc constructs -----------------------------------------------------------

    def _parse_comment(self) -> Comment:
        scanner = self._scanner
        assert scanner is not None
        scanner.expect("<!--")
        data = scanner.read_until("-->", "comment")
        if "--" in data or data.endswith("-"):
            raise scanner.error("'--' is not allowed inside comments")
        return Comment(_normalize_line_ends(data))

    def _parse_pi(self) -> ProcessingInstruction:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("<?")
        target = scanner.read_name("processing-instruction target")
        if target.lower() == "xml":
            raise scanner.error(
                "processing-instruction target 'xml' is reserved", start)
        data = ""
        if scanner.skip_space():
            data = scanner.read_until("?>", "processing instruction")
        else:
            scanner.expect("?>", "'?>'")
        return ProcessingInstruction(target, _normalize_line_ends(data))

    def _parse_reference(self) -> str:
        scanner = self._scanner
        assert scanner is not None
        start = scanner.pos
        scanner.expect("&")
        body = scanner.read_until(";", "entity reference")
        line, column = scanner.location(start)
        if body.startswith("#"):
            return resolve_char_ref(body, line, column)
        return resolve_entity(body, line, column)

    # -- namespace well-formedness ------------------------------------------------

    def _check_namespaces(self, element: Element,
                          parent: Element | None) -> None:
        scanner = self._scanner
        assert scanner is not None
        element.parent = parent
        try:
            prefix = element.prefix
            if prefix is not None and element.lookup_namespace(prefix) is None:
                raise XMLNamespaceError(
                    f"undeclared namespace prefix {prefix!r} on element "
                    f"<{element.name}>", element.line, element.column)
            if not is_qname(element.name):
                raise XMLNamespaceError(
                    f"element name {element.name!r} is not a valid QName",
                    element.line, element.column)
            # Unprefixed names are already unique (the parser rejects a
            # repeated name) and have no namespace, so they can neither
            # be invalid QNames nor collide with a prefixed attribute.
            expanded_seen: set[tuple[str | None, str]] = set()
            for attr in element.attributes:
                if ":" not in attr.name or attr.name.startswith("xmlns:"):
                    continue
                if not is_qname(attr.name):
                    raise XMLNamespaceError(
                        f"attribute name {attr.name!r} is not a valid QName",
                        attr.line, attr.column)
                aprefix = attr.prefix
                if element.lookup_namespace(aprefix) is None:
                    raise XMLNamespaceError(
                        f"undeclared namespace prefix {aprefix!r} on "
                        f"attribute {attr.name!r}", attr.line, attr.column)
                key = (attr.namespace_uri, attr.local_name)
                if key in expanded_seen:
                    raise XMLNamespaceError(
                        f"duplicate attribute {{{key[0]}}}{key[1]}",
                        attr.line, attr.column)
                expanded_seen.add(key)
        finally:
            element.parent = None
