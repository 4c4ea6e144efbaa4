"""Expected outputs, computed offline from the same model bytes.

Every served byte is checked against what the library produces with no
server in between: a cold ``publish_multi_page`` / ``publish_single_page``
of the parsed model bytes for pages, and a private ``OlapService`` for
query results.  Checks run outside the timed region; a mismatch counts
as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from repro.mdm import document_to_model
from repro.olap.service import OlapService, parse_query, resolve_query
from repro.web.publisher import publish_multi_page, publish_single_page
from repro.xml.parser import parse as parse_xml

from inputs import MODEL_NAME, QuerySpec, sha

__all__ = ["model_from_bytes", "site_sha", "etag_ok", "rejection_ok",
           "OlapOracle"]


def model_from_bytes(xml: bytes):
    return document_to_model(parse_xml(xml))


def site_sha(xml: bytes) -> tuple[dict[str, str], dict[str, str]]:
    """Page → sha256 for the multi-page and the single-page site."""
    model = model_from_bytes(xml)
    return ({name: sha(text.encode("utf-8"))
             for name, text in publish_multi_page(model).pages.items()},
            {name: sha(text.encode("utf-8"))
             for name, text in publish_single_page(model).pages.items()})


def etag_ok(headers: dict[str, str], body_sha: str) -> bool:
    """The response's strong ETag is the sha256 of its body."""
    return headers.get("etag") == f'"{body_sha}"'


def rejection_ok(status: int, body: bytes) -> bool:
    """A 422 whose diagnostics carry an instance path."""
    if status != 422:
        return False
    try:
        issues = json.loads(body.decode("utf-8")).get("issues") or []
    except (UnicodeDecodeError, ValueError):
        return False
    return any(issue.get("path") for issue in issues)


class OlapOracle:
    """Query results from a private service over the same model bytes."""

    def __init__(self, xml: bytes) -> None:
        self.xml = xml
        self.model = model_from_bytes(xml)
        self.content_hash = hashlib.sha256(xml).hexdigest()
        self.service = OlapService()
        #: (query key, format) → sha256 of the expected rendering.
        self.expected: dict[tuple[str, str], str] = {}

    def expected_sha(self, spec: QuerySpec, fmt: str) -> str:
        key = (spec.query_key(), fmt)
        if key not in self.expected:
            entry, _ = self.service.execute(
                MODEL_NAME, self.content_hash, self.model, spec)
            for rendered_fmt, data in entry.renderings.items():
                self.expected[(key[0], rendered_fmt)] = sha(data)
        return self.expected[key]

    def prefill(self, specs) -> None:
        """Compute *specs* in child processes, one per dataset seed.

        Each child synthesizes only its own dataset, so the two stars
        and their queries are computed side by side on two cores.
        """
        groups: dict[int, dict[str, QuerySpec]] = {}
        for spec in specs:
            groups.setdefault(spec.seed, {})[spec.query_key()] = spec
        children = []
        try:
            for group in groups.values():
                child = subprocess.Popen(
                    [sys.executable, "-c", "import oracle; oracle._child()"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(filter(None,
                                                              sys.path))})
                children.append(child)
                request = {"xml": self.xml.decode("utf-8"),
                           "queries": [spec.to_params()
                                       for spec in group.values()]}
                child.stdin.write(json.dumps(request).encode("utf-8"))
                child.stdin.close()
            for child in children:
                for line in child.stdout:
                    key, fmt, digest = line.decode("ascii").split()
                    self.expected[(key, fmt)] = digest
                if child.wait() != 0:
                    raise RuntimeError("olap oracle child failed")
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
                child.stdout.close()


def _child() -> None:
    """Answer one prefill request read from stdin (see ``prefill``)."""
    request = json.load(sys.stdin)
    oracle = OlapOracle(request["xml"].encode("utf-8"))
    for params in request["queries"]:
        spec = resolve_query(parse_query(params), oracle.model)
        oracle.expected_sha(spec, "json")
    for (key, fmt), digest in sorted(oracle.expected.items()):
        print(key, fmt, digest)
