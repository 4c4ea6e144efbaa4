"""Seeded inputs for the three workloads, made before any measurement.

Everything here is a pure function of the workload seed (and of the
model under test), so the same seed yields the same request sequence:
every path, header, PUT body and query string.  ``selftest.py`` pins
that.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from urllib.parse import urlencode

from repro.mdm import model_to_xml, synthetic_model
from repro.mdm.model import GoldModel
from repro.olap.service import QueryError, QuerySpec, parse_query, \
    resolve_query
from repro.testkit.generators import (
    MODEL_EDIT_KINDS,
    apply_model_edit,
    random_model_edit_script,
)
from repro.web.publisher import publish_multi_page

#: The large synthetic model every workload serves (314 pages).
MODEL_SIZE = dict(facts=20, dimensions=25, levels_per_dimension=5,
                  measures_per_fact=8)
MODEL_NAME = "large"

#: browse: offered rate over both connections, and the request mix.
BROWSE_RATE = 200.0
REVALIDATE_SHARE = 0.30
SINGLE_SHARE = 0.03
ZIPF_EXPONENT = 1.0

#: edit: model versions in the editor's cycle, every REJECT_EVERY-th
#: PUT carries a dangling keyref, and the reader's offered rate.
EDIT_VERSIONS = 24
REJECT_EVERY = 6
READER_RATE = 10.0

#: olap: one query in FRESH_EVERY is fresh, the rest repeat one of the
#: client's earlier queries; share rendered as XML; the two dataset
#: seeds; steps prepared per client.
FRESH_EVERY = 5
XML_SHARE = 0.5
DATA_SEEDS = (1, 2)
OLAP_STEPS = 6000
AGGREGATIONS = ("SUM", "AVG", "COUNT", "MAX", "MIN")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def base_model() -> tuple[GoldModel, bytes]:
    model = synthetic_model(**MODEL_SIZE)
    return model, model_to_xml(model).encode("utf-8")


@dataclass(frozen=True)
class Get:
    """One planned GET: path, conditional header, what it asks for."""

    path: str
    page: str
    variant: str = "multi"
    if_none_match: str | None = None

    @property
    def headers(self) -> tuple[tuple[str, str], ...]:
        if self.if_none_match is None:
            return ()
        return (("If-None-Match", self.if_none_match),)


def page_path(page: str, variant: str = "multi") -> str:
    path = f"/site/{MODEL_NAME}/{page}"
    return path if variant == "multi" else f"{path}?variant={variant}"


# -- browse ----------------------------------------------------------------

def browse_requests(seed: int, multi_sha: dict[str, str],
                    single_sha: dict[str, str], count: int) -> list[Get]:
    """Zipf-popular GETs over every page; some revalidate, some single.

    A revalidation carries the page's expected ETag, so it should be
    answered 304.
    """
    rng = random.Random(f"browse:{seed}")
    order = sorted(multi_sha)
    rng.shuffle(order)
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))))
    requests = []
    for _ in range(count):
        if rng.random() < SINGLE_SHARE:
            variant, page, digest = "single", "index.html", \
                single_sha["index.html"]
        else:
            page = rng.choices(order, cum_weights=cumulative)[0]
            variant, digest = "multi", multi_sha[page]
        etag = f'"{digest}"' if rng.random() < REVALIDATE_SHARE else None
        requests.append(Get(page_path(page, variant), page, variant, etag))
    return requests


# -- edit ------------------------------------------------------------------

@dataclass(frozen=True)
class Version:
    """One accepted model version and its expected multi-page site."""

    xml: bytes
    pages: dict[str, str]  # page → sha256 of the expected bytes
    touched: str


@dataclass(frozen=True)
class EditStep:
    """One editor PUT: accepted (``version`` is the new one) or rejected
    (``version`` is the one that must survive)."""

    body: bytes
    version: int
    rejected: bool


_CUBE_FACT = re.compile(rb'(<cubeclass [^>]*?fact=")([^"]*)(")')


def dangling_keyref(xml: bytes) -> bytes:
    """*xml* with one cube's ``@fact`` keyref pointing nowhere."""
    body, count = _CUBE_FACT.subn(rb"\1no-such-fact\3", xml, count=1)
    if count != 1:
        raise ValueError("model has no cube class to break")
    return body


def _site_sha(model: GoldModel) -> dict[str, str]:
    return {name: sha(text.encode("utf-8"))
            for name, text in publish_multi_page(model).pages.items()}


def _touched(rng: random.Random, previous: dict[str, str],
             pages: dict[str, str]) -> str:
    """A page other than index.html whose bytes the edit changed."""
    changed = sorted(name for name, digest in pages.items()
                     if name != "index.html"
                     and previous.get(name) != digest)
    return rng.choice(changed or sorted(pages))


def edit_chain(seed: int, model: GoldModel, xml: bytes,
               count: int = EDIT_VERSIONS) -> list[Version]:
    """The base model and *count* successive edits of it.

    Opcodes come from ``random_model_edit_script``; kinds are taken in
    the fixed order of ``MODEL_EDIT_KINDS``, so every run mixes
    dirty-page, model-level and structural edits in the same shares
    and only the operands depend on the seed.  An opcode that leaves
    the bytes unchanged is skipped.  The editor cycles through the
    versions, so the last one is followed by the base again; the base's
    touched page is chosen against the last version.
    """
    rng = random.Random(f"edit:{seed}")
    pending: dict[str, list] = {kind: [] for kind in MODEL_EDIT_KINDS}
    versions = [Version(xml, _site_sha(model), "")]
    kinds = itertools.cycle(MODEL_EDIT_KINDS)
    while len(versions) <= count:
        kind = next(kinds)
        for _attempt in range(16):
            while not pending[kind]:
                for op in random_model_edit_script(rng, 16):
                    pending[op[0]].append(op)
            edited, _what = apply_model_edit(model, pending[kind].pop(0))
            edited_xml = model_to_xml(edited).encode("utf-8")
            if edited_xml != versions[-1].xml:
                break
        else:
            continue
        pages = _site_sha(edited)
        touched = _touched(rng, versions[-1].pages, pages)
        versions.append(Version(edited_xml, pages, touched))
        model = edited
    base = versions[0]
    versions[0] = Version(base.xml, base.pages,
                          _touched(rng, versions[-1].pages, base.pages))
    return versions


def edit_steps(versions: list[Version], count: int) -> list[EditStep]:
    """The editor's first *count* PUTs, cycling through *versions*
    (version 0 is stored during set-up)."""
    steps = []
    current = 0
    while len(steps) < count:
        if len(steps) % REJECT_EVERY == REJECT_EVERY - 1:
            steps.append(EditStep(dangling_keyref(versions[current].xml),
                                  current, True))
        else:
            current = (current + 1) % len(versions)
            steps.append(EditStep(versions[current].xml, current, False))
    return steps


def reader_requests(seed: int, versions: list[Version],
                    count: int) -> list[Get]:
    """Uniform plain GETs over the pages every version has."""
    rng = random.Random(f"edit-reader:{seed}")
    common = set(versions[0].pages)
    for version in versions[1:]:
        common &= set(version.pages)
    pages = sorted(common)
    return [Get(page_path(page), page)
            for page in (rng.choice(pages) for _ in range(count))]


# -- olap ------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One planned query request."""

    spec: QuerySpec
    fmt: str

    @property
    def path(self) -> str:
        params = dict(self.spec.to_params())
        params["format"] = self.fmt
        return f"/olap/{MODEL_NAME}/query?{urlencode(params, doseq=True)}"


def warmup_specs(model: GoldModel, seeds: tuple[int, ...]
                 ) -> list[QuerySpec]:
    """One query per dataset seed, run during set-up to synthesize it."""
    fact = model.facts[0]
    measure = next(a for a in fact.attributes if not a.is_oid)
    return [resolve_query(parse_query({
        "fact": fact.id, "measure": f"{measure.id}:SUM",
        "dice": fact.dimension_ids[0], "seed": str(seed)}), model)
        for seed in seeds]


#: Query templates, taken in turn by each client's fresh queries so
#: every run asks the same mix of query shapes: (dice levels, slice
#: level and operator or None, measures).  A dice level is an index
#: into the dimension's levels, ``None`` the base grain.  The seed
#: picks only the fact, dimensions, measures, aggregations and slice
#: member, which are alike across the synthetic model.
TEMPLATES = (
    ((1,), None, 1),            # roll-up
    ((3,), None, 1),            # coarser roll-up
    ((0, 2), None, 1),          # two-axis dice
    ((1, 1), None, 1),
    ((0,), (2, "EQ"), 1),       # slice + dice
    ((2,), (1, "NOTEQ"), 1),
    ((0,), None, 2),            # two measures
    ((3,), None, 2),
    ((None,), None, 1),         # base grain
    ((None,), (3, "NOTEQ"), 1),
)


def _random_params(rng: random.Random, model: GoldModel,
                   template: tuple) -> dict:
    dice_levels, slice_rule, measure_count = template
    fact = rng.choice(model.facts)
    measures = [a for a in fact.attributes if not a.is_oid]
    dimensions = rng.sample(list(fact.dimension_ids), len(dice_levels) + 1)

    def levels(dimension_id: str) -> list:
        return list(model.dimension_class(dimension_id).iter_levels())

    dices = []
    for dimension_id, index in zip(dimensions, dice_levels):
        dices.append(dimension_id if index is None
                     else f"{dimension_id}@{levels(dimension_id)[index].id}")
    params: dict = {
        "fact": fact.id,
        "measure": ",".join(f"{m.id}:{rng.choice(AGGREGATIONS)}"
                            for m in rng.sample(measures, measure_count)),
        "dice": ",".join(dices),
        "seed": str(rng.choice(DATA_SEEDS)),
    }
    if slice_rule is not None:
        index, operator = slice_rule
        dimension = dimensions[-1]
        level = levels(dimension)[index]
        oid = next(a for a in level.attributes if a.is_oid)
        member = f"{level.id}-{rng.randrange(8)}"
        params["slice"] = [
            f'{dimension}.{level.id}.{oid.name} {operator} "{member}"']
    return params


def olap_schedules(seed: int, model: GoldModel,
                   steps: int = OLAP_STEPS) -> list[list[Query]]:
    """One query sequence per client.

    Every FRESH_EVERY-th step is fresh: drawn from the client's next
    entry of :data:`TEMPLATES` and kept only if it resolves, i.e.
    satisfies the additivity rules, and has a query key no other query
    of the run has.  The other steps repeat one of the same client's
    earlier fresh queries, which has completed and so should hit the
    aggregate cache.
    """
    rng = random.Random(f"olap:{seed}")
    seen = {spec.query_key() for spec in warmup_specs(model, DATA_SEEDS)}
    schedules: list[list[Query]] = [[], []]
    history: list[list[QuerySpec]] = [[], []]
    for step in range(steps):
        for client in (0, 1):
            fmt = "xml" if rng.random() < XML_SHARE else "json"
            if step % FRESH_EVERY:
                spec = rng.choice(history[client])
                schedules[client].append(Query(spec, fmt))
                continue
            template = TEMPLATES[(len(history[client]) + 5 * client)
                                 % len(TEMPLATES)]
            while True:
                try:
                    spec = resolve_query(
                        parse_query(_random_params(rng, model, template)),
                        model)
                except QueryError:
                    continue
                key = spec.query_key()
                if key not in seen:
                    break
            seen.add(key)
            history[client].append(spec)
            schedules[client].append(Query(spec, fmt))
    return schedules
