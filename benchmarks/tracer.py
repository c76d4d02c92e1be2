"""Run one ``mzv`` command in-process with spans around the calls between layers.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 benchmarks/tracer.py rank-table --k-max 6

The program itself is not changed.  Before ``mzv.cli.main(argv)`` runs, the
names each module of ``mzv`` imported from another module (and a few named
entry points) are replaced in that module's namespace by a wrapper that
records a span: name, start, end and the enclosing span.  Spans stay in
memory; when the command ends one JSON document goes to stdout holding the
command's exit code and text output, the spans, the counts read from the
returned objects and the ``cache_info()`` of the module-level caches.

Each command runs in its own process, as an untraced ``mzv`` run does, so the
caches start cold exactly as they do for a user.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import weakref

# Span name, then the modules whose global of that name is wrapped.  Only the
# name's own module is listed where callers reach it as ``module.name``
# (``products.stuffle`` in the identities suite, ``lyndon.zagier_dim``) or
# where the calls that matter are inside that module (``numeric.zeta_strict``).
FUNCTIONS = [
    ("relations.kawashima_basis", ["cli"]),
    ("relations.ohno_relations", ["cli"]),
    ("relations.kawashima_relation", ["cli"]),
    ("relations.duality_relation", ["cli"]),
    ("relations.quadratic_relation", ["cli"]),
    ("relations.verify_reversal_telescope", ["cli"]),
    ("indices.refine", ["cli", "relations", "ohno"]),
    ("indices.coarsen", ["cli", "relations"]),
    ("indices.refine_inv", ["cli", "ohno"]),
    ("indices.coarsen_inv", ["cli"]),
    ("indices.dual", ["cli", "relations", "ohno"]),
    ("indices.signed", ["cli", "relations"]),
    ("products.stuffle", ["products", "relations", "ohno"]),
    ("products.stuffle_via_matrices", ["products"]),
    ("products.circ", ["relations"]),
    ("ohno.ohno_u", ["relations"]),
    ("ohno.verify_shift_factorization", ["cli"]),
    ("ohno.verify_alternating_shift_sum", ["cli"]),
    ("harmonic.seq_s", ["cli"]),
    ("harmonic.seq_s2", ["cli"]),
    ("numeric.verify_linear", ["cli"]),
    ("numeric.verify_quadratic", ["cli"]),
    ("numeric.zeta_strict", ["numeric"]),
    ("lyndon.zagier_dim", ["lyndon"]),
    ("lyndon.dimension_formula", ["lyndon"]),
]

# ``RelationMatrix`` methods; ``member`` is split into ``qlinalg.echelon`` (the
# first call on a matrix, which builds its echelon form) and ``qlinalg.member``.
METHODS = [
    ("qlinalg.build", "__init__"),
    ("qlinalg.rank", "rank"),
    ("qlinalg.modular_rank", "modular_rank"),
    ("qlinalg.member", "member"),
]

# Counter name -> (module, cache) whose ``cache_info()`` is read at the end.
CACHES = {
    "stuffle": [("products", "_stuffle"), ("products", "_stuffle_bar")],
    "ohno_pair": [("ohno", "_ohno_pair")],
    "chain": [("harmonic", "_chain_values")],
    "partials": [("numeric", "_chain_partials")],
}


class Recorder:
    """Spans as parallel lists; ``stack`` holds the open spans' positions."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter
        choose = name if callable(name) else None

        def traced(*args, **kwargs):
            i = len(names)
            names.append(choose(args) if choose else name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        table = sorted(set(self.names))
        pos = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": table,
            "spans": [
                [pos[n], s - t0, e - t0, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def _relation_counts(rec):
    def after(args, result):
        rec.count("relations.rows", len(result))
        rec.count("relations.nnz", sum(len(rel.element) for rel in result))

    return after


def install(rec: Recorder) -> dict:
    """Wrap every hook that this version of ``mzv`` still has; returns the modules."""
    modules = {
        m: importlib.import_module("mzv." + m)
        for m in ("cli", "relations", "indices", "products", "qlinalg", "ohno",
                  "harmonic", "numeric", "lyndon")
    }
    for name, consumers in FUNCTIONS:
        layer, attr = name.split(".")
        original = getattr(modules[layer], attr, None)
        after = _relation_counts(rec) if name in (
            "relations.kawashima_basis", "relations.ohno_relations") else None
        for consumer in consumers:
            if original is None or getattr(modules[consumer], attr, None) is not original:
                rec.missing.append("%s in mzv.%s" % (name, consumer))
                continue
            setattr(modules[consumer], attr, rec.wrap(name, original, after))

    matrix = getattr(modules["qlinalg"], "RelationMatrix", None)
    seen = weakref.WeakSet()

    def member_name(args):
        if args[0] in seen:
            return "qlinalg.member"
        seen.add(args[0])
        return "qlinalg.echelon"

    def after_build(args, result):
        self = args[0]
        rec.count("qlinalg.nrows", self.nrows)
        rec.count("qlinalg.ncols", self.ncols)
        rec.count("qlinalg.nnz", sum(len(row) for row in self.rows))

    for name, attr in METHODS:
        original = getattr(matrix, attr, None)
        if original is None:
            rec.missing.append("%s (RelationMatrix.%s)" % (name, attr))
            continue
        label = member_name if attr == "member" else name
        after = after_build if attr == "__init__" else None
        setattr(matrix, attr, rec.wrap(label, original, after))

    # Count-only hook: the elements the numpy kernel computes on each miss.
    partials = getattr(modules["numeric"], "_chain_partials", None)
    if partials is None or not hasattr(partials, "cache_info"):
        rec.missing.append("numeric._chain_partials")
    else:
        def counted(mu, N, *rest):
            before = partials.cache_info().misses
            result = partials(mu, N, *rest)
            if partials.cache_info().misses != before:
                rec.count("numeric.kernel_elems", N * len(mu))
            return result

        counted.cache_info = partials.cache_info
        modules["numeric"]._chain_partials = counted
    return modules


def read_caches(rec: Recorder, modules) -> dict:
    out = {}
    for key, caches in CACHES.items():
        hits = misses = 0
        for module, attr in caches:
            info = getattr(getattr(modules[module], attr, None), "cache_info", None)
            if info is None:
                rec.missing.append("%s.%s.cache_info" % (module, attr))
                continue
            hits += info().hits
            misses += info().misses
        out[key] = {"hits": hits, "misses": misses}
    return out


def main(argv) -> int:
    rec = Recorder()
    modules = install(rec)
    main_fn = rec.wrap("cli.main", modules["cli"].main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main_fn(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    payload = {
        "exit": code,
        "stdout": out.getvalue(),
        "counts": rec.counts,
        "caches": read_caches(rec, modules),
        "missing": rec.missing,
    }
    payload.update(rec.dump())
    json.dump(payload, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
