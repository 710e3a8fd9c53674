"""Outside-in tracing: wrap the package's layer entry points at every binding.

A function imported by name (``from .bias import bias_fiber``) is bound
separately in each importing module, and ``cli._ENGINES`` holds the function
objects captured at import time.  Patching the defining module alone would
miss those calls, so :meth:`Tracer.install` replaces every module attribute
and every module-level dict value that *is* the original object, and
:meth:`Tracer.uninstall` puts each one back.

Spans (name, start, end, parent, item) are kept in flat arrays and written
out after the run.  Self time is a span's duration minus the time covered
by its child spans, so the self times of all spans plus the time outside
any span add up to the traced wall time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from functools import partial
from time import perf_counter

# Seed-commit law ids; each is traced through its `law_<id>` function.
LAW_IDS = ("subadditivity", "correlation", "arank-le-prank", "independent-bound",
           "restriction-monotone", "lemma-bias", "basis-invariance")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _tensor_shape(args, kwargs):
    t = _arg(args, kwargs, 0, "t")
    return t.field.p, t.dim, t.order


def _count_fixings(tracer, args, kwargs, result):
    p, n, d = _tensor_shape(args, kwargs)
    tracer.counters["bias.bias_fiber.fixings"] += p ** (n * (d - 1))


def _count_evals(tracer, args, kwargs, result):
    p, n, d = _tensor_shape(args, kwargs)
    tracer.counters["bias.bias_histogram.evals"] += p ** (n * d)


def _count_cells(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 1, "rows")
    tracer.counters["gf.matrix_rank.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)


def _count_candidates(tracer, args, kwargs, result):
    field = _arg(args, kwargs, 0, "field")
    key = (field.p, _arg(args, kwargs, 1, "dim"), _arg(args, kwargs, 2, "order"),
           _arg(args, kwargs, 3, "kind"))
    tracer.candidate_keys.add(key)
    tracer.counters["ranks.candidate_terms.candidates"] += len(result)


def _count_exact(tracer, args, kwargs, result):
    tracer.counters["ranks.rank_exact.exact"] += bool(result.exact)


def _matrix_rank_name(args, kwargs):
    return "gf.matrix_rank.p2" if _arg(args, kwargs, 0, "field").p == 2 else "gf.matrix_rank.generic"


# (module, attribute path, span name or name function, counter hook)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("bias", "bias_fiber", "bias.bias_fiber", _count_fixings),
    ("bias", "bias_recursive", "bias.bias_recursive", None),
    ("bias", "bias_histogram", "bias.bias_histogram", _count_evals),
    ("bias", "bias_multiform", "bias.bias_multiform", None),
    ("gf", "matrix_rank", _matrix_rank_name, _count_cells),
    ("ranks", "candidate_terms", "ranks.candidate_terms", _count_candidates),
    ("ranks", "rank_exact", "ranks.rank_exact", _count_exact),
    ("ranks", "greedy_decomposition", "ranks.greedy_decomposition", None),
    ("ranks", "rank_bounds", "ranks.rank_bounds", None),
    ("ranks", "max_independent_set", "ranks.max_independent_set", None),
    ("tensor", "Tensor.__init__", "tensor.Tensor.new", None),
    ("tensor", "Tensor.__add__", "tensor.Tensor.add", None),
    ("tensor", "Tensor.evaluate", "tensor.Tensor.evaluate", None),
    ("tensor", "restrict", "tensor.restrict", None),
    ("tensor", "parse_tensor", "tensor.parse_tensor", None),
] + [("laws", "law_" + law.replace("-", "_"), "laws." + law, None) for law in LAW_IDS]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.item = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.candidate_keys: set = set()
        self._open: list[int] = []
        self._child: list[float] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, hook):
        open_spans, child = self._open, self._child
        fixed_name = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            span_name = fixed_name or name(args, kwargs)
            index = len(self.span_name)
            self.span_name.append(self._name_id(span_name))
            self.span_parent.append(open_spans[-1] if open_spans else -1)
            self.span_item.append(self.item)
            self.span_end.append(0.0)
            open_spans.append(index)
            child.append(0.0)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                covered = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                self.span_end[index] = end
                self.calls[span_name] += 1
                self.wall_s[span_name] += duration
                self.self_s[span_name] += duration - covered
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded biasrank modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "biasrank" or key.startswith("biasrank."))]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules.get("biasrank." + module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(original, name, hook)
            if outer:  # a method: the class attribute is its only binding
                self._rebind(partial(setattr, owner, attr), wrapped, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(partial(setattr, module, key), wrapped, original)
                    elif type(value) is dict and not key.startswith("__"):
                        for dict_key, item in list(value.items()):
                            if item is original:
                                self._rebind(partial(value.__setitem__, dict_key),
                                             wrapped, original)

    def _rebind(self, put, wrapped, original) -> None:
        put(wrapped)
        self._restore.append(partial(put, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def span_self_total(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        """Gzipped TSV, one line per span; times in seconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        lines = ["span\tname\tstart_s\tend_s\tparent\titem"]
        names = self.names
        for i in range(len(self.span_name)):
            lines.append(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i] - origin:.9f}\t"
                         f"{self.span_end[i] - origin:.9f}\t{self.span_parent[i]}\t{self.span_item[i]}")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("\n".join(lines) + "\n")
