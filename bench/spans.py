"""Per-layer spans, installed from outside the program.

Each listed public function is replaced, in every `jetschemes` module
namespace that binds it, by a wrapper that records calls, total time and
self time (total minus the time covered by wrapped calls made inside it),
plus the counts taken at the same boundary.  `uninstall` puts the original
objects back.  A name that the program no longer has reads as zero calls.
A count that no longer fits the function's arguments or result raises, and
so fails the traced pass.

Polynomial arithmetic is not wrapped: it makes hundreds of thousands of
dunder calls, and a wrapper on each would distort it.  It shows up as the
self time of `jets.series_substitute` and `matrices.minors`.
"""

import sys
import time

# (module, attribute, metric prefix); "Poly.__str__" is a method.
TARGETS = [
    ("cli", "run_script", "cli.run_script"),
    ("cli", "emit_json", "cli.emit_json"),
    ("poly", "parse_poly", "poly.parse_poly"),
    ("poly", "parse_variables", "poly.parse_variables"),
    ("poly", "Poly.__str__", "poly.str"),
    ("poly", "monomial_str", "poly.monomial_str"),
    ("jets", "jets_ideal", "jets.jets_ideal"),
    ("jets", "series_substitute", "jets.series_substitute"),
    ("matrices", "minors", "matrices.minors"),
    ("monomial", "jets_radical", "monomial.jets_radical"),
    ("monomial", "minimalize", "monomial.minimalize"),
    ("monomial", "minimal_primes_squarefree", "monomial.minimal_primes_squarefree"),
    ("monomial", "minimal_transversals", "monomial.minimal_transversals"),
    ("graphs", "parse_graph_text", "graphs.parse_graph_text"),
    ("graphs", "jets_graph", "graphs.jets_graph"),
    ("graphs", "complement_graph", "graphs.complement_graph"),
    ("graphs", "is_chordal", "graphs.is_chordal"),
    ("graphs", "chromatic_number", "graphs.chromatic_number"),
    ("graphs", "minimal_vertex_covers", "graphs.minimal_vertex_covers"),
]

COUNTS = ("jets.jet_generators", "jets.jet_terms", "monomial.supports_in",
          "monomial.generators_out", "monomial.transversals_out", "graphs.jet_edges",
          "matrices.minor_terms", "cli.statements", "cli.transcript_bytes")


def _count_jets(c, args, result):
    c["jets.jet_generators"] += len(result.generators)
    c["jets.jet_terms"] += sum(len(g._terms) for g in result.generators)


def _count_minimalize(c, args, result):
    c["monomial.supports_in"] += len(args[1])
    c["monomial.generators_out"] += len(result)


def _count_transversals(c, args, result):
    c["monomial.transversals_out"] += len(result)


def _count_jets_graph(c, args, result):
    c["graphs.jet_edges"] += len(result.edges)


def _count_minors(c, args, result):
    c["matrices.minor_terms"] += sum(len(g._terms) for g in result.generators)


def _count_run_script(c, args, result):
    c["cli.statements"] += sum(1 for chunk in args[0].split(";")[:-1] if chunk.strip())
    c["cli.transcript_bytes"] += len(result.encode())


COUNTERS = {
    "jets.jets_ideal": _count_jets,
    "monomial.minimalize": _count_minimalize,
    "monomial.minimal_transversals": _count_transversals,
    "graphs.jets_graph": _count_jets_graph,
    "matrices.minors": _count_minors,
    "cli.run_script": _count_run_script,
}


class Spans:
    def __init__(self):
        self.patched = []
        self.stats = {}
        self.counts = {}
        self.covered = [0.0]   # time covered by wrapped children, per open span
        self.reset()

    def reset(self):
        self.stats = {key: [0, 0.0, 0.0] for _, _, key in TARGETS}
        self.counts = dict.fromkeys(COUNTS, 0)

    def snapshot(self):
        out = {}
        for key, (calls, total, own) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.total_s"] = total
            out[f"{key}.self_s"] = own
        out.update(self.counts)
        return out

    def _wrap(self, key, fn):
        clock = time.perf_counter
        covered = self.covered
        spans = self
        count = COUNTERS.get(key)

        def wrapper(*args, **kwargs):
            enter = clock()
            covered.append(0.0)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                rec = spans.stats[key]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - covered.pop()
                if returned and count is not None:
                    count(spans.counts, args, result)
                # the parent's self time excludes this call and its bookkeeping
                covered[-1] += clock() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jetschemes" or name.startswith("jetschemes."))]
        for module, attr, key in TARGETS:
            home = sys.modules.get(f"jetschemes.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is not None:
                    self.patched.append((cls, method, original))
                    setattr(cls, method, self._wrap(key, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(key, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self.patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []
