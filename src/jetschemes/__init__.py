"""Jets of polynomial ideals, monomial ideals, and graphs over QQ."""

from .poly import (Ideal, Monomial, ParseError, Poly, PolyRing, Variable,
                   is_homogeneous, monomial_str, parse_poly, parse_polys,
                   parse_variables, term_key)
from .jets import (JetRing, RingMap, compose, jet_ring, jets_ideal, jets_quotient,
                   jets_ring_map, series_substitute)
from .monomial import (MonomialIdeal, is_monomial_ideal, jets_radical,
                       minimal_primes_squarefree, minimal_transversals,
                       minimalize)
from .graphs import (Graph, HyperGraph, chromatic_number, complement_graph,
                     edge_ideal, graph_from_edge_ideal, is_chordal, jets_graph,
                     jets_hypergraph, minimal_vertex_covers, parse_graph_text)
from .matrices import GenericMatrix, generic_matrix, minors
from .cli import emit_json, run_script

__all__ = [
    "Ideal", "Monomial", "ParseError", "Poly", "PolyRing", "Variable",
    "is_homogeneous", "monomial_str", "parse_poly", "parse_polys",
    "parse_variables", "term_key",
    "JetRing", "RingMap", "compose", "jet_ring", "jets_ideal", "jets_quotient",
    "jets_ring_map", "series_substitute",
    "MonomialIdeal", "is_monomial_ideal", "jets_radical",
    "minimal_primes_squarefree", "minimal_transversals", "minimalize",
    "Graph", "HyperGraph", "chromatic_number", "complement_graph",
    "edge_ideal", "graph_from_edge_ideal", "is_chordal", "jets_graph",
    "jets_hypergraph", "minimal_vertex_covers", "parse_graph_text",
    "GenericMatrix", "generic_matrix", "minors",
    "emit_json", "run_script",
]
