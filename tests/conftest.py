import pytest

from jetschemes import Graph, Ideal, PolyRing, Variable, parse_poly, parse_variables

from expected import DEMO_EDGES


@pytest.fixture
def xyz_ring():
    return PolyRing(parse_variables("x,y,z"))


@pytest.fixture
def xyz_ideal(xyz_ring):
    return Ideal(xyz_ring, [parse_poly("x*y*z", xyz_ring)])


@pytest.fixture
def demo_graph():
    vertices = [Variable(ch) for ch in "abcde"]
    by_name = {str(v): v for v in vertices}
    return Graph(vertices, [(by_name[u], by_name[v]) for u, v in DEMO_EDGES])
