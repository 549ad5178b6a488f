from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpflow import (InputError, ParseError, Prescription, SurfaceComplex,
                    edge_neighborhood, fixtures, parse_instance, potential,
                    serialize_instance, validate)
from cpflow.surface import _corner_cycles, _entries, check_instance, check_names
from conftest import family_pool, wedge
from surfaces import connected_sum, corner_cycles_union_find, klein_bottle
from velocity_bound import degrees


@pytest.fixture
def tetra():
    return fixtures.tetrahedron()


class TestFixtures:
    @pytest.mark.parametrize("make,chi", [
        (fixtures.tetrahedron, 2),
        (fixtures.bigon, 2),
        (fixtures.cube_graph, 2),
        (fixtures.torus_grid, 0),
        (lambda: fixtures.necklace(4), 2),
        (lambda: fixtures.prism(4), 2),
        (lambda: fixtures.bipyramid(5), 2),
    ])
    def test_valid_with_expected_characteristic(self, make, chi):
        c = make()
        assert validate(c) == []
        assert c.euler_characteristic == chi

    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        fixtures.torus_grid, lambda: fixtures.necklace(5),
        lambda: fixtures.prism(3), lambda: fixtures.bipyramid(3),
    ])
    def test_handshake(self, make):
        c = make()
        assert int(np.sum(degrees(c))) == 2 * c.n_edges

    @pytest.mark.parametrize("make", [
        lambda: fixtures.torus_grid(2, 3),
        lambda: fixtures.necklace(1),
        lambda: fixtures.prism(2),
        lambda: fixtures.bipyramid(2),
        lambda: fixtures.tetrahedron(phi=[1.0, 2.0]),
    ], ids=["torus_grid", "necklace", "prism", "bipyramid", "phi_shape"])
    def test_bad_input_raises_input_error(self, make):
        with pytest.raises(InputError):
            make()


class TestValidate:
    def test_loop_rejected(self):
        c = SurfaceComplex(2, ((0, 0), (0, 1), (0, 1)),
                           ((0, 1), (1, 2), (0, 2)),
                           np.full(3, np.pi / 2))
        problems = validate(c)
        assert any("loop" in p for p in problems)

    def test_triple_covered_edge(self, tetra):
        faces = tetra.faces[:-1] + ((0, 0, 3, 1),)
        c = SurfaceComplex(4, tetra.edges, faces, tetra.phi)
        problems = validate(c)
        assert any("covered 3 times" in p for p in problems)

    def test_uncovered_edge(self, tetra):
        c = SurfaceComplex(4, tetra.edges, tetra.faces[:2], tetra.phi)
        assert any("covered" in p for p in validate(c))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.pi / 2 + 1e-12, np.nan])
    def test_angle_out_of_range(self, tetra, bad):
        phi = tetra.phi.copy()
        phi[2] = bad
        c = SurfaceComplex(4, tetra.edges, tetra.faces, phi)
        assert any("intersection angle" in p for p in validate(c))

    def test_angle_messages_in_edge_order(self, tetra):
        phi = tetra.phi.copy()
        phi[[0, 1, 3, 5]] = [2.0, np.nan, 0.0, np.inf]
        c = SurfaceComplex(4, tetra.edges, tetra.faces, phi)
        assert validate(c) == [
            "edge e0 has intersection angle 2.0 outside (0, pi/2]",
            "edge e1 has intersection angle nan outside (0, pi/2]",
            "edge e3 has intersection angle 0.0 outside (0, pi/2]",
            "edge e5 has intersection angle inf outside (0, pi/2]",
        ]

    def test_disconnected(self):
        # two disjoint bigons in one complex
        c = SurfaceComplex(4, ((0, 1), (0, 1), (2, 3), (2, 3)),
                           ((0, 1), (0, 1), (2, 3), (2, 3)),
                           np.full(4, np.pi / 2))
        problems = validate(c)
        assert any("not connected" in p for p in problems)
        assert any("Euler characteristic" in p for p in problems)  # chi = 4

    def test_edgeless_rejected(self):
        c = SurfaceComplex(1, (), (), np.zeros(0))
        assert validate(c) == ["complex has no edges"]

    @pytest.mark.parametrize("faces, open_faces", [
        # a square with one walk that jumps from ab to the far edge cd
        ({"f0": "ab bc cd da", "f1": "ab cd bc da"}, ["f1"]),
        # a tetrahedron whose four "faces" cover every edge twice
        ({"f0": "ab cd ac", "f1": "ab cd bd", "f2": "ac bc ad",
          "f3": "bd bc ad"}, ["f0", "f1", "f2", "f3"]),
    ], ids=["square", "tetrahedron"])
    def test_open_walks_rejected(self, faces, open_faces):
        # an edge named "ab" runs from vertex a to vertex b
        names = sorted({e for walk in faces.values() for e in walk.split()})
        c = SurfaceComplex(4, [("abcd".index(v), "abcd".index(w)) for v, w in names],
                           [[names.index(e) for e in walk.split()]
                            for walk in faces.values()],
                           np.full(len(names), np.pi / 2), tuple("abcd"),
                           tuple(names), tuple(faces))
        assert validate(c) == [f"face {f} is not a closed walk" for f in open_faces]

    def test_empty_walk_is_not_closed(self, tetra):
        c = SurfaceComplex(4, tetra.edges, tetra.faces + ((),), tetra.phi)
        assert "face f4 is not a closed walk" in validate(c)

    def test_pinched_vertex_rejected(self):
        assert validate(wedge()) == [
            "vertex v0 is not a surface point: its faces form 2 cycles"]

    @pytest.mark.parametrize("make", [
        *family_pool(14), lambda: fixtures.torus_grid(4, 4),
        lambda: fixtures.torus_grid(10, 10), lambda: connected_sum(2),
        lambda: connected_sum(3), lambda: klein_bottle(4, 4), fixtures.bigon,
        lambda: fixtures.bigon(phi=np.array([1e-320, np.pi / 2])), wedge,
        lambda: SurfaceComplex(2, ((0, 1),), ((0, 0),), np.full(1, np.pi / 2)),
    ])
    def test_corner_cycles_match_union_find(self, make):
        # The bigon's vertices have degree 2; the wedge's v0 has 2 cycles;
        # in the one-edge sphere each corner links an edge end to itself.
        c = make()
        entries = [_entries(c.edges, walk) for walk in c.faces]
        cycles = _corner_cycles(c, entries)
        assert cycles == corner_cycles_union_find(c, entries)
        assert sum(cycles) == c.n_vertices + (make is wedge)

    def test_violations_cached_and_empty_for_valid(self, tetra):
        assert tetra.violations == ()
        assert not tetra.violations


class TestCheckInstance:
    """The one input check of every entry point that takes an instance."""

    loopy = SurfaceComplex(2, ((0, 0), (0, 1)), ((0, 1), (0, 1)),
                           np.full(2, 1.0))

    def test_messages(self, tetra):
        with pytest.raises(InputError, match="^invalid complex: "
                           "edge e0 is a loop at vertex v0; "
                           "face f0 is not a closed walk; "
                           "face f1 is not a closed walk$"):
            check_instance(self.loopy)
        with pytest.raises(InputError,
                           match="^prescription length does not match complex$"):
            check_instance(tetra, Prescription(np.ones(3)))
        check_instance(tetra, Prescription(np.ones(4)))

    def test_potential_rejects_an_invalid_complex(self):
        # even where the integration path is empty
        with pytest.raises(InputError, match="^invalid complex"):
            potential(self.loopy, Prescription(np.ones(2)), np.zeros(2))


class TestQueries:
    def test_edge_neighborhood_empty(self, tetra):
        assert edge_neighborhood(tetra, []) == set()

    def test_edge_neighborhood_all(self, tetra):
        assert edge_neighborhood(tetra, range(4)) == set(range(6))

    def test_edge_neighborhood_single(self, tetra):
        assert edge_neighborhood(tetra, [0]) == {0, 1, 2}
        assert len(edge_neighborhood(tetra, [0])) == 3

    def test_edge_neighborhood_unknown_vertex(self, tetra):
        with pytest.raises(InputError):
            edge_neighborhood(tetra, [7])

    def test_edge_neighborhood_negative_vertex(self, tetra):
        with pytest.raises(InputError):
            edge_neighborhood(tetra, [-1])

    def test_edge_neighborhood_fractional_vertex_not_truncated(self, tetra):
        with pytest.raises(TypeError):
            edge_neighborhood(tetra, [1.7])

    def test_edge_neighborhood_string_vertex_not_parsed(self, tetra):
        with pytest.raises(TypeError):
            edge_neighborhood(tetra, ["1"])

    def test_edge_neighborhood_numpy_integers(self, tetra):
        assert edge_neighborhood(tetra, np.arange(2)) \
            == edge_neighborhood(tetra, [0, 1])

    def test_union_compatibility(self, tetra):
        subsets = []
        for k in range(5):
            subsets.extend(frozenset(s) for s in combinations(range(4), k))
        for a in subsets:
            for b in subsets:
                assert (edge_neighborhood(tetra, a) | edge_neighborhood(tetra, b)
                        == edge_neighborhood(tetra, a | b))

    def test_degrees(self, tetra):
        assert all(degrees(tetra)[v] == 3 for v in range(4))
        big = fixtures.bigon()
        assert degrees(big)[0] == degrees(big)[1] == 2

    def test_cross_scale_stays_finite(self):
        # -2 / sin phi overflows below an angle of about 1e-308.
        c = fixtures.bigon(np.array([1e-320, 0.7]))
        with np.errstate(over="raise"):
            scale = c.cross_scale
        assert scale[0] == -np.finfo(float).max
        assert scale[1] == -2.0 / np.sin(0.7)

    def test_parallel_edge_bumps_degree(self, tetra):
        edges = tetra.edges + ((0, 1),)
        faces = tetra.faces  # coverage now wrong, but degrees don't care
        c = SurfaceComplex(4, edges, faces, np.full(7, 1.0))
        assert degrees(c)[0] == degrees(tetra)[0] + 1
        assert degrees(c)[1] == degrees(tetra)[1] + 1
        assert degrees(c)[2] == degrees(tetra)[2]


class TestConstruction:
    def test_parse_builds_the_bigon(self):
        c = parse_instance("[vertices]\na b\n[edges]\ne0 a b pi/2\ne1 a b pi/3\n"
                           "[faces]\nf0 e0 e1\nf1 e0 e1\n").complex
        ref = fixtures.bigon(phi=np.array([np.pi / 2, np.pi / 3]))
        assert c.edges == ref.edges and c.faces == ref.faces
        assert np.all(c.phi == ref.phi)
        assert c.vertex_names == ("a", "b")
        assert validate(c) == []

    def test_duplicate_vertex_name(self):
        with pytest.raises(InputError):
            SurfaceComplex(2, (), (), np.zeros(0), vertex_names=("a", "a"))

    def test_unknown_endpoint(self):
        with pytest.raises(ParseError, match="^line 4: edge endpoint 'c' is not a vertex$"):
            parse_instance("[vertices]\na b\n[edges]\nab a c 1.0\n")

    def test_unknown_face_edge(self):
        with pytest.raises(ParseError,
                           match="^line 6: face walk references unknown edge 'nope'$"):
            parse_instance("[vertices]\na b\n[edges]\nab a b 1.0\n[faces]\nf nope\n")

    def test_phi_writes_blocked(self):
        c = fixtures.tetrahedron()
        with pytest.raises(ValueError):
            c.phi[0] = 1.0
        # The complex keeps a copy: the caller's array stays writable, and
        # a write through it leaves phi, its cached sines and the hash as
        # they were.
        base = np.array([1.0, 1.2, 1.4])
        bigon = SurfaceComplex(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)), base[:2])
        sin_phi, digest = bigon.sin_phi.copy(), hash(bigon)
        base[0] = 0.3
        assert bigon.phi.tolist() == [1.0, 1.2]
        assert np.array_equal(bigon.sin_phi, sin_phi) and sin_phi[0] == np.sin(1.0)
        assert hash(bigon) == digest

    def test_structural_equality(self):
        a = fixtures.tetrahedron()
        b = fixtures.tetrahedron()
        assert a == b and hash(a) == hash(b)
        c = fixtures.tetrahedron(phi=1.0)
        assert a != c
        # -0.0 == 0.0, so the two hash alike and a set holds one of them
        zero = fixtures.bigon(np.array([0.0, 1.0]))
        negative_zero = fixtures.bigon(np.array([-0.0, 1.0]))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert len({zero, negative_zero}) == 1

    def test_equality_with_another_type_is_not_implemented(self):
        a, p = fixtures.tetrahedron(), Prescription(np.ones(4))
        assert a.__eq__(a.edges) is NotImplemented and a != a.edges
        assert p.__eq__(p.lhat) is NotImplemented and p != "lhat"

    @pytest.mark.parametrize("make", [
        lambda t: SurfaceComplex(4, ((0, 1.7), *t.edges[1:]), t.faces, t.phi),
        lambda t: SurfaceComplex(4, (("0", "1"), *t.edges[1:]), t.faces, t.phi),
        lambda t: SurfaceComplex(4, t.edges, ((0.9, 3, 1), *t.faces[1:]), t.phi),
        lambda t: SurfaceComplex(2.5, ((0, 1), (0, 1)), ((0, 1), (0, 1)),
                                 np.ones(2)),
    ], ids=["float-endpoint", "str-endpoint", "float-walk-entry", "float-count"])
    def test_index_that_is_not_an_integer(self, tetra, make):
        # As in edge_neighborhood: 1.7 is not truncated and "1" not parsed.
        with pytest.raises(TypeError):
            make(tetra)

    def test_numpy_integer_indices_are_stored_as_int(self, tetra):
        c = SurfaceComplex(np.int64(4), np.array(tetra.edges, dtype=np.intp),
                           [np.array(w, dtype=np.int64) for w in tetra.faces],
                           tetra.phi)
        assert c == tetra and validate(c) == []
        assert type(c.n_vertices) is int
        assert {type(i) for i in (*sum(c.edges, ()), *sum(c.faces, ()))} == {int}

    def test_prescription_validation(self):
        with pytest.raises(InputError):
            Prescription(np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            Prescription(np.array([1.0, -2.0]))
        with pytest.raises(InputError):
            Prescription(np.array([1.0, np.inf]))
        p = Prescription(np.array([1.0, 2.0]))
        assert len(p) == 2

    def test_prescription_keeps_a_copy(self):
        a = np.array([1.0, 2.0])
        p = Prescription(a)
        a[0] = 3.0
        assert p.lhat.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            p.lhat[0] = 3.0

    @pytest.mark.parametrize("make, message", [
        (lambda: SurfaceComplex(0, (), (), np.zeros(0)), "at least one vertex"),
        (lambda: SurfaceComplex(2, ((0, 1),), (), np.ones(2)),
         "one angle per edge"),
        (lambda: SurfaceComplex(2, ((0, 2),), (), np.ones(1)),
         "edge endpoint out of range"),
        (lambda: SurfaceComplex(2, ((0, 1),), ((0, 1),), np.ones(1)),
         "face walk references unknown edge"),
        (lambda: SurfaceComplex(2, ((0, 1),), (), np.ones(1),
                                vertex_names=("a",)),
         "name lists must match element counts"),
        (lambda: SurfaceComplex(2, ((0, 1),), (), np.ones(1),
                                edge_names=("e0", "e1")),
         "name lists must match element counts"),
        (lambda: Prescription(np.ones((2, 2))), "flat vector"),
    ], ids=["no-vertex", "phi-shape", "endpoint", "walk", "name-count",
            "edge-name-count", "lhat-shape"])
    def test_constructor_rejections(self, make, message):
        with pytest.raises(InputError, match=message):
            make()


def bigon_named(kind, names):
    """The bigon with ``names`` for its vertices, edges or faces."""
    return SurfaceComplex(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)),
                          np.full(2, np.pi / 2), **{f"{kind}_names": names})


class TestNames:
    """A complex's names are unique in each list and each one is a token
    that an instance file reads back as written."""

    @pytest.mark.parametrize("kind", ["vertex", "edge", "face"])
    def test_repeated_name_rejected(self, kind):
        with pytest.raises(InputError, match=f"^duplicate {kind} name 'a'$"):
            bigon_named(kind, ("a", "a"))

    @pytest.mark.parametrize("kind", ["vertex", "edge", "face"])
    @pytest.mark.parametrize("name", [
        "", "a b", "a\tb", "a\u2028b", "a\x1cb", "#", "a#b", "[a", 7, None,
    ], ids=["empty", "space", "tab", "line-separator", "file-separator",
            "hash", "inner-hash", "bracket", "int", "none"])
    def test_name_the_format_cannot_read_back_rejected(self, kind, name):
        with pytest.raises(InputError, match=f"^bad {kind} name "):
            bigon_named(kind, (name, "z"))

    @pytest.mark.parametrize("kind", ["vertex", "edge", "face"])
    def test_a_name_list_is_kept_as_a_tuple(self, kind):
        # A list would compare unequal to the parsed tuple, and could be
        # changed after the checks.
        c = bigon_named(kind, ["a", "b"])
        assert getattr(c, f"{kind}_names") == ("a", "b")
        assert parse_instance(serialize_instance(c)).complex == c

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["", "[a", "a#", "a b", "a\u00a0b", "a\nb", "\u00e9", 3,
                         "a", "b[", "x]"]),
        st.text(max_size=4)), max_size=6).flatmap(
            lambda names: st.sampled_from([names, names + names[:1]])))
    def test_check_names_flags_the_first_bad_name(self, names):
        # The rule word by word, apart from the regex: a nonempty str with
        # no whitespace or '#' that does not start with '['.
        bad = [n for n in names if not (
            isinstance(n, str) and n and not n.startswith("[")
            and not any(ch.isspace() or ch == "#" for ch in n))]
        if not bad:
            check_names("edge", names)
            return
        with pytest.raises(InputError) as info:
            check_names("edge", names)
        assert str(info.value).startswith(f"bad edge name {bad[0]!r}: ")

    @pytest.mark.parametrize("kind", ["vertex", "edge", "face"])
    def test_tokens_accepted(self, kind):
        names = ("a[", "b]-é")
        assert getattr(bigon_named(kind, names), f"{kind}_names") == names
