"""The five chain complexes and the algebra differential."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import algebra_for, per_boundary_homology
from ncphom import (ChainAlgebra, CoxeterGroup, GroupCapExceeded,
                    PartitionLattice, build_complex, euler_characteristic,
                    homology_of)
from ncphom.complexes import (_unreduced_complex, build_algebra_complex,
                              fibre_support_is_reflections,
                              group_ring_boundary,
                              group_ring_square_is_zero)
from ncphom.homology import invariant_factors

SMALL = ("A2", "A3", "B2", "I2(5)")


def _column(matrix, col):
    return {r: v for (r, c), v in matrix.entries.items() if c == col}


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("space", ["FP", "FQ0", "FQ", "M", "MW"])
def test_boundary_squares_to_zero(name, space):
    build_complex(algebra_for(name), space).check_square_zero()


def test_unknown_space_is_rejected():
    with pytest.raises(ValueError, match="unknown space"):
        build_complex(algebra_for("A2"), "XX")


def test_quotient_fibre_dimensions_on_a3():
    cx = build_complex(algebra_for("A3"), "FP")
    assert cx.degrees == [1, 2, 3]
    assert [cx.dims[k] for k in cx.degrees] == [1, 5, 5]
    # one-dimensional target: the degree-2 boundary must vanish
    assert not cx.matrices[2].entries


def test_pinned_a3_quotient_fibre_top_boundary():
    """The full degree-3 boundary matrix, column by column."""
    algebra = algebra_for("A3")
    cx = build_complex(algebra, "FP")
    rows = algebra.cycle_basis(2).labels
    cols = algebra.cycle_basis(3).labels
    assert rows == ((1, 0), (2, 0), (3, 1), (4, 0), (5, 3))
    assert cols == ((2, 1, 0), (3, 2, 1), (4, 2, 0), (4, 3, 2), (5, 4, 3))
    expected_columns = {
        (2, 1, 0): {(1, 0): 1, (3, 1): 1, (4, 0): -1},
        (3, 2, 1): {(1, 0): 1, (2, 0): 1, (3, 1): 1, (4, 0): -1, (5, 3): 1},
        (4, 2, 0): {(1, 0): -1, (2, 0): 1, (5, 3): 1},
        (4, 3, 2): {(1, 0): 2, (3, 1): 1, (4, 0): -1},
        (5, 4, 3): {(1, 0): 1},
    }
    for c, label in enumerate(cols):
        got = {rows[r]: v for r, v in _column(cx.matrices[3], c).items()}
        assert got == expected_columns[label], label


@pytest.mark.parametrize("name,expected", [
    ("A2", ["Z", "Z^2"]),
    ("A3", ["Z", "Z^2", "Z^2"]),
    ("B3", ["Z", "Z", "Z^3"]),
    ("I2(9)", ["Z", "Z^8"]),
])
def test_quotient_fibre_homology(name, expected):
    groups = homology_of(build_complex(algebra_for(name), "FP"))
    assert [str(h) for h in groups] == expected


def test_fibre_complexes_split_by_parity():
    algebra = algebra_for("B2")
    full = build_complex(algebra, "FQ")
    half = build_complex(algebra, "FQ0")
    assert full.degrees == half.degrees
    for k in full.degrees:
        assert full.dims[k] == 2 * half.dims[k]


def test_fibre_homology_doubles():
    algebra = algebra_for("A2")
    full = homology_of(build_complex(algebra, "FQ"))
    half = homology_of(build_complex(algebra, "FQ0"))
    assert [str(h) for h in half] == ["Z", "Z^4"]
    assert [h.doubled() for h in half] == full


def test_complement_boundary_in_degree_one():
    """d(w (x) beta_t) = (w t) (x) 1 - w (x) 1 for every reflection."""
    algebra = algebra_for("A2")
    group = algebra.group
    cx = _unreduced_complex(algebra, "M")
    elements = sorted(group.enumerate_elements())
    index = {w: i for i, w in enumerate(elements)}
    width = len(algebra.full_basis(1).labels)
    for wi, w in enumerate(elements):
        for tpos in range(width):
            col = _column(cx.matrices[1], wi * width + tpos)
            moved = index[group.multiply(w, group.reflection(tpos))]
            assert col == {moved: 1, wi: -1}


@pytest.mark.parametrize("name,betti", [
    ("A2", [1, 3, 2]),
    ("A3", [1, 6, 11, 6]),
    ("B3", [1, 9, 23, 15]),
    ("I2(5)", [1, 5, 4]),
    ("I2(6)", [1, 6, 5]),
])
def test_complement_is_torsion_free_with_product_betti(name, betti):
    """Betti numbers multiply out of the exponents, no torsion."""
    groups = homology_of(build_complex(algebra_for(name), "M"))
    assert [h.free_rank for h in groups] == betti
    assert all(not h.torsion for h in groups)


@pytest.mark.parametrize("m,expected", [
    (5, ["Z", "Z", "0"]), (7, ["Z", "Z", "0"]),
    (6, ["Z", "Z^2", "Z"]), (8, ["Z", "Z^2", "Z"]),
])
def test_orbit_complement_dihedral_parity(m, expected):
    groups = homology_of(build_complex(algebra_for(f"I2({m})"), "MW"))
    assert [str(h) for h in groups] == expected


PARITY_SCRIPT = """\
import sys
import ncphom.complexes as cx
from ncphom import ChainAlgebra, CoxeterGroup, PartitionLattice
original = cx.group_ring_boundary
def with_identity_term(algebra, space, k):
    out = dict(original(algebra, space, k))
    out[0, 0, -1] = out.get((0, 0, -1), 0) + 1
    return out
cx.group_ring_boundary = with_identity_term
algebra = ChainAlgebra(PartitionLattice(CoxeterGroup.from_name("A2")))
print("optimize", sys.flags.optimize)
try:
    cx._unreduced_complex(algebra, "FQ0")
except RuntimeError as err:
    print("RuntimeError", err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_parity_half_rejects_an_even_element(flags):
    """An FQ0 boundary term whose element is even would send the parity
    half of one degree outside the parity half below; the tensoring loop
    raises RuntimeError, with and without ``python -O``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", PARITY_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"optimize {len(flags)}"
    assert lines[1].startswith("RuntimeError FQ0 of A2: a degree-2 "
                               "boundary entry has an element of parity 0")


def test_group_cap_stops_enumeration():
    # |W(E7)| = 2903040 is over the cap, so nothing is enumerated.
    with pytest.raises(GroupCapExceeded, match="2903040"):
        CoxeterGroup.from_name("E7").enumerate_elements()


def test_tensor_size_cap_refuses_before_allocating(monkeypatch):
    """A boundary of more tensored entries than the cap is refused with
    a group-cap error; a boundary at the cap, and the trivial module,
    are not."""
    import ncphom.complexes as complexes

    algebra = algebra_for("A3")
    largest = max(len(m.entries)
                  for m in build_complex(algebra, "FQ0").matrices.values())
    monkeypatch.setattr(complexes, "TENSOR_ENTRY_CAP", largest)
    build_complex(algebra, "FQ0")
    monkeypatch.setattr(complexes, "TENSOR_ENTRY_CAP", largest - 1)
    with pytest.raises(complexes.TensorSizeExceeded) as err:
        build_complex(algebra, "FQ0")
    assert isinstance(err.value, GroupCapExceeded)
    assert f"over the cap {largest - 1}" in str(err.value)
    monkeypatch.setattr(complexes, "TENSOR_ENTRY_CAP", 0)
    build_complex(algebra, "FP")
    build_complex(algebra, "MW")


def test_algebra_complex_is_exact_with_pinned_ranks():
    algebra = algebra_for("A3")
    cx = build_algebra_complex(algebra)
    cx.check_square_zero()
    assert [cx.dims[k] for k in cx.degrees] == [1, 6, 10, 5]
    assert [invariant_factors(cx.matrices[k])[1] for k in (1, 2, 3)] == [
        1, 5, 5]
    assert all(h.is_trivial for h in homology_of(cx))
    ones = cx.matrices[1]
    assert all(_column(ones, c) == {0: 1} for c in range(cx.dims[1]))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_complements_never_expand_the_top_full_basis(name):
    """MW and M read the degree-n full basis by its labels only, and the
    algebra complex expands no basis at all."""
    algebra = ChainAlgebra(PartitionLattice(CoxeterGroup.from_name(name)))
    asked = []
    for method in ("full_basis", "cycle_basis"):
        def record(k, original=getattr(algebra, method)):
            asked.append(k)
            return original(k)
        setattr(algebra, method, record)
    build_algebra_complex(algebra)
    assert asked == []
    for space in ("MW", "M"):
        build_complex(algebra, space)
        _unreduced_complex(algebra, space)
    assert asked and algebra.group.rank not in asked


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "D4", "F4", "H3", "I2(5)", "I2(8)"])
def test_algebra_complex_matches_interval_cycle_coordinates(name):
    """Each basis chain goes to the coordinates of its interval cycle in
    the full basis one degree down, solved here column by column."""
    algebra = algebra_for(name)
    cx = build_algebra_complex(algebra)
    degrees = list(range(algebra.group.rank + 1))
    assert cx.degrees == degrees
    for k in degrees:
        assert cx.labels[k] == algebra.full_basis(k).labels
        assert cx.dims[k] == len(cx.labels[k])
    for k in degrees[1:]:
        below = algebra.full_basis(k - 1)
        expected = {}
        for col, label in enumerate(cx.labels[k]):
            for row, c in algebra.coords_in_basis(
                    algebra.interval_cycle(label), below).items():
                expected[row, col] = c
        matrix = cx.matrices[k]
        assert (matrix.rows, matrix.cols) == (cx.dims[k - 1], cx.dims[k])
        assert matrix.entries == expected


def test_group_ring_boundary_matches_materialized_fibre():
    """Terms of the symbolic boundary, keyed by basis positions and the
    reflection position t (-1 for the identity) and specialized at each
    group element, reproduce the materialized FQ and M matrices, with the
    identity terms of M in their column's own row block; for FP and MW
    each matrix entry is the sum of its terms."""
    algebra = algebra_for("A3")
    group = algebra.group
    elements = sorted(group.enumerate_elements())
    index = {w: i for i, w in enumerate(elements)}
    identity_terms = 0
    for space, basis in (("FQ", algebra.cycle_basis),
                         ("M", algebra.full_basis)):
        cx = _unreduced_complex(algebra, space)
        width = {k: len(basis(k).labels) for k in cx.degrees}
        for k in cx.degrees[1:]:
            entries = cx.matrices[k].entries
            rebuilt = {}
            for (r, c, t), coeff in group_ring_boundary(algebra, space,
                                                        k).items():
                assert coeff and -1 <= t < group.num_reflections
                elem = group.identity if t == -1 else group.reflection(t)
                for wi, w in enumerate(elements):
                    col = wi * width[k] + c
                    target = index[group.multiply(w, elem)]
                    key = (target * width[k - 1] + r, col)
                    rebuilt[key] = rebuilt.get(key, 0) + coeff
                    if t == -1:
                        identity_terms += 1
                        own = (wi * width[k - 1] + r, col)
                        assert entries[own] == coeff
            assert {key: v for key, v in rebuilt.items() if v} == entries
    assert identity_terms
    for space in ("FP", "MW"):
        cx = _unreduced_complex(algebra, space)
        for k in cx.degrees[1:]:
            summed = {}
            for (r, c, _), coeff in group_ring_boundary(algebra, space,
                                                        k).items():
                summed[r, c] = summed.get((r, c), 0) + coeff
            assert {key: v for key, v in summed.items() if v} == (
                cx.matrices[k].entries)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3", "F4"])
@pytest.mark.parametrize("space", ["FP", "M"])
def test_group_ring_boundary_writes_each_term_once(name, space):
    """Every basis label has distinct entries, so no two deletions meet
    at one (row, col, t): the boundary has one term per coordinate of a
    conjugating deletion, plus k plain deletions per full-basis column."""
    algebra = algebra_for(name)
    fibre = space == "FP"
    coords_of = algebra.cycle_coords if fibre else algebra.chain_coords
    for k in range(int(fibre), algebra.group.rank + 1):
        labels = algebra.labels(k, fibre)
        assert all(len(set(label)) == len(label) == k for label in labels)
        if k == int(fibre):
            continue
        terms = sum(len(coords_of(algebra.deleted_conjugate(label, i)))
                    for label in labels for i in range(k))
        plain = 0 if fibre else k * len(labels)
        assert len(group_ring_boundary(algebra, space, k)) == terms + plain


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_group_ring_squares_vanish(name):
    algebra = algebra_for(name)
    assert group_ring_square_is_zero(algebra, "FQ")
    assert group_ring_square_is_zero(algebra, "M")


def test_fibre_boundary_support_is_reflections():
    assert fibre_support_is_reflections(algebra_for("A3"))
    assert fibre_support_is_reflections(algebra_for("B3"))


# SHA-256 of (name, degrees, dims, labels, sorted entries) per unreduced
# complex, as built by the per-space assemblers that preceded the single
# group-ring assembly; any change to a basis, a label or an entry changes
# the digest.  The F4 and H4 MW digests were taken later, from the
# group-ring assembly with every coordinate solved by the peel.  FP and
# MW have the trivial module, so ``build_complex`` returns the unreduced
# complex for them and must match too.
PINNED_DIGESTS = [
    ("A2", "FP",
     "4c05211bfbee5aff5ee9b0e1c8ec62ba3118408aac227b0595c4033be6c71fb8"),
    ("A2", "FQ0",
     "1a6faeec833b6201b8684a2dbeab8163bfc8cd6608559faab0c66012433537fe"),
    ("A2", "FQ",
     "06cf4950d35b9df12903c2bd53b00945c4f022089fe3006332d22e94e9a84feb"),
    ("A2", "M",
     "a0d1711d4e8ad5e346af2cf1676dbd52a8e51993e8d33edb287c7767f35ac3d8"),
    ("A2", "MW",
     "0a5f9896a60c39ada3cb52b8ca049a57eb45a0f32459cd88b3d812cbe55795da"),
    ("A3", "FP",
     "5930e6d521ba991b9a985a3a58378dc46b71d59fd1157a619e5dfd1702d5344c"),
    ("A3", "FQ0",
     "94bab4ad02cfea4349b364dfeef5249580de90e9992462db6060c72cb70de747"),
    ("A3", "FQ",
     "d06c181005e16c7d96fee86e7f48e0716677efe73ed63af82810591f03631fb3"),
    ("A3", "M",
     "d4beea899c56cc4770276bd93422180b409dec3513529943a1899214259958c2"),
    ("A3", "MW",
     "512a9b2641fc7fb8a6c7540c84a8925396b63af9d239b2d106c6e1f8a80f38c1"),
    ("B2", "FP",
     "fcb2dcb456d87a1907b91d22bbd2e1fac84b727a53198846be6ec2636c8840b0"),
    ("B2", "FQ0",
     "cd9b86ce61410450401e384256f18467c4aeba19f7a85f1ccc731b30a16b4077"),
    ("B2", "FQ",
     "27cdeed8f3c3308cc6ec347e38ea7bb660d6f649fb81a8a39a63538637d601c5"),
    ("B2", "M",
     "83219b21cbb7242066c28db19d14d784b04f1cbbd69cfc3ea1c7851013c9ed6d"),
    ("B2", "MW",
     "e02a05b919398212ad3bc9d55cd99da74d40bd86e7fe80ae58e7c473de3aaa9a"),
    ("B3", "FP",
     "acf13e79cacfef8a625b78fb6568a589218c957bcab3ffc16a2e7e6b53169337"),
    ("B3", "FQ0",
     "70221a0a6f4f1c94bcb7e078cda116652a4b9b87ddfdb2bca6fda471d856f9b9"),
    ("B3", "FQ",
     "5134d36f8637c6aa56fe31707805381595cf1eab6ed7e35269cc0985a32dc0e2"),
    ("B3", "M",
     "96bc28c919315ac45113c96626691baa7ccea7f5f9d7349bc3f444a21fd2f5ae"),
    ("B3", "MW",
     "668817598a5fc78d88ec6b5b66f461c5862cb31c6c7c7bb4e1ed9a829264b284"),
    ("I2(5)", "FP",
     "60e791bf165dd36d4e94008556c7fa3a139116501ef36cbec01d8414be8318ef"),
    ("I2(5)", "FQ0",
     "5fae46a75a2eaaa20110c7e9650b1348f363988a07399629711df46f17b117d5"),
    ("I2(5)", "FQ",
     "18c1fd61061e7212832d96ebb470cba8e95fb3db234982b31a39b3c6c34096bc"),
    ("I2(5)", "M",
     "72a1f19c96cb2ad23e16c7e67bca7a2e511aa1b4d21a025459760eef44b028ac"),
    ("I2(5)", "MW",
     "622d01abfacf1bb122258145fe78c5f84825df79579a50bfe0390fbbad746ff1"),
    ("I2(6)", "FP",
     "f19944aa35037e43992066149e61246561baa0867aa79f412ce18e260898ac61"),
    ("I2(6)", "FQ0",
     "2c4876e4cb93a9ebb8a8f57fe257d42e8455a675b8353e0f03d7ae6d5e4870a0"),
    ("I2(6)", "FQ",
     "62625ed02420be6a614a85c1a89ef2932123bcdca576b82abe7a02ca3562d788"),
    ("I2(6)", "M",
     "908df2f5eed54c702d9983837f968cfb993ca5dca53291f74fd476ed34ea85e0"),
    ("I2(6)", "MW",
     "3bb5f2e1bb2e8818919c3b67ac1e94046e18cb26146a29192f1444709bcd9546"),
    ("D4", "FP",
     "a6160945b8ecaa9110b42206255c1ec8183c22c64fc569ff1c91c9bafd24d0a5"),
    ("D4", "FQ0",
     "b49de3882fbb46d67b817dfb3b3d63f9a865bdc361549edecc038860fa707edd"),
    ("D4", "MW",
     "c9d4f93db222587b38feced63702115f35e492ccc8af799eebc02fa4887bf724"),
    ("A4", "FP",
     "35baf67a66c713443a0668cac0edac4818befd39b0dc3a1ddef294a101c52bb6"),
    ("A4", "FQ0",
     "b0bdf7070a825c46c3acebc7115a936686984deda10d4d1a8de82f2a341f0bfd"),
    ("A4", "MW",
     "655670664dff47f9f54be23dfc33efba96008d0dc74a15eb0dcdcb26862e021b"),
    ("H3", "FP",
     "6fa6af874c3ac989ee0d885e107aa0a109a36eecce4afcd42f05bc9c44b18805"),
    ("H3", "FQ0",
     "e61d9adecd65e1c2cad073367bda97eb8bd37e9c3e635af7efdd1e9bb5c23b6e"),
    ("H3", "MW",
     "984235ec7fe7d9945f24f91ec299dad68f503b53f16300f5301914aeebff1a2d"),
    ("F4", "MW",
     "28965432d3b032d357600d51b1e9ef1b0d944bc0c7cea73f5f95cc6e64518b4e"),
    ("H4", "MW",
     "0060c3ec86d6c995e431d77fa7b4122c50472d3a3212d8fae3307db46695f9f8"),
]


def _complex_digest(cx):
    payload = (cx.name, tuple(cx.degrees),
               tuple((k, cx.dims[k]) for k in cx.degrees),
               tuple((k, cx.labels[k]) for k in cx.degrees),
               tuple((k, tuple(sorted(cx.matrices[k].entries.items())))
                     for k in cx.degrees[1:]))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize("name,space,digest", PINNED_DIGESTS)
def test_complex_matches_pinned_digest(name, space, digest):
    algebra = algebra_for(name)
    assert _complex_digest(_unreduced_complex(algebra, space)) == digest
    if space in ("FP", "MW"):
        assert _complex_digest(build_complex(algebra, space)) == digest


# The reduced complexes as the reduction built them when it multiplied
# permutation tuples; the position tables must give them entry for entry.
REDUCED_DIGESTS = [
    ("A3", "FQ0",
     "b706e66f1d489cd802fdb868a87e99633887250983efcc6bc9cc37968612e92a"),
    ("A3", "M",
     "2ade9a0d8094ab02bc60fdd8b7f76f8f735e856a049f756cd8349abd6ad2ab35"),
    ("B3", "FQ",
     "8302711b39439d61cd7228b4c7f720fc2aed24754dee018bc2f58eb97e826882"),
    ("B3", "M",
     "6e8c38a514a0b2ad03a447d0ba0dfe3b0ac44a1f658ae3118633f631fc0eea24"),
    ("I2(5)", "FQ",
     "18c1fd61061e7212832d96ebb470cba8e95fb3db234982b31a39b3c6c34096bc"),
    ("A4", "FQ0",
     "f78c4fc50ff432220d1028bd3535888d23ca1168a7bf554558c334abde0a84ad"),
    ("D4", "FQ0",
     "7da5fc83afed1081fc2b939b42e821108d390beddefe36ee2452a3a4827e0eaf"),
    ("H3", "FQ0",
     "7941a381426e03a6c0d753c3c7ae881194ce23050541ee0db1c393989b837b49"),
]


@pytest.mark.parametrize("name,space,digest", REDUCED_DIGESTS)
def test_reduced_complex_matches_pinned_digest(name, space, digest):
    assert _complex_digest(build_complex(algebra_for(name), space)) == digest


REDUCED_TABLES = [(name, space)
                  for name in ("A2", "A3", "B2", "B3", "D3", "I2(5)", "I2(6)")
                  for space in ("FQ", "FQ0", "M")]
REDUCED_TABLES += [("A4", "FQ0"), ("D4", "FQ0"), ("H3", "FQ0")]


@pytest.mark.parametrize("name,space", REDUCED_TABLES)
def test_reduced_complex_matches_unreduced(name, space):
    """The complex reduced over the group ring squares to zero and has the
    homology and Euler characteristic of the complex with every basis
    chain kept."""
    algebra = algebra_for(name)
    reduced = build_complex(algebra, space)
    reduced.check_square_zero()
    full = _unreduced_complex(algebra, space)
    assert homology_of(reduced) == homology_of(full)
    assert euler_characteristic(reduced) == euler_characteristic(full)


# Every complex above, reduced and unreduced.
DIFFERENTIAL_TABLES = sorted(
    {(name, space) for name, space, _ in PINNED_DIGESTS} | set(REDUCED_TABLES))


@pytest.mark.parametrize("name,space", DIFFERENTIAL_TABLES)
def test_one_pass_homology_matches_each_boundary_on_its_own(name, space):
    """``homology_of`` agrees with the Smith form of every boundary taken
    on its own, every row kept, on the complexes with and without the
    reduction over the group ring."""
    algebra = algebra_for(name)
    for cx in (_unreduced_complex(algebra, space),
               build_complex(algebra, space)):
        assert homology_of(cx) == per_boundary_homology(cx)


# The group-tensored tables of the benchmark's workloads (``all-spaces``,
# then ``verify-batch``), and H3 FQ0.
UNIT_PIVOT_TABLES = (
    [(name, space) for name in ("A3", "B3") for space in ("FQ0", "FQ", "M")]
    + [("H3", "FQ0"), ("A2", "FQ0"), ("A2", "FQ"), ("I2(5)", "FQ")]
    + [(f"I2({m})", "FQ0") for m in range(3, 11)])


@pytest.mark.parametrize("name,space", UNIT_PIVOT_TABLES)
def test_group_tensored_tables_finish_on_unit_pivots(monkeypatch, name,
                                                     space):
    """These reduced tables take only unit pivots along ``homology_of``'s
    one-pass route: every boundary's ``unit_columns`` has ``rank``
    entries, so the least-entry loop of the Smith form never runs on
    them.  A4 FQ0, A4 FQ and D4 FQ0 fail this."""
    import ncphom.homology as homology

    forms = []

    def recording(matrix):
        forms.append(invariant_factors(matrix))
        return forms[-1]
    monkeypatch.setattr(homology, "invariant_factors", recording)
    homology_of(build_complex(algebra_for(name), space))
    assert forms
    assert [len(smith.unit_columns) for smith in forms] == [
        rank for _, rank in forms]


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "D3", "I2(5)",
                                  "I2(6)"])
def test_reduced_fibre_dims_double(name):
    """FQ and FQ0 share one group-ring boundary and so one reduction;
    each surviving basis chain has |W| copies in FQ and |W|/2 in FQ0."""
    algebra = algebra_for(name)
    full = build_complex(algebra, "FQ")
    half = build_complex(algebra, "FQ0")
    assert full.degrees == half.degrees
    assert [full.dims[k] for k in full.degrees] == [
        2 * half.dims[k] for k in half.degrees]
