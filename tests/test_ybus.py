"""Admittance-matrix assembly against hand calculations and an exact oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybuskit import (
    DEFAULT_ZERO_TOL,
    AdmittanceMatrix,
    Branch,
    HypothesisError,
    Network,
    Shunt,
    SizeLimitError,
    StructuralError,
    assemble,
    shunt_vector,
)

from ybuskit import ybus
from ybuskit.ybus import MAX_DENSE_ORDER, SYMMETRY_RTOL, _stamp

from oracles import (
    dense_stamp,
    exact_assemble,
    exact_to_array,
    incidence_assemble,
    loop_stamp,
    random_rational_network,
    reorder,
)


def _draw_net(rng, n, extra_edges, shunt_count):
    nodes, branches, shunts = random_rational_network(
        rng, n, extra_edges=extra_edges, shunt_count=shunt_count)
    return Network(nodes,
                   tuple(Branch(i, j, y) for i, j, y in branches),
                   tuple(Shunt(v, y) for v, y in shunts))


def test_two_node_branch():
    net = Network(2, (Branch(0, 1, 1.0 + 0j),), ())
    y = assemble(net)
    np.testing.assert_array_equal(y.matrix, np.array([[1, -1], [-1, 1]], dtype=complex))
    assert y.node_order == (0, 1)
    assert y.size == 2


def test_shunt_adds_to_diagonal_only():
    net = Network(2, (Branch(0, 1, 1.0),), (Shunt(0, 1j),))
    y = assemble(net)
    np.testing.assert_array_equal(
        y.matrix, np.array([[1 + 1j, -1], [-1, 1]], dtype=complex)
    )


def test_branch_stamp_touches_exactly_four_entries():
    # Compare a 4-node network with and without one extra branch: the
    # difference must be +y on two diagonal entries and -y on the two
    # symmetric off-diagonal entries, zero elsewhere.
    base = Network(4, (Branch(0, 1, 2.0), Branch(1, 2, 3.0), Branch(2, 3, 1.0)), ())
    extra = Network(4, base.branches + (Branch(1, 3, 5.0 - 2.0j),), ())
    delta = assemble(extra).matrix - assemble(base).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[3, 3] = 5.0 - 2.0j
    expected[1, 3] = expected[3, 1] = -(5.0 - 2.0j)
    np.testing.assert_array_equal(delta, expected)


def test_shunt_stamp_touches_one_entry():
    base = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 1.0)), ())
    extra = Network(3, base.branches, (Shunt(2, 0.25 + 0.5j),))
    delta = assemble(extra).matrix - assemble(base).matrix
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 2] = 0.25 + 0.5j
    np.testing.assert_array_equal(delta, expected)


def test_parallel_branches_sum():
    net = Network(2, (Branch(0, 1, 1.0), Branch(0, 1, 2.0), Branch(1, 0, 4.0)), ())
    y = assemble(net).matrix
    np.testing.assert_array_equal(y, np.array([[7, -7], [-7, 7]], dtype=complex))


def test_repeated_shunts_sum():
    net = Network(1, (), (Shunt(0, 1j), Shunt(0, 2j), Shunt(0, -0.5j)))
    np.testing.assert_array_equal(assemble(net).matrix, np.array([[2.5j]]))


@pytest.mark.parametrize("bad", [0.0, 0j, 1e-300])
def test_zero_admittance_branch_refused(bad):
    net = Network(2, (Branch(0, 1, bad),), ())
    with pytest.raises(HypothesisError):
        assemble(net)


def test_refusal_matches_per_element_oracle():
    # zero and near-tolerance branches, refused or kept exactly as stamping one
    # branch at a time did: the tolerances sit on |y| and one ulp either side,
    # where NumPy's complex abs may round differently from Python's abs
    rng = np.random.default_rng(11)
    for z in [0j, -0.0 + 0j, 1e-300j] + list(rng.standard_normal(60) + 1j * rng.standard_normal(60)):
        z = complex(z) * 1e-12
        net = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, z), Branch(0, 2, z)), (Shunt(0, 1.0),))
        m = abs(z)
        for tol in (0.0, m, np.nextafter(m, 0.0), np.nextafter(m, 1.0), 1e-12):
            outcomes = []
            for stamp in (lambda *a: _stamp(*a).matrix, loop_stamp):
                try:
                    outcomes.append(stamp(net, float(tol)).tobytes())
                except HypothesisError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (z, tol)


def test_dense_size_limit_refuses_before_allocating():
    # one node past the limit: stamping would ask for a 4 GiB array
    with pytest.raises(SizeLimitError, match=f"limit of {MAX_DENSE_ORDER} nodes"):
        assemble(Network(MAX_DENSE_ORDER + 1, (Branch(0, 1, 1.0),), ()))


def test_incidence_route_matches_stamping():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        net = _draw_net(rng, n, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        direct = assemble(net).matrix
        triple = incidence_assemble(net)
        # Both routes accumulate the same exact dyadic values, so equality
        # is bitwise, not approximate.
        np.testing.assert_array_equal(direct, triple)


def test_assembly_matches_exact_rational_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        net = _draw_net(rng, n, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        got = assemble(net).matrix
        want = exact_to_array(exact_assemble(net))
        np.testing.assert_array_equal(got, want)


class TestAdmittanceMatrixInvariants:
    def test_matrix_is_read_only(self):
        y = assemble(Network(2, (Branch(0, 1, 1.0),), ()))
        with pytest.raises(ValueError):
            y.matrix[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(StructuralError):
            AdmittanceMatrix(np.zeros((2, 3), dtype=complex), (0, 1))

    def test_rejects_asymmetric(self):
        with pytest.raises(StructuralError, match="symmetric"):
            AdmittanceMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]), (0, 1))

    @pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (-2, -1), (-1, -2)])
    def test_asymmetry_one_ulp_past_the_threshold(self, i, j):
        # the check runs over blocks of rows and finds a pair in the block of
        # its smaller index: the first block for (0, N-1) and (N-1, 0), the
        # last, short block for the other two pairs
        n = 2 * ybus._STRIPE + 44
        m = np.diag(np.full(n, 0.5 + 0j))
        m[5, 5] = 1.0  # max|Y| = 1, so the threshold is SYMMETRY_RTOL itself
        m[i, j] = SYMMETRY_RTOL
        AdmittanceMatrix(m, range(n))
        m[i, j] = np.nextafter(SYMMETRY_RTOL, 1.0)
        with pytest.raises(StructuralError) as err:
            AdmittanceMatrix(m, range(n))
        assert str(err.value) == (
            f"matrix is not complex symmetric: max|Y - Y^T| = {np.abs(m - m.T).max():.3e} "
            f"exceeds 1e-14 * max|Y| = {SYMMETRY_RTOL * np.abs(m).max():.3e}"
        )

    def test_complex_symmetric_is_not_hermitian(self):
        # Equal (not conjugate) off-diagonal entries must be accepted.
        m = np.array([[1j, 2j], [2j, 1j]])
        y = AdmittanceMatrix(m, (0, 1))
        assert y.matrix[0, 1] == y.matrix[1, 0] == 2j

    def test_rejects_node_order_length_mismatch(self):
        with pytest.raises(StructuralError):
            AdmittanceMatrix(np.eye(2, dtype=complex), (0, 1, 2))

    def test_rejects_duplicate_node_order(self):
        with pytest.raises(StructuralError):
            AdmittanceMatrix(np.eye(2, dtype=complex), (0, 0))


def test_shunt_vector_recovers_totals():
    net = Network(
        3,
        (Branch(0, 1, 1.0 - 2.0j), Branch(1, 2, 0.5j)),
        (Shunt(0, 1j), Shunt(2, 3.0), Shunt(0, -0.25)),
    )
    got = shunt_vector(assemble(net))
    np.testing.assert_allclose(got, [1j - 0.25, 0.0, 3.0], atol=1e-15)


def test_shunt_vector_on_shuntless_is_exactly_zero_for_dyadic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = _draw_net(rng, int(rng.integers(2, 9)), 2, 0)
        sums = shunt_vector(assemble(net))
        # Dyadic admittances cancel exactly: +y and -y in the same row.
        np.testing.assert_array_equal(sums, np.zeros(net.node_count, dtype=complex))


class TestReorder:
    def setup_method(self):
        self.net = Network(
            3, (Branch(0, 1, 1.0), Branch(1, 2, 2.0 + 1j)), (Shunt(2, 0.5j),)
        )
        self.y = assemble(self.net)

    def test_identity(self):
        z = reorder(self.y, (0, 1, 2))
        np.testing.assert_array_equal(z.matrix, self.y.matrix)
        assert z.node_order == (0, 1, 2)

    def test_swap(self):
        z = reorder(self.y, (2, 1, 0))
        assert z.node_order == (2, 1, 0)
        # entry (i, j) of the reordered matrix couples perm[i] with perm[j]
        for a in range(3):
            for b in range(3):
                assert z.matrix[a, b] == self.y.matrix[2 - a, 2 - b]

    def test_involution(self):
        z = reorder(reorder(self.y, (2, 0, 1)), (0, 1, 2))
        np.testing.assert_array_equal(z.matrix, self.y.matrix)
        assert z.node_order == (0, 1, 2)

    @pytest.mark.parametrize("perm", [(0, 1), (0, 1, 1), (0, 1, 3)])
    def test_rejects_non_bijections(self, perm):
        with pytest.raises(StructuralError):
            reorder(self.y, perm)


def test_permutation_equivariance_exact():
    # Relabeling the network and assembling equals assembling then
    # reordering, entry for entry.  Stamping order per entry is identical
    # under relabeling, so even accumulation roundoff agrees bitwise.
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        net = _draw_net(rng, n, 2, 2)
        perm = rng.permutation(n)  # perm[old] = new label
        relabeled = Network(
            n,
            tuple(Branch(int(perm[b.from_node]), int(perm[b.to_node]), b.admittance)
                  for b in net.branches),
            tuple(Shunt(int(perm[s.node]), s.admittance) for s in net.shunts),
        )
        y_rel = assemble(relabeled).matrix
        inv = np.argsort(perm)
        y_perm = reorder(assemble(net), tuple(int(v) for v in inv))
        # row k of y_perm refers to old node inv[k], i.e. new label k
        np.testing.assert_array_equal(y_perm.matrix, y_rel)


#: Admittances from 1e-3 to 1e3 in magnitude, of any phase.
ADMITTANCES = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                 allow_nan=False, allow_infinity=False)


@st.composite
def stamped_networks(draw):
    """Networks with parallel branches, exactly cancelling pairs and repeated shunts."""
    n = draw(st.integers(1, 7))
    nodes = st.integers(0, n - 1)
    branches = []
    if n > 1:
        for i, j, y, cancel in draw(st.lists(st.tuples(nodes, nodes, ADMITTANCES, st.booleans()),
                                             max_size=12)):
            if i != j:
                branches.append(Branch(i, j, y))
                if cancel:  # -y on the same pair, in either direction
                    branches.append(Branch(*draw(st.permutations((i, j))), -y))
    shunts = [Shunt(v, y) for v, y in draw(st.lists(st.tuples(nodes, ADMITTANCES), max_size=8))]
    return Network(n, tuple(draw(st.permutations(branches))), tuple(shunts))


@settings(max_examples=300, deadline=None)
@given(stamped_networks())
def test_compressed_rows_match_the_dense_stamp_bit_for_bit(net):
    y = assemble(net)
    dense = dense_stamp(net, DEFAULT_ZERO_TOL)
    assert y.matrix.tobytes() == dense.tobytes()
    assert (y.matrix == y.matrix.T).all()  # exactly, as the constructor trusts
    # canonical rows: ascending distinct columns, and no stored zero
    assert (y.data != 0).all()
    assert y.indices.size == np.count_nonzero(dense)
    for k in range(y.size):
        cols = y.indices[y.indptr[k]:y.indptr[k + 1]]
        assert (np.diff(cols) > 0).all()
        np.testing.assert_array_equal(y.data[y.indptr[k]:y.indptr[k + 1]], dense[k, cols])


def test_exactly_cancelling_branches_store_nothing():
    net = Network(3, (Branch(0, 1, 1.0), Branch(1, 2, 0.5 + 0.25j), Branch(2, 1, -0.5 - 0.25j)),
                  (Shunt(2, 1.0), Shunt(2, -1.0)))
    y = assemble(net)
    # node 2 keeps no entry at all: its branch pair and its shunts cancel
    np.testing.assert_array_equal(y.indptr, [0, 2, 4, 4])
    np.testing.assert_array_equal(y.indices, [0, 1, 0, 1])


class TestStorage:
    def test_matches_the_dense_constructor(self):
        y = assemble(_draw_net(np.random.default_rng(4), 9, 4, 2))
        z = AdmittanceMatrix._adopt(y.indptr, y.indices, y.data, y.node_order)
        assert z.matrix.tobytes() == AdmittanceMatrix(y.matrix, y.node_order).matrix.tobytes()

    def test_arrays_are_taken_over_and_dense_input_copied_unless_read_only(self):
        y = assemble(_draw_net(np.random.default_rng(5), 6, 2, 1))
        data = y.data.copy()
        z = AdmittanceMatrix._adopt(y.indptr, y.indices, data, y.node_order)
        assert z.data is data and not data.flags.writeable
        m = np.array(y.matrix)
        assert AdmittanceMatrix(m, y.node_order).matrix is not m
        m.flags.writeable = False
        assert AdmittanceMatrix(m, y.node_order).matrix is m
