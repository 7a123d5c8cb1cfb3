import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhdimer import lapack, spectral
from bhdimer.cli import main
from bhdimer.model import CouplingConfig, TridiagonalHamiltonian, build_hamiltonian
from bhdimer.pipeline import ScenarioSpec, sweep
from bhdimer.observables import (
    compute_series,
    entanglement_entropy,
    expectation_imbalance,
    variance_imbalance,
)
from bhdimer.spectral import (
    Basis,
    ConvergenceError,
    SpectralDecomposition,
    StateVector,
    eigendecompose,
    evolve,
    evolve_series,
)
from bhdimer.states import fock, parse_state

from oracles import probabilities, propagate_dense, quadratic_form


def decompose(n, k=0.0, dmu=0.0, e_j=0.0):
    h = build_hamiltonian(CouplingConfig(n, k=k, delta_mu=dmu, e_j=e_j))
    return h, eigendecompose(h)


def orthonormality_deviation(v):
    return np.abs(v.T @ v - np.eye(v.shape[0])).max()


def max_residual(h, decomp, chunk=256):
    # Column chunks keep the temporaries small at large N.
    worst, eigenvectors = 0.0, decomp.eigenvectors
    for j in range(0, decomp.dim, chunk):
        v = eigenvectors[:, j : j + chunk]
        hv = h.diagonal[:, None] * v
        if h.offdiagonal.size:
            hv[:-1] += h.offdiagonal[:, None] * v[1:]
            hv[1:] += h.offdiagonal[:, None] * v[:-1]
        hv -= decomp.eigenvalues[None, j : j + chunk] * v
        worst = max(worst, np.linalg.norm(hv, axis=0).max())
    return worst


def parity_labels(decomp):
    """(sector, eigenvalues, vectors unfolded to Fock rows) of each block;
    None for a decomposition held as one Fock block."""
    if decomp.blocks[0][0].sector is None:
        return None
    return [(basis.sector, lam, basis.unfold(v)) for basis, lam, v in decomp.blocks]


def _eigh_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _assert_failure_diagnosed(capsys):
    h = build_hamiltonian(CouplingConfig(12, k=1.0, e_j=1.0))
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigendecompose(h)
    rc = main(["--n", "12", "--ratio", "1", "--t-max", "5", "--steps", "100", "--window", "21"])
    assert rc == 1
    assert "solver failure" in capsys.readouterr().err


needs_dstevd = pytest.mark.skipif(
    lapack.dstevd_symbol() is None, reason="numpy's OpenBLAS exports no scipy_LAPACKE_dstevd64_"
)


def assert_columns_up_to_sign(v, expected, atol):
    """Each column of v is the same column of expected or its negative:
    eigenvectors keep the signs LAPACK gives them."""
    expected = np.asarray(expected, dtype=np.float64)
    signs = np.sign(np.sum(v * expected, axis=0))
    np.testing.assert_allclose(v * signs, expected, atol=atol)


@pytest.mark.parametrize("coefficients", [[], [[1.0]]], ids=["empty", "2-d"])
def test_state_vector_needs_a_nonempty_1d_sequence(coefficients):
    with pytest.raises(ValueError, match="^coefficients must be a nonempty 1-d sequence$"):
        StateVector(coefficients)


@pytest.mark.parametrize(
    "coefficients", [[math.nan] + [0.0] * 10, [math.inf, 0.0], [complex(0.0, math.nan), 1.0]],
    ids=["nan", "inf", "complex-nan"],
)
def test_state_vector_needs_finite_coefficients(coefficients):
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        StateVector(coefficients)


class TestEigendecompose:
    def test_two_level_analytic(self):
        # k=0.8 at N=1 gives [[0.1, -0.5], [-0.5, 0.1]].
        _, d = decompose(1, k=0.8, e_j=1.0)
        np.testing.assert_allclose(d.eigenvalues, [-0.4, 0.6], atol=1e-12)
        s = math.sqrt(0.5)
        assert_columns_up_to_sign(d.eigenvectors, [[s, s], [s, -s]], atol=1e-12)

    def test_three_level_analytic(self):
        _, d = decompose(2, k=8.0, e_j=2.0)
        expected = [2.0 - 2.0 * math.sqrt(2.0), 4.0, 2.0 + 2.0 * math.sqrt(2.0)]
        np.testing.assert_allclose(d.eigenvalues, expected, atol=1e-12)

    def test_diagonal_matrix_sorted_with_permuted_identity(self):
        h, d = decompose(4, k=1.0, dmu=0.25, e_j=0.0)
        np.testing.assert_array_equal(d.eigenvalues, np.sort(h.diagonal))
        # Each column is +-e_i, every i once.
        assert set(map(tuple, np.abs(d.eigenvectors).T.tolist())) == {
            tuple(row) for row in np.eye(5).tolist()
        }

    def test_single_state_system(self):
        h, d = decompose(0, k=2.0, dmu=1.0)
        np.testing.assert_array_equal(d.eigenvalues, h.diagonal)
        np.testing.assert_array_equal(d.eigenvectors, [[1.0]])

    def test_deterministic_bitwise(self):
        _, d1 = decompose(60, k=1.3, dmu=0.2, e_j=2.1)
        _, d2 = decompose(60, k=1.3, dmu=0.2, e_j=2.1)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    @pytest.mark.parametrize("dmu", [0.0, 0.2])  # parity blocks, whole matrix
    def test_result_is_read_only(self, dmu):
        _, d = decompose(8, k=1.0, dmu=dmu, e_j=1.0)
        assert not d.eigenvalues.flags.writeable
        assert not d.eigenvectors.flags.writeable
        for basis, lam, vectors in d.blocks:
            assert basis.sector in ((None,) if dmu else ("even", "odd"))
            assert not lam.flags.writeable and not vectors.flags.writeable

    def test_eigenvalues_sorted(self):
        _, d = decompose(80, k=0.7, dmu=-0.4, e_j=1.9)
        assert np.all(np.diff(d.eigenvalues) >= 0.0)

    def test_lapack_failure_is_diagnosed(self, monkeypatch, capsys):
        # Fail whichever driver is active: dstevd reports info > 0, eigh raises.
        if lapack.dstevd_symbol() is None:
            monkeypatch.setattr(spectral, "eigh", _eigh_fails)
        else:
            monkeypatch.setattr(lapack, "dstevd_symbol", lambda: lambda *args: 1)
        _assert_failure_diagnosed(capsys)

    def test_eigh_fallback_failure_is_diagnosed(self, monkeypatch, capsys):
        monkeypatch.setattr(lapack, "dstevd_symbol", lambda: None)
        monkeypatch.setattr(spectral, "eigh", _eigh_fails)
        _assert_failure_diagnosed(capsys)

    @needs_dstevd
    def test_shapes_are_checked_before_lapack(self):
        with pytest.raises(RuntimeError, match=r"diagonal \(3,\) and off-diagonal \(3,\)"):
            lapack.dstevd(np.zeros(3), np.zeros(3))

    @needs_dstevd
    def test_illegal_argument_is_a_program_fault(self, monkeypatch):
        monkeypatch.setattr(lapack, "dstevd_symbol", lambda: lambda *args: -3)
        with pytest.raises(RuntimeError, match="info = -3") as exc:
            decompose(12, k=1.0, e_j=1.0)
        assert not isinstance(exc.value, ConvergenceError)
        # Not a cell error: the sweep itself fails.
        base = ScenarioSpec(CouplingConfig(12, k=1.0, e_j=1.0), "cat", steps=100)
        with pytest.raises(RuntimeError, match="info = -3"):
            sweep(base, ["1", "2"], ["cat"])

    @given(
        n=st.integers(1, 60),
        k=st.floats(-5, 5),
        dmu=st.floats(-2, 2),
        e_j=st.floats(-5, 5),
    )
    @settings(max_examples=30)
    def test_orthonormality_and_residual(self, n, k, dmu, e_j):
        h, d = decompose(n, k=k, dmu=dmu, e_j=e_j)
        assert orthonormality_deviation(d.eigenvectors) <= 1e-12
        lam_max = max(1.0, np.abs(d.eigenvalues).max())
        assert max_residual(h, d) <= 1e-11 * lam_max

    def test_agrees_with_lapack(self):
        h, d = decompose(150, k=2.4, dmu=0.3, e_j=1.1)
        reference = np.linalg.eigvalsh(h.to_dense())
        scale = max(1.0, np.abs(reference).max())
        np.testing.assert_allclose(d.eigenvalues, reference, atol=1e-12 * scale)


def mixed_sign_mirror():
    """Palindromic once the couplings are made -|e|, but the +-1 similarity
    flips row 0 and not row 3, so no column keeps exact parity."""
    return TridiagonalHamiltonian(np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, -1.0, -1.0]))


def _bit_cases():
    for n in (0, 1, 2, 3, 61, 201, 400):
        for dmu in (0.0, 0.1):
            for e_j in (2.0, -2.0):
                h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=dmu, e_j=e_j))
                yield pytest.param(h, id=f"N{n}-dmu{dmu}-ej{e_j}")
    yield pytest.param(mixed_sign_mirror(), id="mixed-sign-mirror")


@needs_dstevd
@pytest.mark.parametrize("h", _bit_cases())
def test_dstevd_matches_the_eigh_fallback_bitwise(h, monkeypatch):
    fast = eigendecompose(h)
    monkeypatch.setattr(lapack, "dstevd_symbol", lambda: None)
    dense = eigendecompose(h)
    assert np.array_equal(fast.eigenvalues, dense.eigenvalues)
    assert np.array_equal(fast.eigenvectors, dense.eigenvectors)
    for (b1, lam1, v1), (b2, lam2, v2) in zip(fast.blocks, dense.blocks, strict=True):
        assert b1.sector == b2.sector and np.array_equal(b1.rows, b2.rows)
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)


needs_thread_pin = pytest.mark.skipif(
    lapack._library()[1] is None,
    reason="numpy's OpenBLAS exports no openblas_set_num_threads_local",
)

# sha256 of a biased N = 1000 decomposition (the whole matrix's dstevd) and
# of the CSV series it gives.
_THREAD_PROBE = """
import hashlib, sys
from pathlib import Path
from bhdimer import CouplingConfig, ScenarioSpec, eigendecompose, run_scenario
from bhdimer.model import build_hamiltonian
config = CouplingConfig(1000, k=1.0, delta_mu=0.1, e_j=1e6)
d = eigendecompose(build_hamiltonian(config))
out = Path(sys.argv[1])
run_scenario(ScenarioSpec(config, "fock:1000,0", t_max=30.0, steps=2000, out=out), decomposition=d)
for data in (d.eigenvalues.tobytes() + d.eigenvectors.tobytes(), out.read_bytes()):
    print(hashlib.sha256(data).hexdigest())
"""


@needs_dstevd
@needs_thread_pin
def test_output_bits_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(lapack.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(tmp_path / f"{threads}.csv")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


@needs_dstevd
@needs_thread_pin
def test_overlapping_dstevd_calls_restore_the_thread_count():
    setter = lapack._library()[1]  # returns the count it replaces
    h = build_hamiltonian(CouplingConfig(300, k=1.0, delta_mu=0.1, e_j=1.0))
    want = lapack.dstevd(h.diagonal, h.offdiagonal)
    before, interval = setter(2), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: lapack.dstevd(h.diagonal, h.offdiagonal), range(24)))
    finally:
        sys.setswitchinterval(interval)
        restored = setter(before)
    assert restored == 2
    for lam, v in got:
        assert np.array_equal(lam, want[0]) and np.array_equal(v, want[1])


class TestParityLabels:
    """The blocks' Basis.sector labels describe the vectors as returned."""

    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("e_j", [3.0, -3.0])  # odd N at e_j < 0 swaps the blocks' labels
    def test_labels_match_the_returned_columns(self, n, e_j):
        h, d = decompose(n, k=1.0, e_j=e_j)
        blocks = parity_labels(d)
        assert [sector for sector, _, _ in blocks] == ["even", "odd"]
        assert sum(lam.size for _, lam, _ in blocks) == n + 1
        scale = np.abs(d.eigenvalues).max()
        for sector, lam, v in blocks:
            assert lam.size > 0 and v.shape == (n + 1, lam.size)
            assert np.array_equal(v[::-1], v if sector == "even" else -v)
            # A wrong label would unfold the vectors with the wrong sign.
            np.testing.assert_allclose(h.to_dense() @ v, v * lam, rtol=0, atol=1e-12 * scale)

    def test_odd_n_at_negative_tunneling_swaps_the_labels(self):
        _, plus = decompose(41, k=1.0, e_j=3.0)
        _, minus = decompose(41, k=1.0, e_j=-3.0)
        # Both solve the same sector blocks; minus labels them the other way.
        for (s1, lam1, v1), (s2, lam2, v2) in zip(parity_labels(plus), parity_labels(minus)[::-1]):
            assert {s1, s2} == {"even", "odd"}
            assert np.array_equal(lam1, lam2) and np.array_equal(np.abs(v1), np.abs(v2))
            assert np.array_equal(v1[::-1], v1 if s1 == "even" else -v1)
            assert np.array_equal(v2[::-1], v2 if s2 == "even" else -v2)

    @pytest.mark.parametrize("n, e_j", [(40, 0.0), (41, 0.0), (41, -0.1)])
    def test_views_put_the_even_vector_first_on_ties(self, n, e_j):
        # At e_j = 0 every level but the centre one is degenerate across the
        # sectors. Odd N at e_j < 0 swaps the labels of the solved blocks, and
        # its most localized doublets still tie exactly.
        _, d = decompose(n, k=1.0, e_j=e_j)
        lam, v = d.eigenvalues, d.eigenvectors
        assert np.all(np.diff(lam) >= 0.0)
        tied = np.flatnonzero(lam[1:] == lam[:-1])
        if e_j == 0.0:
            assert tied.size == (n + 1) // 2
        assert tied.size > 0
        for j in tied:
            assert np.array_equal(v[::-1, j], v[:, j])
            assert np.array_equal(v[::-1, j + 1], -v[:, j + 1])

    def test_no_labels_with_bias(self):
        assert parity_labels(decompose(40, k=1.0, dmu=0.3, e_j=3.0)[1]) is None

    def test_no_labels_for_mixed_sign_mirror_couplings(self):
        d = eigendecompose(mixed_sign_mirror())
        assert parity_labels(d) is None
        # The columns really lack parity: the labels could not be right.
        v = d.eigenvectors
        assert not all(
            np.array_equal(v[::-1, j], v[:, j]) or np.array_equal(v[::-1, j], -v[:, j])
            for j in range(4)
        )

    def test_labels_are_validated(self):
        fock_rows = Basis(2, np.arange(2))
        even, odd = Basis(2, np.arange(1), "even"), Basis(2, np.arange(1), "odd")
        one = np.ones((1, 1))
        d = SpectralDecomposition([(even, [1.0], one), (odd, [0.0], one)])
        assert d.dim == 2 and np.array_equal(d.eigenvalues, [0.0, 1.0])
        s = math.sqrt(0.5)
        np.testing.assert_allclose(d.eigenvectors, [[s, s], [-s, s]], rtol=0, atol=1e-16)
        for blocks in (
            [(fock_rows, [0.0, 1.0], np.eye(3))],  # three rows in a two-row basis
            [(fock_rows, [0.0, 1.0], np.eye(2)[:, :1])],  # two eigenvalues, one vector
            [(fock_rows, [0.0], np.eye(2)[:, :1])],  # one eigenpair for two rows
            [(even, [0.0, 1.0], np.eye(2))],  # two rows in a one-row basis
            [(fock_rows, [[0.0, 1.0]], np.eye(2))],  # 2-d eigenvalues
        ):
            with pytest.raises(ValueError, match=r"\(basis rows, eigenvalues.size\)"):
                SpectralDecomposition(blocks)
        for blocks in ([(even, [0.0], one), (Basis(3, np.arange(1), "odd"), [0.0], one)], []):
            with pytest.raises(ValueError, match="one basis dim"):
                SpectralDecomposition(blocks)
        # GridPropagator reads only these two layouts, so no other is accepted.
        for blocks in (
            [(even, [0.0], one), (even, [1.0], one)],  # two even blocks
            [(odd, [0.0], one), (even, [1.0], one)],  # odd first
            [(even, [0.0], one)],  # one sector
            [(even, [0.0], one), (odd, [0.0], one), (odd, [1.0], one)],  # three blocks
            [(fock_rows, [0.0, 1.0], np.eye(2)), (even, [0.0], one)],  # Fock and sector
            [(Basis(2, np.array([1, 0])), [0.0, 1.0], np.eye(2))],  # Fock rows out of order
            # dim 3 has two even rows and one odd row
            [(Basis(3, np.arange(1), s), [0.0], one) for s in ("even", "odd")],
            [(Basis(2, np.arange(1), "Even"), [0.0], one), (odd, [0.0], one)],  # no such sector
        ):
            with pytest.raises(ValueError, match="one Fock block over all dim rows"):
                SpectralDecomposition(blocks)
        vectors = np.eye(6)
        with pytest.raises(ValueError, match="one Fock block over all dim rows"):
            SpectralDecomposition([(Basis(11, np.arange(6)), np.zeros(6), vectors)])  # 6 of 11
        assert vectors.flags.writeable  # a refused layout leaves the caller's arrays as they were


class TestBasis:
    @pytest.mark.parametrize("dim", [6, 7])
    @pytest.mark.parametrize("sector", [None, "even", "odd"])
    @pytest.mark.parametrize("window", [False, True])
    def test_fold_inverts_unfold(self, dim, sector, window):
        size = {None: dim, "even": dim - dim // 2, "odd": dim // 2}[sector]
        basis = Basis(dim, np.arange(1 if window else 0, size), sector)
        rng = np.random.default_rng(dim)
        shape = (basis.rows.size, 3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = basis.unfold(x)
        assert c.shape == (dim, 3)
        sign = {None: 0.0, "even": 1.0, "odd": -1.0}[sector]
        top = basis.rows[basis.paired]
        assert np.array_equal(c[dim - 1 - top], sign * c[top])
        assert np.allclose(np.linalg.norm(c, axis=0), np.linalg.norm(x, axis=0), rtol=1e-15, atol=0)
        for back, want in ((basis.fold(c), x), (basis.fold(c[:, 0]), x[:, 0])):
            # A paired row passes through sqrt(1/2) twice: an ulp of round-off.
            np.testing.assert_allclose(back, want, rtol=2 * np.finfo(float).eps, atol=0)
            assert np.array_equal(back[~basis.paired], want[~basis.paired])


@pytest.mark.parametrize("n", [2000, 2001])
def test_zero_bias_decomposition_peak_memory(n):
    # tracemalloc sees numpy's buffers, not LAPACK's workspace. The two sector
    # blocks hold n^2 / 2 doubles; a dense mirrored V would add n^2 more.
    h = build_hamiltonian(CouplingConfig(n, k=4.0 / n, e_j=1.0))
    tracemalloc.start()
    try:
        eigendecompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (n + 1) ** 2


@needs_dstevd  # the eigh fallback densifies the matrix: dim^2 doubles of its own
@pytest.mark.parametrize("delta_mu, bound", [(0.1, 1.1), (0.0, 0.6)])
def test_decomposition_copies_no_block(delta_mu, bound):
    # eigendecompose hands its own arrays to SpectralDecomposition read-only,
    # so they are not copied: a copy of the vectors would add dim^2 doubles
    # (biased) or dim^2 / 2 (the two sector blocks).
    n = 1000
    h = build_hamiltonian(CouplingConfig(n, k=1.0, delta_mu=delta_mu, e_j=float(n)))
    tracemalloc.start()
    try:
        eigendecompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * (n + 1) ** 2


def test_decomposition_copies_the_callers_writeable_arrays():
    lam, vectors = np.array([0.0, 1.0]), np.asfortranarray([[0.6, 0.8], [-0.8, 0.6]])
    frozen = np.array([2.0, 3.0])
    frozen.setflags(write=False)
    d = SpectralDecomposition([(Basis(2, np.arange(2)), lam, vectors)])
    ((_, got_lam, got_v),) = d.blocks
    assert lam.flags.writeable and vectors.flags.writeable
    assert not got_lam.flags.writeable and not got_v.flags.writeable
    assert got_v.strides == vectors.strides  # the copy keeps the layout
    lam[:], vectors[:] = 7.0, 7.0
    assert np.array_equal(got_lam, [0.0, 1.0])
    assert np.array_equal(got_v, [[0.6, 0.8], [-0.8, 0.6]])
    # A read-only array is taken as it is.
    ((_, taken, _),) = SpectralDecomposition([(Basis(2, np.arange(2)), frozen, got_v)]).blocks
    assert taken is frozen


class TestLargeN:
    """Invariants of the parity-block solver at sizes beyond the presets."""

    N = 4000

    @pytest.fixture(scope="class")
    def large(self):
        return decompose(self.N, k=1.0, e_j=float(self.N))

    def test_every_eigenvector_has_exact_parity(self, large):
        v = large[1].eigenvectors
        rev = v[::-1]
        assert all(
            np.array_equal(rev[:, j], v[:, j]) or np.array_equal(rev[:, j], -v[:, j])
            for j in range(v.shape[1])
        )

    def test_tunneling_sign_flip_is_bitwise(self, large):
        n = self.N
        _, d_plus = large
        _, d_minus = decompose(n, k=1.0, e_j=-float(n))
        psi = fock(n - 100, 100)
        flipped = StateVector((-1.0) ** np.arange(n + 1) * psi.coefficients)
        for t in (0.3, 2.0):
            a = evolve(d_plus, psi, t)
            b = evolve(d_minus, flipped, t)
            assert np.array_equal(
                probabilities(a.coefficients), probabilities(b.coefficients)
            )

    def test_residual(self, large):
        h, d = large
        assert max_residual(h, d) <= 1e-9 * max(1.0, np.abs(d.eigenvalues).max())

    def test_orthonormality(self):
        _, d = decompose(2000, k=1.0, e_j=2000.0)
        assert orthonormality_deviation(d.eigenvectors) <= 1e-10

    def test_sampled_orthonormality(self, large):
        # 64 fixed columns of V.T @ V: the full product at N = 4000 would
        # hold two 128 MB matrices.
        v = large[1].eigenvectors
        idx = np.linspace(0, self.N, 64).astype(int)
        gram = v.T @ v[:, idx]
        gram[idx, np.arange(idx.size)] -= 1.0
        assert np.abs(gram).max() <= 1e-10


class TestEvolve:
    def test_t_zero_is_identity(self):
        _, d = decompose(30, k=0.5, e_j=1.0)
        psi = fock(13, 17)
        out = evolve(d, psi, 0.0)
        assert np.abs(out.coefficients - psi.coefficients).max() <= 1e-13

    def test_two_level_rabi_solution(self):
        _, d = decompose(1, e_j=1.0)
        for t in (0.0, 0.3, 1.7, math.pi, 5.0):
            c = evolve(d, fock(1, 0), t).coefficients
            expected = np.array([math.cos(t / 2.0), 1j * math.sin(t / 2.0)])
            np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_rabi_imbalance_is_cos_t(self):
        _, d = decompose(1, e_j=1.0)
        for t in (0.2, 1.0, math.pi, 4.4):
            s = evolve(d, fock(1, 0), t)
            assert expectation_imbalance(s) == pytest.approx(math.cos(t), abs=1e-12)

    def test_stationary_eigenvector(self):
        h, d = decompose(12, k=1.1, dmu=0.2, e_j=0.9)
        m = 5
        psi = StateVector(d.eigenvectors[:, m])
        t = 3.7
        out = evolve(d, psi, t)
        expected = np.exp(-1j * d.eigenvalues[m] * t) * d.eigenvectors[:, m]
        np.testing.assert_allclose(out.coefficients, expected, atol=1e-12)
        assert variance_imbalance(out) == pytest.approx(variance_imbalance(psi), abs=1e-10)
        assert entanglement_entropy(out) == pytest.approx(
            entanglement_entropy(psi), abs=1e-10
        )

    def test_norm_preserved(self):
        _, d = decompose(200, k=1.0, e_j=50.0)
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(evolve(d, fock(200, 0), t).norm() - 1.0) <= 1e-12

    def test_two_step_composition(self):
        _, d = decompose(40, k=0.8, dmu=0.1, e_j=2.0)
        psi = fock(25, 15)
        t1, t2 = 1.3, 2.9
        via_two = evolve(d, evolve(d, psi, t1), t2)
        direct = evolve(d, psi, t1 + t2)
        assert np.abs(via_two.coefficients - direct.coefficients).max() <= 1e-9

    def test_energy_conserved_along_trajectory(self):
        h, d = decompose(80, k=1.0, e_j=25.0)
        psi = fock(80, 0)
        e0 = quadratic_form(h.to_dense(), psi.coefficients)
        for t in np.linspace(0.0, 20.0, 41):
            e = quadratic_form(h.to_dense(), evolve(d, psi, t).coefficients)
            assert abs(e - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_dimension_mismatch_rejected(self):
        _, d = decompose(4, e_j=1.0)
        with pytest.raises(ValueError):
            evolve(d, fock(2, 1), 1.0)

    def test_non_finite_time_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve(d, fock(2, 0), math.inf)

    def test_phase_overflow_rejected(self):
        _, d = decompose(4, k=1.0, e_j=1.0)
        with pytest.raises(ValueError, match="phases overflow"):
            evolve(d, fock(4, 0), 1e308)

    def test_matches_dense_exponential_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(1, 13))
            h, d = decompose(
                n,
                k=float(rng.uniform(-2, 2)),
                dmu=float(rng.uniform(-1, 1)),
                e_j=float(rng.uniform(-2, 2)),
            )
            c0 = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            c0 /= np.linalg.norm(c0)
            psi = StateVector(c0)
            for t in (0.1, 1.0, 10.0):
                expected = propagate_dense(h.to_dense(), c0, t)
                got = evolve(d, psi, t).coefficients
                assert np.abs(got - expected).max() <= 1e-8

    def test_tunneling_sign_flip_equivalence_is_exact(self):
        n = 60
        _, d_plus = decompose(n, k=1.0, e_j=30.0)
        _, d_minus = decompose(n, k=1.0, e_j=-30.0)
        psi = fock(45, 15)
        flipped = StateVector((-1.0) ** np.arange(n + 1) * psi.coefficients)
        for t in (0.4, 2.0, 13.0):
            a = evolve(d_plus, psi, t)
            b = evolve(d_minus, flipped, t)
            assert np.array_equal(
                probabilities(a.coefficients), probabilities(b.coefficients)
            )
            assert expectation_imbalance(a) == expectation_imbalance(b)
            assert variance_imbalance(a) == variance_imbalance(b)
            assert entanglement_entropy(a) == entanglement_entropy(b)


def grid_states(blocks):
    """Iterated blocks, copied as the next overwrites each, one column per time."""
    return np.concatenate([c.copy() for c in blocks], axis=1)


class TestEvolveSeries:
    def test_empty_grid(self):
        _, d = decompose(3, e_j=1.0)
        assert list(evolve_series(d, fock(3, 0), [])) == []

    def test_single_point_grid(self):
        _, d = decompose(3, e_j=1.0)
        out = grid_states(evolve_series(d, fock(3, 0), [0.0]))
        assert out.shape == (4, 1)
        assert np.abs(out[:, 0] - fock(3, 0).coefficients).max() <= 1e-13

    def test_bitwise_consistency_with_single_shot(self):
        _, d = decompose(17, k=0.6, dmu=0.05, e_j=1.8)
        psi = fock(9, 8)
        t1 = 2.71
        series = grid_states(evolve_series(d, psi, [0.0, t1]))
        single = evolve(d, psi, t1)
        assert np.array_equal(series[:, 1], single.coefficients)

    def test_rabi_grid_imbalance(self):
        h, d = decompose(1, e_j=1.0)
        t = [0.0, math.pi, 2.0 * math.pi]
        series = compute_series(evolve_series(d, fock(1, 0), t), t, h)
        np.testing.assert_allclose(series.imbalance, [1.0, -1.0, 1.0], atol=1e-12)

    def test_decreasing_grid_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve_series(d, fock(2, 0), [0.0, 2.0, 1.0])

    @pytest.mark.parametrize(
        "grid",
        [[0.0, 1.0, 3.0], [1.0, 2.0], [0.5], np.zeros((2, 2)), 0.0],
        ids=["uneven", "offset", "single-nonzero", "2d", "scalar"],
    )
    def test_grid_other_than_linspace_rejected(self, grid):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError, match="linspace"):
            evolve_series(d, fock(2, 0), grid)

    def test_non_finite_grid_rejected(self):
        _, d = decompose(2, e_j=1.0)
        with pytest.raises(ValueError):
            evolve_series(d, fock(2, 0), [0.0, math.nan])

    def test_phase_overflow_rejected(self):
        _, d = decompose(4, k=1.0, e_j=1.0)
        with pytest.raises(ValueError, match="phases overflow"):
            evolve_series(d, fock(4, 0), [0.0, 1e308])

    def test_phase_error_bound_on_a_backward_grid(self):
        _, d = decompose(10, k=1.0, e_j=1.0)
        forward = evolve_series(d, fock(10, 0), np.linspace(0.0, 3.0, 7))
        backward = evolve_series(d, fock(10, 0), np.linspace(0.0, -3.0, 7))
        assert backward.phase_error_bound > 0.0
        assert backward.phase_error_bound == forward.phase_error_bound

    def test_unitarity_over_dense_grid(self):
        _, d = decompose(50, k=1.0, e_j=12.0)
        t = np.linspace(0.0, 30.0, 2000)
        for c in grid_states(evolve_series(d, fock(50, 0), t))[:, ::97].T:
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-12


def _bits(*values):
    """The bytes of each value: arrays, floats, ints, lists or None."""
    return [
        None if v is None else np.asarray(v).tobytes() + str(np.asarray(v).dtype).encode()
        for v in values
    ]


@pytest.mark.parametrize(
    "n, dmu, e_j, initial, layout",
    [
        (200, 0.1, 50.0, "fock:150,50", "fock"),
        (200, 0.0, 50.0, "fock:150,50", "split"),
        (200, 0.0, 50.0, "cat", "one sector"),
        (201, 0.0, 0.005, "fock:201,0", "window"),
        (41, 0.0, -0.3, "fock:30,11", "split"),  # the sector labels swap
    ],
    ids=["biased", "split-product", "cat", "windowed", "labels-swap"],
)
def test_column_signs_reach_no_output(n, dmu, e_j, initial, layout):
    # a_n V_n is all a run uses of V_n, and negating V_n negates a_n exactly.
    h, d = decompose(n, k=1.0, dmu=dmu, e_j=e_j)
    rng = np.random.default_rng(2027)
    blocks = []
    for basis, lam, v in d.blocks:
        flipped = np.multiply(v, rng.choice([-1.0, 1.0], size=lam.size))
        # The overlaps' and products' bits depend on the memory layout.
        assert flipped.strides == v.strides and not np.array_equal(flipped, v)
        blocks.append((basis, lam, flipped))
    negated = SpectralDecomposition(blocks)
    psi, t = parse_state(initial, n), np.linspace(0.0, 20.0, 500)

    def outputs(decomp):
        p = evolve_series(decomp, psi, t)
        stats = _bits(
            p.kept_components, p.kept_per_parity, p.dropped_weight, p.dropped_row_weight,
            p.phase_error_bound, p.basis.rows,
        )
        series = compute_series(p, t, h)
        columns = _bits(*(getattr(series, name) for name in series.COLUMNS))
        return p, stats, columns, _bits(evolve(decomp, psi, 7.3).coefficients)

    (p, *want), (_, *got) = outputs(d), outputs(negated)
    assert got == want
    # Each case runs the layout it is named for.
    sectors = None if p.kept_per_parity is None else sum(c > 0 for c in p.kept_per_parity)
    assert sectors == {"fock": None, "one sector": 1}.get(layout, 2)
    assert (p.basis.kept_rows < n + 1) == (layout == "window")
