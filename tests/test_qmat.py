import numpy as np
import pytest

from qpamp.errors import InvalidInputError
from qpamp.qmat import (
    DensityOperator,
    HermitianOperator,
    matrix_from_json,
    matrix_to_json,
    random_density,
    tensor,
)


def herm(arr) -> HermitianOperator:
    return HermitianOperator(np.asarray(arr, dtype=complex))


def dens(arr) -> DensityOperator:
    return DensityOperator(herm(arr))


class TestConstruction:
    def test_symmetrization(self):
        op = herm([[1, 1j], [0, 2]])
        np.testing.assert_allclose(op.entries, op.entries.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_density_clamps_tiny_negative(self):
        rho = dens(np.diag([1.0 + 5e-11, -5e-11]))
        w = np.linalg.eigvalsh(rho.entries)
        assert w.min() >= 0.0
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-14

    def test_density_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            dens(np.diag([1.2, -0.2]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvalidInputError):
            dens(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize(
        "eigs", [(0.25, 0.75), (1.0 + 5e-11, -5e-11), (0.5, 0.5 + 1e-12)],
        ids=["pass-through", "clamp", "renormalize"],
    )
    def test_density_from_array_or_hermitian(self, eigs):
        g = np.random.default_rng(3).normal(size=(2, 2, 2))
        u, _ = np.linalg.qr(g[0] + 1j * g[1])
        arr = (u * np.array(eigs)) @ u.conj().T
        base = HermitianOperator(arr)
        from_array, from_base = DensityOperator(arr), DensityOperator(base)
        assert isinstance(from_array, HermitianOperator)
        assert from_array.entries.tobytes() == from_base.entries.tobytes()
        if eigs[0] == 0.25:
            assert from_base.entries is base.entries  # taken as it is, not symmetrized again
        else:
            assert from_base.entries.tobytes() != base.entries.tobytes()
            assert np.linalg.eigvalsh(from_base.entries).min() >= 0.0

    def test_entries_read_only(self):
        op = herm(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestTensor:
    def test_single(self, rng):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(tensor([rho]).entries, rho.entries)

    def test_identity_pair(self):
        np.testing.assert_allclose(tensor([herm(np.eye(2)), herm(np.eye(2))]).entries, np.eye(4))

    def test_basis_order(self):
        out = tensor([herm(np.diag([1.0, 0.0])), herm(np.diag([0.0, 1.0]))])
        np.testing.assert_allclose(out.entries, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            tensor([])

    def test_tensor_of_densities_is_density(self, rng):
        rho = tensor([random_density(rng, 2), random_density(rng, 3)])
        w = np.linalg.eigvalsh(rho.entries)
        assert w.min() >= -1e-12
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


class TestJson:
    def test_round_trip(self, rng):
        rho = random_density(rng, 3)
        back = matrix_from_json(matrix_to_json(rho))
        np.testing.assert_allclose(back, rho.entries, atol=1e-15)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidInputError):
            matrix_from_json([[1, 2], [3, 4]])
