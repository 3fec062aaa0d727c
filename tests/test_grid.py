import dataclasses
import math
import re

import numpy as np
import pytest

import bhgs.grid as grid_mod
from bhgs import (
    DomainError,
    RadialField,
    build_grid,
    integrate,
    laplacian,
    load_field,
    save_field,
    sphere_area,
)

PI_52 = math.pi ** 2.5                    # integral of e^{-r^2} over R^5
BEND_GAUSS = 8.75 * PI_52                 # |Delta e^{-r^2/2}|_2^2 over R^5


def gaussian(grid, a=0.5):
    return RadialField(grid, np.exp(-a * grid.nodes ** 2))


class TestBuildValidation:
    def test_rejects_low_dim(self):
        with pytest.raises(DomainError):
            build_grid(4, 128, 10.0)

    def test_rejects_float_dim(self):
        with pytest.raises(DomainError):
            build_grid(5.0, 128, 10.0)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            build_grid(5, 63, 10.0)

    def test_rejects_float_n(self):
        with pytest.raises(DomainError):
            build_grid(5, 128.0, 10.0)

    def test_rejects_bad_r_max(self):
        with pytest.raises(DomainError):
            build_grid(5, 128, 0.0)
        with pytest.raises(DomainError):
            build_grid(5, 128, -3.0)

    def test_rejects_infinite_r_max(self):
        with pytest.raises(DomainError, match="finite"):
            build_grid(5, 128, math.inf)

    @pytest.mark.parametrize("r_max", [1e300, 1e100, 1e-150, 1e-300])
    def test_rejects_r_max_outside_float_range(self, r_max):
        # h^N would overflow or underflow in the quadrature weights
        with pytest.raises(DomainError, match="float range"):
            build_grid(5, 2049, r_max)

    def test_rejects_unscaled_weights_outside_float_range(self, monkeypatch):
        # (n-1)^(N-1) overflows before h^N scales it back; the check runs
        # on logarithms, before any exact-rational weight work
        monkeypatch.setattr(grid_mod, "_weights", None)
        with pytest.raises(DomainError, match="before scaling"):
            build_grid(172, 1025, 40.0)

    def test_rejects_dims_with_a_negative_weight(self):
        # the left corrections outgrow the node-1 weight at these dims
        assert np.all(build_grid(16, 1025, 40.0).weights > 0)
        for dim in (17, 30, 100):
            with pytest.raises(DomainError, match="weight <= 0 at node 1"):
                build_grid(dim, 1025, 40.0)

    def test_dims_5_to_30_build_or_name_the_node(self):
        # the sign pattern of the left corrections depends on dim alone
        rejected = []
        for dim in range(5, 31):
            try:
                g = build_grid(dim, 2049, 1000.0)
            except DomainError as exc:
                hit = re.search(r"weight <= 0 at node (\d+)", str(exc))
                assert hit, str(exc)
                w = grid_mod._weights(dim, 2049, 1000.0)
                node = int(hit.group(1))
                assert w[node] <= 0 and np.all(w[:node] > 0)
                rejected.append(dim)
            else:
                assert np.all(g.weights > 0)
        assert rejected == [17, 18, 22, 23, 26, 27, 29, 30]

    def test_grid_shape(self):
        g = build_grid(5, 128, 10.0)
        assert g.nodes.shape == (128,) and g.weights.shape == (128,)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
        assert g.h == pytest.approx(10.0 / 127.0, rel=1e-15)

    def test_same_as(self):
        a = build_grid(5, 128, 10.0)
        b = build_grid(5, 128, 10.0)
        c = build_grid(5, 128, 12.0)
        assert (a.dim, a.n, a.r_max) == (b.dim, b.n, b.r_max)
        assert (a.dim, a.n, a.r_max) != (c.dim, c.n, c.r_max)


class TestSphereArea:
    def test_n5(self):
        assert sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-15)

    def test_n6(self):
        assert sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-15)


class TestQuadrature:
    @pytest.mark.parametrize("dim", [5, 6, 7, 8, 9, 10])
    def test_weights_nonnegative(self, dim):
        g = build_grid(dim, 128, 7.0)
        assert np.all(g.weights >= 0.0)

    @pytest.mark.parametrize("dim", [5, 8])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_monomial_exactness(self, dim, m):
        # r^m integrates exactly for m <= 4: the corrections are built in
        # Fraction arithmetic, only the final float cast rounds
        g = build_grid(dim, 101, 3.0)
        got = integrate(g, g.nodes ** m)
        want = sphere_area(dim) * 3.0 ** (m + dim) / (m + dim)
        assert got == pytest.approx(want, rel=5e-14)

    def test_degree_five_nearly_exact(self):
        g = build_grid(5, 101, 3.0)
        got = integrate(g, g.nodes ** 5)
        want = sphere_area(5) * 3.0 ** 10 / 10.0
        assert got == pytest.approx(want, rel=1e-9)

    def test_ball_volume(self):
        g = build_grid(5, 101, 1.0)
        assert integrate(g, np.ones(g.n)) == pytest.approx(
            8.0 * math.pi ** 2 / 15.0, rel=1e-13)

    def test_gaussian_mass_oracle(self, grid12):
        got = integrate(grid12, np.exp(-grid12.nodes ** 2))
        assert got == pytest.approx(PI_52, rel=1e-10)

    def test_gaussian_mass_oracle_n6(self):
        g = build_grid(6, 257, 10.0)
        got = integrate(g, np.exp(-g.nodes ** 2))
        assert got == pytest.approx(math.pi ** 3, rel=1e-8)

    def test_length_mismatch(self, grid12):
        with pytest.raises(DomainError):
            integrate(grid12, np.ones(7))


class TestLaplacian:
    def test_gaussian_symbolic(self, grid12):
        # Delta e^{-r^2/2} = (r^2 - 5) e^{-r^2/2} in five dimensions
        r = grid12.nodes
        u = gaussian(grid12)
        want = (r ** 2 - 5.0) * np.exp(-0.5 * r ** 2)
        err = np.max(np.abs(laplacian(u).values - want))
        assert err <= 1e-6

    def test_fourth_order_convergence(self):
        errs = []
        for n in (257, 513, 1025):
            g = build_grid(5, n, 12.0)
            r = g.nodes
            want = (r ** 2 - 5.0) * np.exp(-0.5 * r ** 2)
            errs.append(np.max(np.abs(laplacian(gaussian(g)).values - want)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

    def test_exact_on_r_squared(self):
        # the five-point stencil differentiates quartics exactly; rows near
        # r = R see the zero extension, so restrict to the interior
        g = build_grid(5, 257, 12.0)
        got = g.lap_apply(g.nodes ** 2)[: g.n - 3]
        assert np.max(np.abs(got - 10.0)) <= 1e-8

    def test_exact_on_r_fourth(self):
        g = build_grid(5, 257, 12.0)
        want = 28.0 * g.nodes ** 2
        got = g.lap_apply(g.nodes ** 4)
        assert np.max(np.abs((got - want)[: g.n - 3])) <= 1e-7

    def test_transpose_is_exact(self):
        # dense L and L^T, column by column from unit vectors
        g = build_grid(5, 257, 12.0)
        eye = np.eye(g.n)
        L = np.column_stack([g.lap_apply(e) for e in eye])
        Lt = np.column_stack([g.lap_t_apply(e) for e in eye])
        assert np.array_equal(Lt, L.T)


class TestRadialField:
    def test_length_check(self, grid12):
        with pytest.raises(DomainError):
            RadialField(grid12, np.ones(5))

    def test_finiteness_check(self, grid12):
        bad = np.ones(grid12.n)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            RadialField(grid12, bad)

    def test_frozen(self, grid12):
        fld = gaussian(grid12)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.values = np.zeros(grid12.n)


class TestFieldCsv:
    @pytest.fixture()
    def small(self):
        return build_grid(5, 64, 5.0)

    def test_roundtrip_bitwise(self, small, tmp_path, rng):
        vals = rng.standard_normal(small.n)
        path = tmp_path / "f.csv"
        save_field(RadialField(small, vals), path)
        back = load_field(path)
        assert np.array_equal(back.values, vals)
        assert np.array_equal(back.grid.nodes, small.nodes)

    def test_roundtrip_without_grid(self, small, tmp_path):
        path = tmp_path / "f.csv"
        save_field(gaussian(small), path)
        back = load_field(path)
        assert ((back.grid.dim, back.grid.n, back.grid.r_max)
                == (small.dim, small.n, small.r_max))
        assert np.array_equal(back.values, gaussian(small).values)

    def test_rejects_missing_header(self, small, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("r,value\n0.0,1.0\n")
        with pytest.raises(DomainError, match="header"):
            load_field(path)

    def test_rejects_malformed_header(self, small, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# dim=five n=64 r_max=5.0\nr,value\n")
        with pytest.raises(DomainError, match="malformed"):
            load_field(path)

    def test_rejects_wrong_column_header(self, small, tmp_path):
        path = tmp_path / "f.csv"
        save_field(gaussian(small), path)
        lines = path.read_text().splitlines()
        lines[1] = "radius,u"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="r,value"):
            load_field(path)

    def test_rejects_truncated_rows(self, small, tmp_path):
        path = tmp_path / "f.csv"
        save_field(gaussian(small), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DomainError, match="rows"):
            load_field(path)

    def test_row_count_checked_before_grid_is_built(self, small, tmp_path,
                                                    monkeypatch):
        # a header claiming a huge grid must not pay for building it
        import bhgs.grid

        path = tmp_path / "f.csv"
        save_field(gaussian(small), path)
        lines = path.read_text().splitlines()
        lines[0] = "# dim=5 n=3000000 r_max=5.0"
        path.write_text("\n".join(lines) + "\n")

        def never(*args):
            raise AssertionError("build_grid called before the row check")

        monkeypatch.setattr(bhgs.grid, "build_grid", never)
        with pytest.raises(DomainError, match="expected 3000000 rows"):
            load_field(path)

    def test_rejects_tampered_radius_column(self, small, tmp_path):
        path = tmp_path / "f.csv"
        save_field(gaussian(small), path)
        lines = path.read_text().splitlines()
        lines[10] = "99.5," + lines[10].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="disagrees"):
            load_field(path)
