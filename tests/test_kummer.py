import json
import logging
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kummerflat import eguchi_hanson as eh
from kummerflat import forms
from kummerflat import kummer as km

from conftest import complex_matrix


class TestInvolution:
    def test_example_point(self):
        image = km.involution([0.25, 0.1, 0.9, 0.6])
        assert np.allclose(image, [0.75, 0.9, 0.1, 0.4], atol=1e-15)

    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=4))
    def test_involutive(self, x):
        twice = km.involution(km.involution(x))
        assert np.allclose(twice, np.asarray(x) % 1.0, atol=1e-12)

    def test_sixteen_fixed_points(self):
        fp = km.fixed_points()
        assert fp.shape == (16, 4)
        assert np.unique(fp, axis=0).shape[0] == 16
        # fixed exactly, no tolerance
        assert np.all(km.involution(fp) == fp)

    def test_grid_nodes_avoid_fixed_points(self):
        grid = km.TorusGrid(8)
        nodes = grid.nodes()
        for site in km.fixed_points():
            dists = np.linalg.norm(km.wrap_displacement(nodes - site), axis=1)
            assert dists.min() > 0

    def test_involution_permutes_grid_nodes(self):
        grid = km.TorusGrid(8)
        nodes = grid.nodes()
        perm = grid.involution_index_map()
        assert np.allclose(km.involution(nodes), nodes[perm], atol=1e-15)
        # a permutation, and an involution as such
        assert np.all(np.sort(perm) == np.arange(grid.node_count()))
        assert np.all(perm[perm] == np.arange(grid.node_count()))


class TestGrid:
    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError, match="even"):
            km.TorusGrid(9)
        with pytest.raises(ValueError, match="at least 8"):
            km.TorusGrid(4)

    def test_cell_centered_axis(self):
        grid = km.TorusGrid(8)
        assert np.allclose(grid.axis_coordinates(), (np.arange(8) + 0.5) / 8)
        assert grid.spacing == 0.125
        assert grid.node_count() == 8**4

    @pytest.mark.parametrize("n", [8, 10, 16, 24, 48])
    def test_quotient_is_the_first_half_of_each_axis(self, n):
        grid = km.TorusGrid(n)
        quotient = grid.quotient()
        assert (quotient.n, quotient.side, quotient.unit_n) == (n // 2, 0.5, n)
        assert quotient.spacing == grid.spacing
        assert np.array_equal(quotient.axis_coordinates(), grid.axis_coordinates()[: n // 2])
        assert quotient.node_count() * 16 == grid.node_count()

    def test_quotient_sides_and_sizes(self):
        # odd node counts are fine on the quotient: translation by half a
        # period maps node k of the unit grid to node k + n/2
        assert km.TorusGrid(5, side=0.5).unit_n == 10
        with pytest.raises(ValueError, match="at least 4"):
            km.TorusGrid(3, side=0.5)
        with pytest.raises(ValueError, match="side must be 1 or 1/2"):
            km.TorusGrid(8, side=0.25)
        with pytest.raises(ValueError, match="only the unit-torus grid"):
            km.TorusGrid(8).quotient().quotient()


class TestBlowupCharts:
    def test_transition_example(self):
        assert km.blowup_transition("12", (2.0, 4.0)) == (0.25, 8.0)

    def test_round_trip_real_and_complex(self):
        for p in [(2.0, 4.0), (0.3 + 0.2j, 1.1 - 0.4j)]:
            q = km.blowup_transition("21", km.blowup_transition("12", p))
            assert abs(q[0] - p[0]) < 1e-12
            assert abs(q[1] - p[1]) < 1e-12

    def test_rejects_chart_boundary(self):
        with pytest.raises(ValueError, match="nonzero"):
            km.blowup_transition("12", (1.0, 0.0))
        with pytest.raises(ValueError, match="nonzero"):
            km.blowup_transition("21", (0.0, 1.0))
        with pytest.raises(ValueError, match="direction"):
            km.blowup_transition("13", (1.0, 1.0))

    def test_transition_holomorphic(self):
        for p in [(0.3 + 0.2j, 1.1 - 0.4j), (2.0 - 1.0j, 0.5 + 0.5j)]:
            assert km.transition_cr_residual("12", p) < 1e-7
            assert km.transition_cr_residual("21", p) < 1e-7


    def test_transition_cr_residual_matches_axis_loop(self):
        def ref(direction, p, step=1e-6):
            def as_real(q):
                return np.array([q[0].real, q[0].imag, q[1].real, q[1].imag])

            base = as_real((complex(p[0]), complex(p[1])))
            J = np.empty((4, 4))
            for j in range(4):
                cp, cm = base.copy(), base.copy()
                cp[j] += step
                cm[j] -= step
                J[:, j] = (as_real(km.blowup_transition(direction, (cp[0] + 1j * cp[1], cp[2] + 1j * cp[3])))
                           - as_real(km.blowup_transition(direction, (cm[0] + 1j * cm[1], cm[2] + 1j * cm[3])))
                           ) / (2 * step)
            return max(max(abs(J[o, i] - J[o + 1, i + 1]), abs(J[o, i + 1] + J[o + 1, i]))
                       for o in (0, 2) for i in (0, 2))

        for p in [(0.3 + 0.2j, 1.1 - 0.4j), (2.0 - 1.0j, 0.5 + 0.5j), (2.0, 4.0), (-0.7j, 1.3 + 2.1j)]:
            for direction in ("12", "21"):
                assert km.transition_cr_residual(direction, p) == ref(direction, p)


class TestChartMaps:
    def test_radial_factorization_round_trip(self):
        r, unit = km.radial_factor([0.03, 0.0, 0.04, 0.0])
        assert abs(r - 0.05) < 1e-15
        assert abs(np.linalg.norm(unit) - 1.0) < 1e-15
        assert np.allclose(km.radial_assemble(r, unit), [0.03, 0, 0.04, 0], atol=1e-17)
        with pytest.raises(ValueError, match="singular"):
            km.radial_factor([0.0, 0.0, 0.0, 0.0])

    def test_chart_radius_is_displacement_norm(self, rng):
        site = km.fixed_points()[5]
        for _ in range(20):
            v = rng.uniform(-0.04, 0.04, size=4)
            if np.linalg.norm(v) < 1e-3:
                continue
            pt = km.eh_chart_map(site, (site + v) % 1.0)
            assert abs(pt[0] - np.linalg.norm(v)) < 1e-12

    def test_chart_round_trip(self, rng):
        site = km.fixed_points()[3]
        x = (site + rng.uniform(-0.03, 0.03, size=4)) % 1.0
        back = km.eh_chart_inverse(site, km.eh_chart_map(site, x))
        assert np.max(np.abs(km.wrap_displacement(back - x))) < 1e-12

    def test_antipodal_points_agree(self, rng):
        # x and its involution image hit the same resolving-chart point
        site = km.fixed_points()[0]
        for _ in range(10):
            x = (site + rng.uniform(-0.04, 0.04, size=4)) % 1.0
            p1 = np.asarray(km.eh_chart_map(site, x))
            p2 = np.asarray(km.eh_chart_map(site, km.involution(x)))
            assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_rejects_singular_and_distant_points(self):
        site = km.fixed_points()[0]
        with pytest.raises(ValueError, match="singular"):
            km.eh_chart_map(site, site)
        with pytest.raises(ValueError, match="outside the gluing ball"):
            km.eh_chart_map(site, [0.3, 0.3, 0.3, 0.3], zeta=0.1)


class TestCutoff:
    def test_plateau_and_support(self):
        zeta = 1.0 / 9.0
        t = np.array([zeta / 8, zeta / 4, 3 * zeta / 8, zeta / 2, zeta])
        b = km.cutoff_beta(zeta, t)
        assert b[0] == 1.0 and b[1] == 1.0
        assert b[3] == 0.0 and b[4] == 0.0
        assert abs(b[2] - 0.5) < 1e-12

    def test_decreasing_in_transition(self):
        # exponentially flat near the plateaus, so only weakly
        # decreasing there in floating point
        zeta = 0.2
        t = np.linspace(zeta / 4 + 1e-6, zeta / 2 - 1e-6, 50)
        b = km.cutoff_beta(zeta, t)
        assert np.all(np.diff(b) <= 0)
        assert np.all((b >= 0) & (b <= 1))
        middle = np.linspace(0.3 * zeta, 0.45 * zeta, 20)
        mb = km.cutoff_beta(zeta, middle)
        assert np.all(np.diff(mb) < 0)
        assert np.all((mb > 0) & (mb < 1))

    def test_analytic_derivatives_match_differences(self):
        zeta = 1.0 / 9.0
        h = 1e-5
        for t0 in [0.28 * zeta, 3 * zeta / 8, 0.46 * zeta]:
            _, b1, b2 = km.cutoff_beta_derivs(zeta, t0)
            fd1 = (km.cutoff_beta(zeta, t0 + h) - km.cutoff_beta(zeta, t0 - h)) / (2 * h)
            fd2 = (
                km.cutoff_beta(zeta, t0 + h)
                - 2 * km.cutoff_beta(zeta, t0)
                + km.cutoff_beta(zeta, t0 - h)
            ) / h**2
            assert abs(b1 - fd1) < 5e-4 * max(1.0, abs(fd1))
            assert abs(b2 - fd2) < 5e-3 * max(1.0, abs(fd2))

    def test_flat_joins_at_both_ends(self):
        # first two derivatives vanish where the plateau regions begin
        zeta = 1.0 / 9.0
        h = 1e-5
        for t0 in [zeta / 4, zeta / 2]:
            fd1 = (km.cutoff_beta(zeta, t0 + h) - km.cutoff_beta(zeta, t0 - h)) / (2 * h)
            fd2 = (
                km.cutoff_beta(zeta, t0 + h)
                - 2 * km.cutoff_beta(zeta, t0)
                + km.cutoff_beta(zeta, t0 - h)
            ) / h**2
            assert abs(fd1) < 1e-8
            assert abs(fd2) < 1e-3

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="positive"):
            km.cutoff_beta(0.0, 0.1)

    @given(st.floats(0.01, 0.4), st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_range(self, zeta, t):
        b = km.cutoff_beta(zeta, t)
        assert 0.0 <= b <= 1.0


class TestGluingCorrection:
    def test_small_parameter_value(self):
        g = km.gluing_correction_G(0.1, 0.5)
        assert abs(g - (-2.0011e-4)) < 1e-7
        # leading behavior -a^4 / (2 r^2)
        lead = -(0.1**4) / (2 * 0.5**2)
        assert abs(g - lead) < 5e-3 * abs(lead)

    def test_rejects_radius_at_or_below_bolt(self):
        with pytest.raises(ValueError, match="r > a"):
            km.gluing_correction_G(0.1, 0.1)

    def test_ball_version_closes_potential(self):
        # potential minus flat part minus correction vanishes identically
        a = 0.1
        for u in [0.05, 0.12, 0.4, 2.0]:
            g, _, _ = km.ball_correction_derivs(a, u * u)
            phi = eh.kahler_potential_u_chart(eh.EhParams(a), u)
            assert abs(phi - u * u / 2.0 - g) < 1e-14 * max(1.0, abs(phi))

    def test_ball_derivatives_match_differences(self):
        a, w0, h = 0.1, 0.02, 1e-6
        g0, gw, gww = km.ball_correction_derivs(a, w0)
        gp = km.ball_correction_derivs(a, w0 + h)[0]
        gm = km.ball_correction_derivs(a, w0 - h)[0]
        assert abs(gw - (gp - gm) / (2 * h)) < 1e-6 * max(1.0, abs(gw))
        assert abs(gww - (gp - 2 * g0 + gm) / h**2) < 1e-2 * abs(gww)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="positive"):
            km.ball_correction_derivs(0.1, 0.0)


class TestGluedModel:
    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="zeta/2"):
            km.GluedModel(a=0.3, zeta=1.0 / 9.0)
        with pytest.raises(ValueError, match=r"\(0, 1/2\)"):
            km.GluedModel(a=0.01, zeta=0.6)

    def test_defaults(self):
        model = km.GluedModel(a=0.01)
        assert model.zeta == pytest.approx(1.0 / 9.0)
        assert np.array_equal(km.SITES, km.fixed_points())
        assert not km.SITES.flags.writeable

    def test_equal_models_compare_and_hash_alike(self):
        # an ndarray field made == raise ValueError and hash() TypeError
        assert km.GluedModel(0.05) == km.GluedModel(0.05)
        assert hash(km.GluedModel(0.05)) == hash(km.GluedModel(0.05))
        assert km.GluedModel(0.05) != km.GluedModel(0.04)
        assert len({km.GluedModel(0.05), km.GluedModel(0.05, zeta=0.25)}) == 2


class TestGluedField:
    def test_far_point_exactly_flat(self):
        model = km.GluedModel(a=0.05, zeta=1.0 / 9.0)
        h = km.omega0_at(model, [0.25, 0.25, 0.25, 0.25])
        assert np.all(h == [0.5, 0.5, 0.0, 0.0])

    def test_singular_at_fixed_point(self):
        model = km.GluedModel(a=0.05, zeta=1.0 / 9.0)
        with pytest.raises(ValueError, match="singular"):
            km.omega0_at(model, [0.0, 0.0, 0.0, 0.0])

    def test_inner_region_matches_second_derivatives(self):
        # at distance zeta/8 from a site the glued matrix is the complex
        # Hessian of the deformed radial potential
        a, zeta = 1e-2, 1.0 / 9.0
        model = km.GluedModel(a=a, zeta=zeta)
        x = np.array([zeta / 8.0, 0.0, 0.0, 0.0])
        h = km.omega0_at(model, x)

        def potential(c):
            return eh.kahler_potential_u_chart(eh.EhParams(a), float(np.linalg.norm(c)))

        d2 = forms.second_derivative_matrix(potential, x, step=1e-5)
        ref = complex_matrix(forms.hermitian_from_second_derivs(d2))
        rel = np.max(np.abs(complex_matrix(h) - ref)) / np.max(np.abs(ref))
        assert rel < 2e-3

    def test_grid_build_agrees_with_pointwise(self):
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        grid = km.TorusGrid(8)
        built = km.build_omega0(model, grid)
        nodes = grid.nodes()
        flat = built.data.reshape(4, -1)
        for idx in [0, 111, 2048, 4000]:
            direct = km.omega0_at(model, nodes[idx])
            assert np.max(np.abs(flat[:, idx] - direct)) < 1e-15

    def test_reference_grid_is_blind_and_flat(self):
        # the default radius keeps every node outside all gluing balls,
        # so the assembled field is exactly flat with exact volume ratio
        model = km.GluedModel(a=0.05, zeta=1.0 / 9.0)
        grid = km.TorusGrid(16)
        built = km.build_omega0(model, grid)
        assert np.all(built.data[0] == 0.5)
        assert np.all(built.data[2:] == 0.0)
        lam = km.volume_ratio_lambda(built.det())
        assert lam == 0.5
        ea = km.error_density_ea(built.det(), lam)
        assert np.all(ea == 0.0)

    def test_resolved_grid_field(self):
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        grid = km.TorusGrid(16)
        built = km.build_omega0(model, grid)
        assert built.min_eigenvalue() > 0
        # node-for-node invariance under the involution, no tolerance
        flat = built.data.reshape(4, -1)
        perm = grid.involution_index_map()
        assert np.all(flat[:, perm] == flat)

    def test_flat_region_error_is_normalization_defect(self):
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        grid = km.TorusGrid(16)
        built = km.build_omega0(model, grid)
        lam = km.volume_ratio_lambda(built.det())
        ea = km.error_density_ea(built.det(), lam).reshape(-1)
        nodes = grid.nodes()
        dists = np.full(grid.node_count(), np.inf)
        for site in km.fixed_points():
            dists = np.minimum(
                dists, np.linalg.norm(km.wrap_displacement(nodes - site), axis=1)
            )
        flat_region = dists >= model.zeta / 2.0
        assert flat_region.sum() > 0
        assert np.allclose(np.abs(ea[flat_region]), abs(1.0 - 2.0 * lam), atol=1e-15)

    def test_volume_ratio_refinement_invariance(self):
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        lam16 = km.volume_ratio_lambda(km.build_omega0(model, km.TorusGrid(16)).det())
        lam32 = km.volume_ratio_lambda(km.build_omega0(model, km.TorusGrid(32)).det())
        assert abs(lam32 - lam16) / lam16 < 0.01

    def test_error_density_scales_like_fourth_power(self):
        zeta = 4.0 / 9.0
        grid = km.TorusGrid(16)
        values = [0.02, 0.04, 0.08]
        sups, lam_shifts = [], []
        for a in values:
            model = km.GluedModel(a=a, zeta=zeta)
            built = km.build_omega0(model, grid)
            lam = km.volume_ratio_lambda(built.det())
            ea = km.error_density_ea(built.det(), lam)
            sups.append(np.max(np.abs(ea)))
            lam_shifts.append(abs(lam - 0.5))
        sup_slope = np.polyfit(np.log(values), np.log(sups), 1)[0]
        lam_slope = np.polyfit(np.log(values), np.log(lam_shifts), 1)[0]
        assert 3.5 < sup_slope < 4.5
        assert 3.5 < lam_slope < 4.5

    def test_support_against_refinement_error(self):
        # outside the annuli the defect must be below ten times the
        # change between half and full resolution
        def sup_outside(model, n):
            grid = km.TorusGrid(n)
            built = km.build_omega0(model, grid)
            lam = km.volume_ratio_lambda(built.det())
            ea = km.error_density_ea(built.det(), lam).reshape(-1)
            nodes = grid.nodes()
            dists = np.full(grid.node_count(), np.inf)
            for site in km.fixed_points():
                dists = np.minimum(
                    dists, np.linalg.norm(km.wrap_displacement(nodes - site), axis=1)
                )
            outside = (dists <= model.zeta / 4.0) | (dists >= model.zeta / 2.0)
            return float(np.max(np.abs(ea[outside])))

        for zeta in (4.0 / 9.0, 1.0 / 9.0):
            model = km.GluedModel(a=0.05, zeta=zeta)
            s_full = sup_outside(model, 16)
            s_half = sup_outside(model, 8)
            assert s_full <= max(10.0 * abs(s_full - s_half), 1e-12)

    def test_positivity_failure_reports_worst_node(self):
        node = "(0.03125, 0.03125, 0.09375, 0.15625)"
        with pytest.raises(ValueError, match=r"min eigenvalue -\S+ at node " + re.escape(node)):
            km.build_omega0(km.GluedModel(a=0.2, zeta=4.0 / 9.0), km.TorusGrid(16))


def _all_nodes_build(model, grid):
    """Reference assembly: every site evaluated on every node of the grid,
    with the same positivity check and message."""
    nodes = grid.nodes()
    h = np.zeros((4, grid.node_count()))
    h[:2] = 0.5
    for site in km.SITES:
        h += km.site_contribution(model, km.wrap_displacement(nodes - site))
    mineig = km.hermitian_min_eig(h)
    flat_idx = int(np.argmin(mineig))
    if mineig[flat_idx] <= 0:
        node = tuple(round(float(c), 6) for c in nodes[flat_idx])
        raise ValueError(
            f"glued form not positive definite: min eigenvalue {mineig[flat_idx]:.6g} at node "
            f"{node}; the deformation parameter a={model.a} is too large for zeta={model.zeta}"
        )
    return h.reshape((4,) + (grid.n,) * 4)


def _build_or_message(build, model, grid):
    try:
        return build(model, grid), None
    except ValueError as exc:
        return None, str(exc)


class TestBoxAssembly:
    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("zeta, a", [(1.0 / 9.0, 0.01), (1.0 / 9.0, 0.03),
                                         (4.0 / 9.0, 0.02), (4.0 / 9.0, 0.05),
                                         (4.0 / 9.0, 0.08)])
    def test_matches_all_nodes_build(self, n, zeta, a):
        model, grid = km.GluedModel(a=a, zeta=zeta), km.TorusGrid(n)
        assert np.array_equal(km.build_omega0(model, grid).data, _all_nodes_build(model, grid))

    @pytest.mark.parametrize("n", [10, 16, 24, 32])
    @pytest.mark.parametrize("a", [0.05, 0.08])
    def test_quotient_field_is_the_restriction(self, n, a):
        # every site is kept through wrap_displacement on the unit torus,
        # so the quotient nodes see exactly the unit grid's arithmetic
        model, grid = km.GluedModel(a=a, zeta=4.0 / 9.0), km.TorusGrid(n)
        quotient = km.build_omega0(model, grid.quotient())
        assert quotient.grid == grid.quotient()
        m = n // 2
        assert np.array_equal(quotient.data, km.build_omega0(model, grid).data[:, :m, :m, :m, :m])

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        zeta=st.floats(0.05, 0.49, exclude_min=True, exclude_max=True),
        share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_all_nodes_build_or_same_error(self, n, zeta, share):
        a = share * zeta / 2.0
        assume(0.0 < a < zeta / 2.0)
        model, grid = km.GluedModel(a=a, zeta=zeta), km.TorusGrid(n)
        built, message = _build_or_message(lambda m, g: km.build_omega0(m, g).data, model, grid)
        ref, ref_message = _build_or_message(_all_nodes_build, model, grid)
        assert message == ref_message
        if message is None:
            assert np.array_equal(built, ref)

    def test_each_site_sees_only_its_box(self, monkeypatch):
        n, zeta = 24, 4.0 / 9.0
        rows = []
        contribution = km.site_contribution

        def counting_contribution(model, v):
            rows.append(int(np.prod(v.shape[:-1])))
            return contribution(model, v)

        monkeypatch.setattr(km, "site_contribution", counting_contribution)
        km.build_omega0(km.GluedModel(a=0.05, zeta=zeta), km.TorusGrid(n))
        assert len(rows) == 16
        assert max(rows) <= (math.ceil(n * zeta) + 2) ** 4 < n**4

    @pytest.mark.parametrize("a, zeta, blind", [(0.01, 1.0 / 9.0, True), (0.05, 4.0 / 9.0, False)])
    def test_blind_grid_logs_flat_field(self, caplog, a, zeta, blind):
        caplog.set_level(logging.INFO, logger="kummerflat.kummer")
        built = km.build_omega0(km.GluedModel(a=a, zeta=zeta), km.TorusGrid(8))
        flat = np.all(built.data[:2] == 0.5) and np.all(built.data[2:] == 0.0)
        logged = any("no nodes inside any gluing ball" in r.getMessage() for r in caplog.records)
        assert flat == logged == blind


class TestFieldSerialization:
    def _small_field(self):
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        grid = km.TorusGrid(8)
        built = km.build_omega0(model, grid)
        built.lam = km.volume_ratio_lambda(built.det())
        return built

    def test_round_trip_and_byte_stability(self, tmp_path):
        field_ = self._small_field()
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        first = path.read_bytes()
        km.save_field(field_, path)
        assert path.read_bytes() == first
        back = km.load_field(path)
        assert back.grid == field_.grid
        assert back.a == field_.a
        assert back.zeta == field_.zeta
        assert back.lam == field_.lam
        assert np.array_equal(back.data, field_.data)

    def test_sidecar_contents(self, tmp_path):
        field_ = self._small_field()
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        sidecar = json.loads((path.with_suffix(".kmf.json")).read_text())
        assert (sidecar["version"], sidecar["n"], sidecar["side"]) == (2, 8, 1.0)
        assert sidecar["shape"] == [4, 8, 8, 8, 8]
        assert sidecar["dtype"] == "float64"
        assert sidecar["components"] == ["h11", "h22", "Re h12", "Im h12"]
        assert sidecar["lambda"] == field_.lam

    def test_rejects_corrupt_files(self, tmp_path):
        field_ = self._small_field()
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XXXX"
        bad = tmp_path / "bad.kmf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            km.load_field(bad)
        trunc = tmp_path / "trunc.kmf"
        trunc.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="bytes"):
            km.load_field(trunc)

    def test_header_layout(self, tmp_path):
        field_ = self._small_field()
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        header = path.read_bytes()[: struct.calcsize(HEADER)]
        magic, version, n, side, a, zeta, lam = struct.unpack(HEADER, header)
        assert magic == b"KMF1"
        assert (version, n, side) == (2, 8, 1.0)
        assert (a, zeta, lam) == (field_.a, field_.zeta, field_.lam)

    def test_body_layout(self, tmp_path):
        # the body is the field's own row-major (4, n, n, n, n) components
        field_ = self._small_field()
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        body = path.read_bytes()[struct.calcsize(HEADER):]
        assert body == field_.data.astype("<f8").tobytes()
        assert len(body) == 32 * 8**4

    @pytest.mark.parametrize("n", [8, 10])
    def test_quotient_field_round_trip(self, tmp_path, n):
        # the file holds the quotient grid's (n/2)^4 nodes, odd n/2 too,
        # and loads back on that grid, bit for bit
        model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
        quotient = km.build_omega0(model, km.TorusGrid(n).quotient())
        path = tmp_path / "field.kmf"
        km.save_field(quotient, path)
        raw = path.read_bytes()
        m = n // 2
        assert struct.unpack(HEADER, raw[: struct.calcsize(HEADER)])[1:4] == (2, m, 0.5)
        assert raw[struct.calcsize(HEADER):] == quotient.data.astype("<f8").tobytes()
        back = km.load_field(path)
        assert back.grid == km.TorusGrid(n).quotient()
        assert np.array_equal(back.data, quotient.data)
        # which is the unit-torus field on the first m nodes per axis
        full = km.build_omega0(model, km.TorusGrid(n))
        assert np.array_equal(back.data, full.data[:, :m, :m, :m, :m])
        sidecar = json.loads((path.with_suffix(".kmf.json")).read_text())
        assert (sidecar["n"], sidecar["side"], sidecar["shape"]) == (m, 0.5, [4] + [m] * 4)

    def test_missing_lambda_round_trip(self, tmp_path):
        field_ = self._small_field()
        field_.lam = None
        path = tmp_path / "field.kmf"
        km.save_field(field_, path)
        assert km.load_field(path).lam is None


# magic, version, n, side, a, zeta, lambda
HEADER = "<4sii4d"


def _header(n=8, side=1.0, a=0.05, zeta=4.0 / 9.0, lam=0.5):
    return struct.pack(HEADER, b"KMF1", 2, n, side, a, zeta, lam)


@pytest.fixture(scope="module")
def valid_kmf(tmp_path_factory):
    """Bytes of a valid n=8 field file and a directory to write into."""
    model = km.GluedModel(a=0.05, zeta=4.0 / 9.0)
    grid = km.TorusGrid(8)
    built = km.build_omega0(model, grid)
    built.lam = km.volume_ratio_lambda(built.det())
    root = tmp_path_factory.mktemp("kmf")
    km.save_field(built, root / "valid.kmf")
    return (root / "valid.kmf").read_bytes(), root


def _load_bytes(root, raw):
    path = root / "candidate.kmf"
    path.write_bytes(raw)
    return km.load_field(path)


class TestLoadFieldRejects:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_truncation(self, valid_kmf, data):
        raw, root = valid_kmf
        length = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ValueError):
            _load_bytes(root, raw[:length])

    @settings(max_examples=20, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_oversized(self, valid_kmf, extra):
        raw, root = valid_kmf
        with pytest.raises(ValueError):
            _load_bytes(root, raw + extra)

    @pytest.mark.parametrize("fields, match", [
        ({"n": 0}, "even and at least 8"),
        ({"n": -8}, "even and at least 8"),
        ({"n": 9}, "even and at least 8"),
        ({"a": float("nan")}, "non-finite"),
        ({"zeta": float("inf")}, "non-finite"),
        ({"lam": float("-inf")}, "non-finite"),
        # bodies far too large to allocate: rejected by size, not read
        ({"n": 1000}, "expected"),
        ({"n": 1 << 20}, "expected"),
        ({"side": 0.3}, "side must be 1 or 1/2"),
        ({"side": float("nan")}, "side must be 1 or 1/2"),
        ({"n": 3, "side": 0.5}, "at least 4 nodes"),
    ])
    def test_bad_header_values(self, valid_kmf, fields, match):
        raw, root = valid_kmf
        with pytest.raises(ValueError, match=match):
            _load_bytes(root, _header(**fields) + raw[len(_header()):])

    def test_version_1_refused(self, valid_kmf):
        # the complex (n, n, n, n, 2, 2) unit-torus layout has no reader
        raw, root = valid_kmf
        v1 = struct.pack("<4sii3d", b"KMF1", 1, 8, 0.05, 4.0 / 9.0, 0.5) + bytes(16 * 4 * 8**4)
        with pytest.raises(ValueError, match="unsupported field file version 1"):
            _load_bytes(root, v1)

    def test_valid_file_loads(self, valid_kmf):
        raw, root = valid_kmf
        assert _load_bytes(root, raw).data.shape == (4, 8, 8, 8, 8)

    def test_non_finite_body(self, valid_kmf):
        raw, root = valid_kmf
        head = len(_header())
        body = np.frombuffer(raw[head:], dtype="<f8").copy()
        body[77] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _load_bytes(root, raw[:head] + body.tobytes())


class TestHermitianFormulas:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 4),
                    min_size=1, max_size=6))
    def test_det_and_min_eig_match_numpy(self, rows):
        h = np.array(rows).T
        m = complex_matrix(h)
        scale = max(float(np.max(np.abs(h))), 1.0)
        det = km.hermitian_det(h)
        mineig = km.hermitian_min_eig(h)
        assert det.shape == mineig.shape == (len(rows),)
        ref_det = np.linalg.det(m)
        ref_min = np.linalg.eigvalsh(m)[:, 0]
        assert np.all(np.abs(det - ref_det) <= 1e-12 * scale**2)
        assert np.all(np.abs(mineig - ref_min) <= 1e-12 * scale)
