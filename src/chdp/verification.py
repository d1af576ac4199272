"""Acceptance suite: every shipped guarantee as a named, timed check.

Each check computes its own oracle (closed forms, quadrature, Richardson
ratios, independent formulations) and compares the implementation against
it at a fixed tolerance.  `run_all` powers both the `verify` CLI command
and the pytest acceptance module, so there is a single source of truth for
what this package promises.

Each smooth reference model (2CH, DP, 2DP at n = 256, dt = 1e-4, t in
[0, 1], amplitude-0.1 mode-1 data) is integrated once per process, by
`evolve_flowmap`, and cached.  The Eulerian rows and diagnostics of that
flow map are those of `evolve` for the same config, so C6, C7, C8 and C12
all read the one run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from chdp.connection import (
    Model,
    VelocityPair,
    ad_transpose,
    bracket,
    christoffel,
    metric,
)
from chdp.curvature import (
    _cosine_table,
    ch_cosine_curvature,
    positivity_scan,
    scan_grid,
    unnormalized_curvature,
)
from chdp.evolution import (
    EvolutionConfig,
    evolve,
    rhs,
    rhs_momentum_form,
    step_count,
)
from chdp.flowmap import evolve_flowmap, momentum_drift, reconstruct_f
from chdp.rigidbody import RigidBodyState, conservation_drifts, evolve_rigidbody
from chdp.spectral import (
    Grid,
    PeriodicField,
    compose,
    cosine_field,
    dealiased_product,
    derivative,
    helmholtz,
    random_band_limited,
)

__all__ = ["CheckResult", "CRITERIA", "run_criterion", "run_all", "format_table"]

SMOOTH_N = 256
SMOOTH_DT = 1e-4
SMOOTH_T_END = 1.0
SMOOTH_AMP = 0.1


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.criterion} {self.name}: "
                f"{self.detail} ({self.seconds:.1f}s)")


def _smooth_initial(model: Model, grid: Grid) -> VelocityPair:
    u = cosine_field(grid, 1, SMOOTH_AMP)
    if model.two_component:
        return VelocityPair(u, cosine_field(grid, 1, SMOOTH_AMP))
    return VelocityPair.single(u)


@lru_cache(maxsize=None)
def _smooth_run(model_value: str):
    """Keeps every 50th step: the steps C7 samples, and the last five C8 reads."""
    model = Model(model_value)
    config = EvolutionConfig(model, dt=SMOOTH_DT, t_end=SMOOTH_T_END, diagnostics_stride=50)
    return evolve_flowmap(config, _smooth_initial(model, Grid(SMOOTH_N)))


@lru_cache(maxsize=None)
def _mode4_scan():
    """The max_mode 4 cosine scan on its default grid (n = 30) that C1 and C2 read."""
    return positivity_scan(4)


def _random_state(grid, rng, model, max_mode=10, scale=0.3):
    u = random_band_limited(grid, rng, max_mode, scale)
    if model.two_component:
        return VelocityPair(u, random_band_limited(grid, rng, max_mode, scale))
    return VelocityPair.single(u)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def check_curvature_oracle(seed: int) -> tuple[bool, str]:
    """Numeric S agrees with the closed form on all mode tuples <= 4.

    The full-family rows of the max_mode 4 scan (on `scan_grid(4)`, n = 30)
    are the pairs of distinct tuples (k1, k2), (l1, l2) with modes in 1..4.
    """
    table = _mode4_scan()
    full = table.m_k1 > 0
    worst = float(np.max(table.closed_form_error()[full]))
    ok = not table.violations()["S off the closed form"][full].any()
    return ok, f"max rel err {worst:.2e} over {np.count_nonzero(full)} tuples (tol 1e-8)"


def check_positivity(seed: int) -> tuple[bool, str]:
    """S > 0 on every scanned cosine tuple with modes <= 4."""
    table = _mode4_scan()
    full = table.m_k1 > 0
    min_s = table.s_numeric[full].min()
    ok = not table.violations()["S <= 0"].any()
    return ok, f"min S {min_s:.6f} > 0 over {np.count_nonzero(full)} tuples"


def check_density_family_bounds(seed: int) -> tuple[bool, str]:
    """Gram = 1/4 and Sec >= 1/8 on zero-velocity cosine pairs, modes <= 6."""
    modes = np.arange(1, 7)
    tuples = np.column_stack((np.zeros_like(modes), modes))
    table = _cosine_table(scan_grid(6), tuples, np.column_stack(np.triu_indices(6, 1)))
    worst_gram = float(np.max(np.abs(table.gram - 0.25)))
    min_sec = float(table.sec.min())
    broken = table.violations()
    ok = not (broken["Sec < 1/8"].any() or broken["Gram != 1/4"].any())
    return ok, (f"|gram - 1/4| <= {worst_gram:.2e} (tol 1e-12), "
                f"min Sec {min_sec:.6f} >= 1/8 - 1e-12")


def check_ch_reduction(seed: int) -> tuple[bool, str]:
    """S on zero-density pairs equals the single-component closed form.

    The planes are the pairs of distinct directions (cos 2 pi m x, 0), m in
    1..6, each through the one-plane `unnormalized_curvature` on `scan_grid(6)`.
    """
    grid = scan_grid(6)
    modes = np.arange(1, 7)
    directions = [VelocityPair.single(cosine_field(grid, m)) for m in modes]
    k, l = np.triu_indices(len(modes), 1)
    s_num = [unnormalized_curvature(directions[i], directions[j]) for i, j in zip(k, l)]
    worst = float(np.max(np.abs(np.subtract(s_num, ch_cosine_curvature(modes[k], modes[l])))))
    return worst <= 1e-9, f"max abs err {worst:.2e} (tol 1e-9)"


def check_rhs_equivalence(seed: int) -> tuple[bool, str]:
    """Weak RHS = Christoffel form = Helmholtz-lifted momentum form."""
    grid = Grid(128)
    rng = np.random.default_rng(seed + 5)
    worst_gamma = 0.0
    worst_strong = 0.0
    for model in Model:
        for _ in range(20):
            s = _random_state(grid, rng, model)
            weak = rhs(model, s)
            gamma = christoffel(model, s, s)
            adv_u = weak.u + dealiased_product(s.u, derivative(s.u))
            adv_rho = weak.rho + dealiased_product(s.u, derivative(s.rho))
            worst_gamma = max(worst_gamma,
                              np.max(np.abs(adv_u.values - gamma.u.values)),
                              np.max(np.abs(adv_rho.values - gamma.rho.values)))
            strong = rhs_momentum_form(model, s)
            worst_strong = max(worst_strong,
                               np.max(np.abs(helmholtz(weak.u).values - strong.u.values)),
                               np.max(np.abs(weak.rho.values - strong.rho.values)))
    ok = worst_gamma <= 1e-9 and worst_strong <= 1e-9
    return ok, (f"|weak - Gamma| {worst_gamma:.2e}, "
                f"|A(weak) - momentum form| {worst_strong:.2e} (tol 1e-9)")


def check_energy_conservation(seed: int) -> tuple[bool, str]:
    """Metric energy conserved along the smooth 2CH run; DP family recorded."""
    def drift(model):
        energy = _smooth_run(model.value).diagnostics.energy
        return float(np.max(np.abs(energy - energy[0]))) / energy[0]

    drift_2ch = drift(Model.CH2)
    recorded = []
    for model in (Model.DP, Model.DP2):
        recorded.append(f"{model.value} drift {drift(model):.2e} (recorded)")
    ok = drift_2ch <= 1e-7
    return ok, f"2ch relative drift {drift_2ch:.2e} (tol 1e-7); " + ", ".join(recorded)


def check_momentum_conservation(seed: int) -> tuple[bool, str]:
    """Transported momenta constant along the smooth flow-map runs, which run to the end."""
    details = []
    ok = True
    for model in (Model.CH2, Model.DP2):
        res = _smooth_run(model.value)
        if not res.status.completed:
            ok = False
            details.append(f"{model.value} stopped ({res.status.reason}) at t={res.status.t:.6g}")
        drifts = momentum_drift(res)
        rho_scale = np.max(np.abs(res.rho[0]))
        rel_rho = np.max(drifts["rho0"]) / rho_scale
        ok = ok and rel_rho <= 1e-6
        details.append(f"{model.value} rho0 drift {rel_rho:.2e}")
        if "m0" in drifts:
            m_scale = np.max(np.abs(helmholtz(
                PeriodicField(res.grid, res.u[0])).values))
            rel_m = np.max(drifts["m0"]) / m_scale
            ok = ok and rel_m <= 1e-6
            details.append(f"{model.value} m0 drift {rel_m:.2e}")
    return ok, ", ".join(details) + " (tol 1e-6 relative)"


def check_lagrangian_consistency(seed: int) -> tuple[bool, str]:
    """The flow map moves with the Eulerian fields, and f matches quadrature.

    First half: on the smooth 2CH and 2DP runs, phi_t and f_t at the last
    kept step, the one-sided difference (25, -48, 36, -16, 3) / (12 dt) of
    the last five kept psi and f rows, are u o phi and rho o phi to 1e-6.
    Second half: f of 2CH and 2DP flow maps matches `reconstruct_f`'s
    quadrature of the Jacobians, its error falling 12-20 times as dt halves.
    """
    worst_rate = 0.0
    for model in (Model.CH2, Model.DP2):
        flow = _smooth_run(model.value)
        phi = flow.group_element(len(flow.times) - 1).phi
        dt = flow.times[-1] - flow.times[-2]
        for rows, field in ((flow.psi, flow.u[-1]), (flow.f, flow.rho[-1])):
            rate = np.tensordot([3.0, -16.0, 36.0, -48.0, 25.0], rows[-5:], 1) / (12.0 * dt)
            transported = compose(PeriodicField(flow.grid, field), phi).values
            worst_rate = max(worst_rate, float(np.max(np.abs(rate - transported))))

    ratios = []
    grid = Grid(128)
    initial = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 1, 0.3))
    for model in (Model.CH2, Model.DP2):
        def gap(dt):
            config = EvolutionConfig(model, dt=dt, t_end=0.2, diagnostics_stride=1)
            res = evolve_flowmap(config, initial)
            quad = reconstruct_f(model, initial.rho, res.times, res.jacobians())
            return np.max(np.abs(res.f[-1] - quad.values))
        ratios.append(gap(1e-2) / gap(5e-3))

    ok = worst_rate <= 1e-6 and all(12.0 <= r <= 20.0 for r in ratios)
    return ok, (f"max |(phi_t, f_t) - (u, rho) o phi| {worst_rate:.2e} (tol 1e-6), "
                f"f-quadrature ratios {[f'{r:.1f}' for r in ratios]} (in [12, 20])")


def check_duality_identity(seed: int) -> tuple[bool, str]:
    """<ad_transpose(a, b), c> = <a, [b, c]> on 50 random triples."""
    grid = Grid(128)
    rng = np.random.default_rng(seed + 9)
    worst = 0.0
    for _ in range(50):
        a = _random_state(grid, rng, Model.CH2)
        b = _random_state(grid, rng, Model.CH2)
        c = _random_state(grid, rng, Model.CH2)
        lhs = metric(ad_transpose(a, b), c)
        rhs_val = metric(a, bracket(b, c))
        worst = max(worst, abs(lhs - rhs_val))
    return worst <= 1e-9, f"max |<B(a,b),c> - <a,[b,c]>| {worst:.2e} (tol 1e-9)"


def check_rigid_body(seed: int) -> tuple[bool, str]:
    """Spatial momentum, energy, and Casimir constant on the reference spin."""
    state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    drift = conservation_drifts(evolve_rigidbody(state, dt=1e-3, t_end=10.0))
    ok = max(drift["pi_drift"], drift["energy_drift"], drift["casimir_drift"]) <= 1e-8
    return ok, (f"pi drift {drift['pi_drift']:.2e}, energy drift {drift['energy_drift']:.2e}, "
                f"|Pi|^2 drift {drift['casimir_drift']:.2e} (tol 1e-8); "
                f"Ad* residual {drift['coadjoint_drift']:.2e}")


def check_rk4_order(seed: int) -> tuple[bool, str]:
    """Global error halves by ~16 under dt halving, PDEs and rigid body."""
    ratios = {}
    grid = Grid(64)
    s0 = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 2, 0.2))
    for model in (Model.CH2, Model.DP2):
        def final_u(dt, t_end=0.5):
            config = EvolutionConfig(model, dt, t_end, diagnostics_stride=step_count(dt, t_end))
            return evolve(config, s0).u[-1]
        ref = final_u(5e-4)
        e1 = np.max(np.abs(final_u(4e-3) - ref))
        e2 = np.max(np.abs(final_u(2e-3) - ref))
        ratios[model.value] = e1 / e2

    body = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    ref = evolve_rigidbody(body, dt=5e-4, t_end=2.0).omega[-1]
    e1 = np.linalg.norm(evolve_rigidbody(body, dt=8e-3, t_end=2.0).omega[-1] - ref)
    e2 = np.linalg.norm(evolve_rigidbody(body, dt=4e-3, t_end=2.0).omega[-1] - ref)
    ratios["rigidbody"] = e1 / e2

    ok = all(14.0 <= r <= 18.0 for r in ratios.values())
    detail = ", ".join(f"{k} {v:.1f}" for k, v in ratios.items())
    return ok, f"halving ratios {detail} (in [14, 18])"


def check_blowup_detector(seed: int) -> tuple[bool, str]:
    """Steep data trips the threshold with the right reason; smooth data never does."""
    grid = Grid(256)
    config = EvolutionConfig(Model.CH2, dt=5e-4, t_end=2.0, blowup_slope_threshold=-50.0,
                             blowup_rhox_threshold=50.0, diagnostics_stride=100)
    steep = evolve(config, VelocityPair.single(cosine_field(grid, 1, 2.0)))
    fired = (steep.status.kind == "blowup_detected"
             and steep.status.reason == "min_ux" and steep.status.t < 2.0)
    quiet = all(_smooth_run(m.value).status.completed
                for m in (Model.CH2, Model.DP, Model.DP2))
    ok = fired and quiet
    return ok, (f"steep run: {steep.status.kind}/{steep.status.reason} "
                f"at t={steep.status.t}; smooth runs completed: {quiet}")


CRITERIA = [
    ("C1", "curvature oracle equivalence", check_curvature_oracle, 10.0),
    ("C2", "curvature positivity", check_positivity, None),
    ("C3", "density-family Gram and Sec bounds", check_density_family_bounds, None),
    ("C4", "single-component curvature reduction", check_ch_reduction, None),
    ("C5", "right-hand-side equivalence", check_rhs_equivalence, None),
    ("C6", "2CH energy conservation", check_energy_conservation, 60.0),
    ("C7", "momentum conservation", check_momentum_conservation, None),
    ("C8", "Eulerian-Lagrangian consistency", check_lagrangian_consistency, None),
    ("C9", "bracket duality identity", check_duality_identity, None),
    ("C10", "rigid-body conservation", check_rigid_body, 5.0),
    ("C11", "RK4 convergence order", check_rk4_order, None),
    ("C12", "blow-up detector", check_blowup_detector, None),
]


def run_criterion(criterion_id: str, seed: int = 0) -> CheckResult:
    for cid, name, fn, budget in CRITERIA:
        if cid == criterion_id:
            start = time.perf_counter()
            passed, detail = fn(seed)
            passed = bool(passed)
            elapsed = time.perf_counter() - start
            if budget is not None:
                within = elapsed < budget
                detail += f"; runtime {elapsed:.1f}s < {budget:.0f}s: {within}"
                passed = passed and within
            return CheckResult(cid, name, passed, detail, elapsed)
    raise KeyError(f"unknown criterion {criterion_id!r}")


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_criterion(cid, seed) for cid, *_ in CRITERIA]


def format_table(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
