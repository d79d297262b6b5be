"""End-to-end checks of the shipped guarantees, one test per guarantee.

Each test prints a single pass/fail line (run ``pytest -s`` to see them
all) and enforces both the numeric tolerance and the runtime budget of
the guarantee it covers.
"""

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from ptladder import (
    BoundaryTopology,
    EpKind,
    LatticeSpec,
    LeadSpec,
    Phase,
    analytic_cll_spectrum,
    analytic_mll_spectrum,
    assemble_scattering_system,
    broken_windows,
    build_real_space_hamiltonian,
    classify_pt_phase,
    complex_rotation_angle,
    detangle_transform,
    detangled_transport_check,
    eigendecompose,
    find_trace_peaks,
    lead_momentum,
    locate_exceptional_points,
    locate_zero_energy_eps,
    mode_weights,
    solve_scattering,
    transmission_map,
    zero_energy_trace,
)

CIRCULAR = BoundaryTopology.CIRCULAR
MOEBIUS = BoundaryTopology.MOEBIUS
OPEN = BoundaryTopology.OPEN
TWISTED = BoundaryTopology.TWISTED_OPEN


def _finish(n: int, label: str, started: float, budget_s: float, failures: list) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s over the {budget_s:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {n:2d} [{status}] {label} ({elapsed:.1f}s)")
    assert not failures, f"check {n}: " + "; ".join(failures)


def _multiset_distance(a, b) -> float:
    """Max pairing distance between two eigenvalue multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_01_closed_forms_match_dense_spectra():
    started = time.perf_counter()
    failures = []
    for n in (4, 10, 100):
        for topo, closed_form in (
            (CIRCULAR, analytic_cll_spectrum),
            (MOEBIUS, analytic_mll_spectrum),
        ):
            spec = LatticeSpec(n_cells=n, topology=topo)
            want = [value for value, _ in closed_form(spec)]
            got = eigendecompose(build_real_space_hamiltonian(spec)).eigenvalues
            dist = _multiset_distance(want, got)
            if dist > 1e-10:
                failures.append(f"{topo.value} N={n}: multiset distance {dist:.2e}")
    _finish(1, "closed-form spectra match dense eigenvalues", started, 5.0, failures)


def test_02_ring_transition_sits_at_twice_the_rung_coupling():
    started = time.perf_counter()
    failures = []
    spec = LatticeSpec(n_cells=100)
    points = locate_exceptional_points(spec, (0.0, 3.0))
    if not points:
        failures.append("no exceptional points found on [0, 3]")
    else:
        dev = max(abs(p.gamma_star - 2.0) for p in points)
        if dev > 1e-6:
            failures.append(f"coalescence cluster misses gamma = 2 by {dev:.2e}")
    for gamma, want_broken in ((1.99, False), (2.01, True)):
        h = build_real_space_hamiltonian(spec.with_gamma(gamma))
        report = classify_pt_phase(eigendecompose(h, gamma=gamma))
        if want_broken and report.n_broken == 0:
            failures.append(f"gamma={gamma}: expected broken eigenvalues, found none")
        if not want_broken and report.n_broken > 0:
            failures.append(f"gamma={gamma}: {report.n_broken} spurious broken eigenvalues")
    _finish(2, "ring coalescence at gamma = 2d with phase flip", started, 60.0, failures)


# Search ranges sized so every lattice keeps its lowest window while the
# whole scan stays inside the runtime budget on one core.
_WINDOW_SEARCH = {
    20: ((0.02, 0.8), 250),
    40: ((0.01, 0.45), 250),
    80: ((0.01, 0.2), 200),
    100: ((0.01, 0.25), 150),
    160: ((0.005, 0.1), 180),
}


def _lowest_closed_window(n_cells: int):
    gamma_range, steps = _WINDOW_SEARCH[n_cells]
    spec = LatticeSpec(n_cells=n_cells, topology=MOEBIUS)
    points = locate_exceptional_points(spec, gamma_range, coarse_steps=steps)
    closed = [w for w in broken_windows(points) if not w.open_ended]
    lowest = min(closed, key=lambda w: w.gamma_lo) if closed else None
    return lowest, points


def test_03_moebius_windows_exist_and_shrink_with_size():
    started = time.perf_counter()
    failures = []

    lowest, points = _lowest_closed_window(100)
    kinds = {p.kind for p in points}
    if lowest is None or not (0.0 < lowest.gamma_lo and lowest.gamma_hi < 2.0):
        failures.append("N=100: no closed reentrant window strictly inside (0, 2)")
    if not (EpKind.MERGE in kinds and EpKind.SPLIT in kinds):
        failures.append("N=100: window is not bounded by a merge/split pair")

    # The tracked pair is the lowest-gamma window; it lives at the inner
    # band edge near E = -1 for every size, which pins it as the same
    # physical pair across N.
    widths = []
    for n in (20, 40, 80, 160):
        low_n, _ = _lowest_closed_window(n)
        if low_n is None:
            failures.append(f"N={n}: no closed window in the search range")
            continue
        if abs(low_n.energy + 1.0) > 0.05:
            failures.append(
                f"N={n}: tracked window sits at E={low_n.energy:.4f}, not the band-edge pair"
            )
        widths.append((n, low_n.width))
    for (n_a, w_a), (n_b, w_b) in zip(widths, widths[1:]):
        if not w_a > w_b:
            failures.append(f"window width grew from N={n_a} ({w_a:.6f}) to N={n_b} ({w_b:.6f})")
    _finish(3, "reentrant windows exist and shrink with system size", started, 300.0, failures)


def test_04_mode_weight_diagnostics():
    started = time.perf_counter()
    failures = []

    ring = LatticeSpec(n_cells=100, gamma=1.0)
    spectrum = eigendecompose(build_real_space_hamiltonian(ring), want_vectors=True, gamma=1.0)
    report = classify_pt_phase(spectrum)
    unbroken = [i for i, lab in enumerate(report.labels) if lab.phase is Phase.UNBROKEN]
    if len(unbroken) < 20:
        failures.append(f"only {len(unbroken)} unbroken ring states at gamma = 1")
    else:
        angle = complex_rotation_angle(ring.intra_hop, ring.delta, 1.0)
        rng = np.random.default_rng(7)
        for pick in rng.choice(len(unbroken), size=20, replace=False):
            w = mode_weights(spectrum.right_eigenvectors[:, unbroken[int(pick)]], ring, angle)
            if abs(w.alpha_sq - 0.5) > 1e-9:
                failures.append(f"unbroken state {pick}: |alpha|^2 = {w.alpha_sq!r}")
            if min(w.alpha_theta_sq, 1.0 - w.alpha_theta_sq) > 1e-6:
                failures.append(f"unbroken state {pick}: rotated weight {w.alpha_theta_sq!r} not pinned")

    mll = LatticeSpec(n_cells=100, topology=MOEBIUS)
    n_checked = 0
    for gamma in (0.05, 0.07, 0.10):  # inside the low-lying reentrant windows
        spec_g = mll.with_gamma(gamma)
        spectrum = eigendecompose(
            build_real_space_hamiltonian(spec_g), want_vectors=True, gamma=gamma
        )
        phase = classify_pt_phase(spectrum)
        angle = complex_rotation_angle(mll.intra_hop, mll.delta, gamma)
        for i, lab in enumerate(phase.labels):
            if lab.phase is not Phase.BROKEN:
                continue
            w = mode_weights(spectrum.right_eigenvectors[:, i], spec_g, angle)
            n_checked += 1
            if abs(w.alpha_theta_sq - 0.5) > 1e-6:
                failures.append(
                    f"broken state at gamma={gamma}: rotated weight {w.alpha_theta_sq!r}"
                )
    if n_checked == 0:
        failures.append("no broken Moebius states found to check")
    _finish(4, "leg and rotated-mode weights behave per phase", started, 30.0, failures)


def _lone_p_chain_transmission(n_sites: int, chains, leads: LeadSpec, energies) -> np.ndarray:
    """|t|^2 of the leg-symmetric chain alone between the two leads.

    Each end site couples to its lead through the p projection of that
    end's contact vector, ``(g_upper + g_lower) / sqrt2``; the unknowns
    are ``(r, p_1, ..., p_N, t)``.
    """
    g_in = complex(leads.g_in.sum()) / np.sqrt(2.0)
    g_out = complex(leads.g_out.sum()) / np.sqrt(2.0)
    sites = np.arange(1, n_sites + 1)
    out = np.empty(len(energies))
    for i, e in enumerate(energies):
        eiq, emiq = lead_momentum(float(e), leads.v0)
        a = np.zeros((n_sites + 2, n_sites + 2), dtype=complex)
        a[sites, sites] = chains.p_onsite - e
        a[sites[:-1], sites[1:]] = -chains.chain_hop
        a[sites[1:], sites[:-1]] = -chains.chain_hop
        a[0, 0] = a[-1, -1] = 0.5 * leads.v0
        a[0, 1], a[1, 0] = g_in, eiq * g_in
        a[-1, -2], a[-2, -1] = g_out, eiq * g_out
        b = np.zeros(n_sites + 2, dtype=complex)
        b[0] = -0.5 * leads.v0
        b[1] = -emiq * g_in
        out[i] = abs(np.linalg.solve(a, b)[-1]) ** 2
    return out


def test_05_detangled_chains():
    started = time.perf_counter()
    failures = []

    for gamma in (0.0, 0.5, 1.0):
        spec = LatticeSpec(n_cells=10, gamma=gamma, topology=OPEN)
        _, transformed = detangle_transform(spec)
        dist = _multiset_distance(
            eigendecompose(build_real_space_hamiltonian(spec)).eigenvalues,
            eigendecompose(transformed).eigenvalues,
        )
        if dist > 1e-10:
            failures.append(f"gamma={gamma}: rotated spectrum off by {dist:.2e}")

    chains, at_zero = detangle_transform(LatticeSpec(n_cells=10, topology=OPEN))
    cross = max(
        float(np.abs(at_zero[0::2, 1::2]).max()),
        float(np.abs(at_zero[1::2, 0::2]).max()),
    )
    if cross > 1e-15:
        failures.append(f"chains fail to decouple at gamma = 0 (cross block {cross:.1e})")

    # At gamma = delta = 0 the rotated ladder is H_f + H_p exactly, and
    # symmetric contacts -(1, 1) lie wholly in the leg-symmetric (p)
    # sector, so the scattering state has no f component: the f chain is
    # dark and T(E) is that of the lone p chain.  The reference below is
    # the bordered (N + 2) system of that chain, built without the
    # ladder transport code.
    leads = LeadSpec()
    energies = np.linspace(-2.5, 2.5, 2001)
    report = detangled_transport_check(LatticeSpec(n_cells=10, topology=OPEN), leads, energies)
    lone_p = _lone_p_chain_transmission(10, chains, leads, energies)
    gap = float(np.max(np.abs(report.transmission - lone_p)))
    if not gap <= 1e-10:
        failures.append(
            f"symmetric-contact transmission departs from the lone p chain by {gap:.2e} "
            "(the antisymmetric chain is not dark)"
        )
    label = "detangled chains: similarity, decoupling, dark antisymmetric chain"
    _finish(5, label, started, 30.0, failures)


def test_06_hermitian_flux_conservation():
    started = time.perf_counter()
    failures = []
    leads = LeadSpec()
    for topo in (OPEN, TWISTED):
        spec = LatticeSpec(n_cells=100, topology=topo)
        worst = 0.0
        for e in np.linspace(-4.0, 4.0, 101):
            res = solve_scattering(assemble_scattering_system(spec, leads, float(e)))
            worst = max(worst, abs(1.0 - res.reflection_prob - res.transmission_prob))
        if worst > 1e-10:
            failures.append(f"{topo.value}: max |1 - R - T| = {worst:.2e}")
    _finish(6, "flux conserved across the Hermitian energy scan", started, 10.0, failures)


def test_07_zero_energy_transmission_contrast():
    started = time.perf_counter()
    failures = []
    leads = LeadSpec()
    grid = np.linspace(0.0, 2.0, 601, endpoint=False)
    step = float(grid[1] - grid[0])

    plain = zero_energy_trace(LatticeSpec(n_cells=100, topology=OPEN), leads, grid)
    t_plain = np.array([t for _, t in plain])
    above = np.nonzero(t_plain >= 0.1)[0]
    if above.size == 0:
        failures.append("plain ladder: T(0, gamma) never reaches 0.1 at all")
    elif above[-1] >= t_plain.size - 1:
        failures.append("plain ladder: T(0, gamma) has not settled below 0.1 within [0, 2)")

    twisted = LatticeSpec(n_cells=100, topology=TWISTED)
    trace = zero_energy_trace(twisted, leads, grid)
    peaks = find_trace_peaks(trace, min_height=0.99)
    points = locate_zero_energy_eps(twisted, (0.0, 2.0))
    stars = np.array([p.gamma_star for p in points])
    matched = [
        g for g, _ in peaks if stars.size and float(np.min(np.abs(stars - g))) <= step + 1e-12
    ]
    if len(matched) < 3:
        failures.append(
            f"only {len(matched)} near-perfect zero-energy peaks sit within one grid step "
            f"of a zero-energy coalescence ({len(peaks)} peaks, {stars.size} coalescences)"
        )
    _finish(7, "zero-energy contrast between plain and twisted ladders", started, 600.0, failures)


def test_08_broken_phase_attenuates_with_length():
    started = time.perf_counter()
    failures = []
    energies = np.linspace(-4.0, 4.0, 801)
    maxima = []
    for n in (20, 40, 80):
        m = transmission_map(
            LatticeSpec(n_cells=n, topology=OPEN), LeadSpec(), energies, [2.5]
        )
        if m.n_failed:
            failures.append(f"N={n}: {m.n_failed} failed cells")
        maxima.append((n, float(np.nanmax(m.t_values))))
    for (n_a, t_a), (n_b, t_b) in zip(maxima, maxima[1:]):
        if not t_a > t_b:
            failures.append(f"peak T grew from N={n_a} ({t_a:.3e}) to N={n_b} ({t_b:.3e})")
    _finish(8, "broken-phase peak transmission falls with length", started, 300.0, failures)


def test_09_banded_solver_matches_dense():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 65))
        topo = TWISTED if rng.integers(2) else OPEN
        if topo is TWISTED and n % 2:
            n += 1
        gamma = float(rng.uniform(0.0, 3.0))
        energy = float(rng.uniform(-3.5, 3.5))
        spec = LatticeSpec(n_cells=n, gamma=gamma, topology=topo)
        system = assemble_scattering_system(spec, LeadSpec(), energy)
        try:
            banded = solve_scattering(system, method="banded")
            dense = solve_scattering(system, method="dense")
        except Exception as exc:  # noqa: BLE001 - report the instance, keep going
            failures.append(
                f"instance {i} (n={n}, {topo.value}, gamma={gamma:.3f}, e={energy:.3f}): "
                f"{type(exc).__name__}"
            )
            continue
        worst = max(
            worst,
            abs(banded.transmission_prob - dense.transmission_prob),
            abs(banded.reflection_prob - dense.reflection_prob),
        )
    if worst > 1e-9:
        failures.append(f"worst banded/dense disagreement {worst:.2e}")
    _finish(9, "banded and dense scattering solutions agree", started, 30.0, failures)


def test_10_full_maps_complete_inside_the_budget():
    started = time.perf_counter()
    failures = []
    energies = np.linspace(-4.0, 4.0, 801)
    gammas = np.linspace(0.0, 3.0, 601)
    for topo in (OPEN, TWISTED):
        m = transmission_map(
            LatticeSpec(n_cells=100, topology=topo), LeadSpec(), energies, gammas, workers=4
        )
        rate = m.n_failed / m.t_values.size
        if rate >= 0.001:
            failures.append(f"{topo.value}: cell failure rate {rate:.3%}")
    _finish(10, "both full transmission maps inside the budget", started, 1800.0, failures)
