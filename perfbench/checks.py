"""Output checks that share no code with ptladder's solvers.

Each check returns a list of failure messages (empty when it passes), so
the benchmark can report every failure of a run at once and the self-tests
can show that a deliberately wrong value is rejected.  Hamiltonians are
built here from the model's definition (cell-major sites ``a_n, b_n``,
on-site ``+-i*gamma/2``, rung ``-d``, leg hopping ``-t``, crossed bond pair
at the Moebius closure or between cells N/2 and N/2 + 1 of the twisted
ladder) rather than with ``ptladder.lattice``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

IM_TOL = 1e-9


def ladder_hamiltonian(
    n_cells: int, gamma: float, topology: str, d: float = 1.0, t: float = 1.0
) -> np.ndarray:
    """Dense 2N x 2N ladder Hamiltonian for topology circular/moebius/open/twisted."""
    h = np.zeros((2 * n_cells, 2 * n_cells), dtype=complex)
    for c in range(n_cells):
        h[2 * c, 2 * c] = 0.5j * gamma
        h[2 * c + 1, 2 * c + 1] = -0.5j * gamma
        h[2 * c, 2 * c + 1] = h[2 * c + 1, 2 * c] = -d

    def bond(a: int, b: int, crossed: bool) -> None:
        for leg in (0, 1):
            i, j = 2 * a + leg, 2 * b + (1 - leg if crossed else leg)
            h[i, j] += -t
            h[j, i] += -t

    for c in range(n_cells - 1):
        bond(c, c + 1, topology == "twisted" and c == n_cells // 2 - 1)
    if topology in ("circular", "moebius"):
        bond(n_cells - 1, 0, topology == "moebius")
    return h


def broken_count(values: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(np.imag(values)) > IM_TOL))


def multiset_distance(a, b) -> float:
    """Largest pairing distance between two equal-size complex multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if a.size else 0.0


# ---------------------------------------------------------------------------
# ep-search


def check_ring_eps(gamma_stars, n_cells: int, d: float = 1.0, tol: float = 1e-6) -> list[str]:
    """Circular ring: all N pairs coalesce at gamma = 2d (closed form)."""
    out = []
    if len(gamma_stars) != n_cells:
        out.append(f"ring N={n_cells}: {len(gamma_stars)} EPs, closed form has {n_cells}")
    worst = max((abs(g - 2.0 * d) for g in gamma_stars), default=math.inf)
    if worst > tol:
        out.append(f"ring N={n_cells}: EP misses gamma = 2d by {worst:.3e}")
    return out


def check_ep_brackets(brackets, n_cells: int, topology: str) -> list[str]:
    """Each (lo, hi) bracket changes the broken count under direct eigvals."""
    out = []
    for lo, hi in brackets:
        c_lo = broken_count(np.linalg.eigvals(ladder_hamiltonian(n_cells, lo, topology)))
        c_hi = broken_count(np.linalg.eigvals(ladder_hamiltonian(n_cells, hi, topology)))
        if c_lo == c_hi:
            out.append(f"{topology} N={n_cells}: bracket ({lo:.12g}, {hi:.12g}) keeps {c_lo} broken")
    return out


def check_windows_narrow(widths: list[tuple[int, float]]) -> list[str]:
    """Lowest closed window width must fall as N grows."""
    out = []
    for (n_a, w_a), (n_b, w_b) in zip(widths, widths[1:]):
        if not (math.isfinite(w_a) and math.isfinite(w_b) and w_a > w_b):
            out.append(f"moebius window width N={n_a}: {w_a:.6g} not above N={n_b}: {w_b:.6g}")
    return out


def _det_sign(n_cells: int, gammas: np.ndarray, topology: str) -> np.ndarray:
    """Sign of Re det H(gamma), 0 where the determinant vanishes exactly."""
    base = ladder_hamiltonian(n_cells, 0.0, topology)
    diag = np.tile([0.5j, -0.5j], n_cells)
    out = np.empty(gammas.size)
    for start in range(0, gammas.size, 1000):
        g = gammas[start : start + 1000]
        stack = np.repeat(base[None, :, :], g.size, axis=0)
        idx = np.arange(2 * n_cells)
        stack[:, idx, idx] += g[:, None] * diag[None, :]
        sign, _ = np.linalg.slogdet(stack)
        out[start : start + g.size] = np.sign(sign.real)
    return out


def check_zero_ep_det_flips(
    gamma_stars, n_cells: int, topology: str = "twisted", probe: float = 1e-7
) -> list[str]:
    """Every zero-energy EP flips the sign of Re det H across gamma* +- probe."""
    out = []
    for g in gamma_stars:
        below, above = _det_sign(n_cells, np.array([g - probe, g + probe]), topology)
        if below * above >= 0:
            out.append(f"{topology} N={n_cells}: det H keeps its sign across gamma* = {g:.12g}")
    return out


def check_zero_ep_count(
    n_found: int, n_cells: int, gamma_range, topology: str = "twisted", points: int = 20001
) -> list[str]:
    """Sign changes of det H on a fine grid (zeros skipped) equal the EPs found."""
    signs = _det_sign(n_cells, np.linspace(gamma_range[0], gamma_range[1], points), topology)
    signs = signs[signs != 0]
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if changes != n_found:
        return [f"{topology} N={n_cells}: {changes} det sign changes, {n_found} zero-energy EPs"]
    return []


# ---------------------------------------------------------------------------
# transport-map


def check_flux(t_col: np.ndarray, r_col: np.ndarray, tol: float = 1e-10) -> list[str]:
    """Hermitian limit: R + T = 1 in every lane."""
    worst = float(np.max(np.abs(1.0 - r_col - t_col)))
    if not worst <= tol:
        return [f"gamma = 0 column: |1 - R - T| reaches {worst:.3e}"]
    return []


def check_against_reference(label: str, got, want, tol: float = 1e-9) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        return [f"{label}: differs from the dense reference by {worst:.3e}"]
    return []


def check_identical(label: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    if not np.array_equal(a, b, equal_nan=True):
        return [f"{label}: results differ bit for bit"]
    return []


# ---------------------------------------------------------------------------
# cli-presets


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_checksums(manifest: dict) -> list[str]:
    out = []
    for path in manifest["outputs"]:
        if sha256(path) != manifest["checksums"].get(path):
            out.append(f"manifest checksum of {path} does not match the file")
    return out


def check_sweep_rows(
    rows_by_gamma: dict[float, np.ndarray], n_cells: int, topology: str, tol: float = 1e-8
) -> list[str]:
    """Sweep rows at a gamma hold exactly the eigenvalues of the dense H."""
    out = []
    for gamma, values in rows_by_gamma.items():
        want = np.linalg.eigvals(ladder_hamiltonian(n_cells, gamma, topology))
        dist = multiset_distance(values, want)
        if not dist <= tol:
            out.append(f"sweep rows at gamma = {gamma:.12g}: {dist:.3e} from direct eigvals")
    return out
