"""Explicit matrices and the cross-check suite for every closed form.

Everything the closed-form engine claims is rebuilt here the hard way:
the overlap Gram matrix, the single-element difference masks, the four
lift transformations that expand matrix entries by superposition
vectors, the superposition isometries V and V-hat, the rank-one
projector pair on the ground space, and the channel transporters Xi.
``verify`` runs one named check, building both sides explicitly and
reporting the worst discrepancy.

Block ordering for lifted matrices is row-label-major: the lifted row
index (x, i) enumerates i = 1..n inside each x.  This makes the lift
composition identities hold entry for entry.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import adversary, johnson, linalg
from .adversary import ProblemInstance

# Largest lifted dimension C(n, k') * n the explicit checks will build.
SIZE_CAP = 20000

# Default tolerances: norm comparisons are eigensolver-limited, algebraic
# identities are exact in real arithmetic.
TOL_NORM = 1e-8
TOL_EXACT = 1e-10


class LiftKind(enum.Enum):
    """The four entry-expanding transformations.

    ROW kinds attach the superposition vector of the row label, COL kinds
    that of the column label; PSI appends a column vector, PSI_STAR a row
    covector.
    """

    ROW_PSI = "row-psi"
    ROW_PSI_STAR = "row-psi-star"
    COL_PSI = "col-psi"
    COL_PSI_STAR = "col-psi-star"


CHECK_IDS = (
    "PSI_COEFFS",
    "DELTA_GEN",
    "DELTA_REFL",
    "DELTA_MEMB",
    "V_DECOMP",
    "PHI_COMMUTE",
    "TABLES",
    "PROJECTORS",
    "NORM_GAMMA",
    "PSI_POWER",
)

CHECK_DESCRIPTIONS = {
    "PSI_COEFFS": "transporter coefficients of the Gram-Hadamard product match the four-term recurrence",
    "DELTA_GEN": "state-generation difference norms match the max vector-norm formulas",
    "DELTA_REFL": "reflection difference norm matches the max 4x4 rank-two norm formula",
    "DELTA_MEMB": "membership difference norm matches the two-branch formula, identically in the singled-out element",
    "V_DECOMP": "the superposition isometry decomposes over the four transporter channels",
    "PHI_COMMUTE": "level transporters commute with the channel transporters, signs included",
    "TABLES": "closed-form basis-change tables are orthogonal and match the constructed reference vectors",
    "PROJECTORS": "block projectors form a complete orthogonal idempotent family with the predicted ranks",
    "NORM_GAMMA": "the assembled certificate matrix has spectral norm equal to its top weight",
    "PSI_POWER": "the entrywise Gram power keeps the certificate norm above the overlap bound",
}

# Checks whose value does not depend on the schedule, each with the key of
# the instance memo entry that serves it, so sweeps over t do not redo the
# heavy algebra.  Their check functions return results keyed by check id:
# one channel pass serves both V_DECOMP and PHI_COMMUTE.
_SCHEDULE_FREE = {
    "V_DECOMP": ("channels",),
    "PHI_COMMUTE": ("channels",),
    "TABLES": ("TABLES",),
    "PROJECTORS": ("PROJECTORS",),
}

# Channel labels (ell, m): ground-space component ell tensor block shift m.
XI_CHANNELS = ((1, -1), (0, 0), (1, 0), (1, 1))


@dataclass
class DiscrepancyReport:
    """Outcome of one cross-check on one instance."""

    check_id: str
    n: int
    k: int
    k_prime: int
    t: float
    ell: int
    closed_form: float
    brute_force: float
    discrepancy: float
    tolerance: float
    passed: bool
    wall_ms: float
    memoised: bool  # served from the instance memo; wall_ms is only the lookup
    details: dict = field(default_factory=dict)


def psi_matrix(n: int, k: int) -> np.ndarray:
    """Rows are the uniform unit superpositions over each k-subset of {1..n}."""
    basis = johnson.subset_basis(n, k)
    out = np.zeros((len(basis), n))
    if k == 0:
        return out
    for idx, subset in enumerate(basis):
        for e in subset:
            out[idx, e - 1] = 1.0
    return out / math.sqrt(k)


def psi_gram(inst: ProblemInstance) -> np.ndarray:
    """Overlap matrix: entry (x, y) is |x & y| / sqrt(k k')."""
    xm = johnson.subset_basis(inst.n, inst.k).masks
    ym = johnson.subset_basis(inst.n, inst.k_prime).masks
    counts = np.bitwise_count(xm[:, None] & ym[None, :]).astype(float)
    return counts / math.sqrt(inst.k * inst.k_prime)


def delta_membership_mask(inst: ProblemInstance, i: int) -> np.ndarray:
    """0/1 matrix marking pairs (x, y) that disagree on membership of i."""
    if not (1 <= i <= inst.n):
        raise ValueError(f"element must lie in [{inst.n}], got {i}")
    bit = 1 << (i - 1)
    in_x = (johnson.subset_basis(inst.n, inst.k).masks & bit) != 0
    in_y = (johnson.subset_basis(inst.n, inst.k_prime).masks & bit) != 0
    return (in_x[:, None] ^ in_y[None, :]).astype(float)


def lift(m, kind: LiftKind, side_basis: johnson.SubsetBasis) -> np.ndarray:
    """Expand each entry of ``m`` by the superposition vector of one side.

    ``side_basis`` indexes the side named by ``kind``: rows of ``m`` for
    ROW kinds, columns for COL kinds.  Lifted indices are label-major,
    i.e. row (x, i) and column (y, i) blocks of length n.
    """
    m = linalg.as_matrix(m)
    n = side_basis.n
    psi = psi_matrix(side_basis.n, side_basis.k)
    rows, cols = m.shape
    if kind in (LiftKind.ROW_PSI, LiftKind.ROW_PSI_STAR):
        if rows != len(side_basis):
            raise ValueError(
                f"row count {rows} does not match basis size {len(side_basis)}"
            )
    elif cols != len(side_basis):
        raise ValueError(
            f"column count {cols} does not match basis size {len(side_basis)}"
        )
    if kind is LiftKind.ROW_PSI:
        return np.einsum("xy,xi->xiy", m, psi).reshape(rows * n, cols)
    if kind is LiftKind.ROW_PSI_STAR:
        return np.einsum("xy,xi->xyi", m, psi).reshape(rows, cols * n)
    if kind is LiftKind.COL_PSI:
        return np.einsum("xy,yi->xiy", m, psi).reshape(rows * n, cols)
    if kind is LiftKind.COL_PSI_STAR:
        return np.einsum("xy,yi->xyi", m, psi).reshape(rows, cols * n)
    raise ValueError(f"unknown lift kind {kind!r}")


def build_projection_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Pi_0, Pi_1): the uniform-direction projector on R^n and its complement."""
    if n < 2:
        raise ValueError("need n >= 2")
    pi0 = np.full((n, n), 1.0 / n)
    return pi0, np.eye(n) - pi0


def _kron_apply(
    block_op: np.ndarray, m: np.ndarray, n: int, ground_op: np.ndarray | None = None
) -> np.ndarray:
    """(block_op tensor ground_op) @ m for a lifted matrix m with row blocks of length n.

    ``ground_op=None`` stands for I_n.  The block operator acts as one GEMM
    on m viewed as (rows, n * cols), the ground operator as a batched matmul
    on each length-n block; no Kronecker product is formed.
    """
    cols = m.shape[1]
    out = block_op @ m.reshape(block_op.shape[1], n * cols)
    if ground_op is not None:
        out = np.matmul(ground_op, out.reshape(-1, n, cols))
    return out.reshape(-1, cols)


class InstanceWorkspace:
    """Lazy cache of the explicit objects shared by the checks of one instance."""

    def __init__(self, inst: ProblemInstance):
        if inst.k_prime <= inst.k:
            raise ValueError("explicit checks need k < k'")
        lifted_dim = math.comb(inst.n, inst.k_prime) * inst.n
        if lifted_dim > SIZE_CAP:
            raise ValueError(
                f"lifted dimension C(n,k')*n = {lifted_dim} exceeds cap {SIZE_CAP}"
            )
        self.inst = inst
        self._memo: dict = {}

    def _cache(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    @property
    def basis_x(self) -> johnson.SubsetBasis:
        return johnson.subset_basis(self.inst.n, self.inst.k)

    @property
    def basis_y(self) -> johnson.SubsetBasis:
        return johnson.subset_basis(self.inst.n, self.inst.k_prime)

    @property
    def proj_x(self) -> johnson.ProjectorFamily:
        return johnson.irrep_projectors(self.inst.n, self.inst.k)

    @property
    def proj_y(self) -> johnson.ProjectorFamily:
        return johnson.irrep_projectors(self.inst.n, self.inst.k_prime)

    @property
    def transporters(self):
        inst = self.inst
        return self._cache(
            "transporters",
            lambda: tuple(
                johnson.transporter(inst.n, inst.k, inst.k_prime, j)
                for j in range(inst.k + 1)
            ),
        )

    @property
    def psi(self) -> np.ndarray:
        return self._cache("psi", lambda: psi_gram(self.inst))

    def psi_rows(self, hatted: bool = False) -> np.ndarray:
        """``psi_matrix`` of the k level (or k' when hatted)."""
        size = self.inst.k_prime if hatted else self.inst.k
        return self._cache(("psi_rows", size), lambda: psi_matrix(self.inst.n, size))

    @property
    def v_iso(self) -> np.ndarray:
        return self._cache(
            "v_iso",
            lambda: lift(np.eye(len(self.basis_x)), LiftKind.ROW_PSI, self.basis_x),
        )

    @property
    def v_iso_hat(self) -> np.ndarray:
        return self._cache(
            "v_iso_hat",
            lambda: lift(np.eye(len(self.basis_y)), LiftKind.ROW_PSI, self.basis_y),
        )

    def block_dims(self, hatted: bool = False):
        fam = self.proj_y if hatted else self.proj_x
        return [fam.dimension(j) for j in range(len(fam.projectors))]


@lru_cache(maxsize=8)
def _workspace(inst: ProblemInstance) -> InstanceWorkspace:
    return InstanceWorkspace(inst)


def _xi_is_declared_zero(j: int, ell: int, m: int, level_max: int) -> bool:
    if j < 0 or j > level_max or j + m < 0 or j + m > level_max:
        return True
    if j == 0 and (ell, m) in ((1, -1), (1, 0)):
        return True
    if j == level_max and (ell, m) == (1, 1):
        return True
    return False


def _xi_raw(inst: ProblemInstance, j: int, ell: int, m: int, hatted: bool) -> np.ndarray:
    """The raw channel morphism (E_{j+m} tensor Pi_ell) V E_j of a non-border channel.

    Row (x, i) of V holds psi_x[i] in column x and zeros elsewhere, so V E_j
    is formed entrywise as psi_x[i] E_j[x, :].
    """
    ws = _workspace(inst)
    fam = ws.proj_y if hatted else ws.proj_x
    e_j = fam.projectors[j]
    v_e = (ws.psi_rows(hatted)[:, :, None] * e_j[:, None, :]).reshape(-1, e_j.shape[1])
    pi = build_projection_pair(inst.n)[ell]
    return _kron_apply(fam.projectors[j + m], v_e, inst.n, pi)


def build_xi(
    inst: ProblemInstance, j: int, ell: int, m: int, hatted: bool = False
) -> np.ndarray:
    """Channel transporter Xi_j^{ell,m} on the k level (or k' when hatted).

    Normalises (E_{j+m} tensor Pi_ell) V E_j to a partial isometry; the
    declared border cases come back as exact zero matrices.  A non-border
    channel with a near-zero normaliser raises instead of guessing.
    """
    if (ell, m) not in XI_CHANNELS:
        raise ValueError(f"invalid channel (ell, m) = ({ell}, {m})")
    ws = _workspace(inst)
    level_max = inst.k_prime if hatted else inst.k
    if not (0 <= j <= level_max):
        raise ValueError(f"need 0 <= j <= {level_max}, got j={j}")
    if _xi_is_declared_zero(j, ell, m, level_max):
        size = len(ws.basis_y if hatted else ws.basis_x)
        return np.zeros((size * inst.n, size))
    raw = _xi_raw(inst, j, ell, m, hatted)
    scale = linalg.spectral_norm(raw)
    if scale < johnson.DEGENERATE_SCALE:
        raise ArithmeticError(
            f"channel (j={j}, ell={ell}, m={m}, hatted={hatted}) is unexpectedly "
            f"degenerate: normaliser {scale:.3e}"
        )
    return raw / scale


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (closed, brute, discrepancy, details,
# tolerance_kind) where tolerance_kind is "norm" or "exact".
# ---------------------------------------------------------------------------


def _check_psi_coeffs(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    sched = adversary.gamma_schedule(t, inst.k)
    closed = adversary.hadamard_psi_step(sched.gammas, inst)
    had = adversary.adversary_matrix(inst, t) * ws.psi
    dims = ws.block_dims()
    brute = np.array(
        [
            float(np.sum(ws.transporters[j].matrix * had)) / dims[j]
            for j in range(inst.k + 1)
        ]
    )
    gaps = np.abs(brute - closed)
    worst = int(np.argmax(gaps))
    details = {"per_block_closed": closed.tolist(), "per_block_brute": brute.tolist()}
    return float(closed[worst]), float(brute[worst]), float(gaps[worst]), details, "norm"


def _check_delta_gen(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    sched = adversary.gamma_schedule(t, inst.k)
    closed = adversary.norm_delta_state_gen(sched, inst)
    gamma = adversary.adversary_matrix(inst, t)
    brute_fwd = linalg.spectral_norm(
        lift(gamma, LiftKind.ROW_PSI, ws.basis_x)
        - lift(gamma, LiftKind.COL_PSI, ws.basis_y)
    )
    brute_rev = linalg.spectral_norm(
        lift(gamma, LiftKind.ROW_PSI_STAR, ws.basis_x)
        - lift(gamma, LiftKind.COL_PSI_STAR, ws.basis_y)
    )
    gaps = (abs(brute_fwd - closed[0]), abs(brute_rev - closed[1]))
    side = int(np.argmax(gaps))
    details = {"closed_pair": list(closed), "brute_pair": [brute_fwd, brute_rev]}
    return (
        float(closed[side]),
        float((brute_fwd, brute_rev)[side]),
        float(max(gaps)),
        details,
        "norm",
    )


def _check_delta_refl(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    sched = adversary.gamma_schedule(t, inst.k)
    closed = adversary.norm_delta_reflection(sched, inst)
    brute = _reflection_lift_norm(ws, adversary.adversary_matrix(inst, t))
    return closed, brute, abs(brute - closed), {}, "norm"


def _reflection_lift_norm(ws: InstanceWorkspace, gamma: np.ndarray) -> float:
    """Spectral norm of the lifted reflection difference.

    Its (x, y) block is gamma[x, y] (psi_x psi_x^T - psi_y psi_y^T), with
    row blocks (x, i) and column blocks (y, i) as in ``lift``.

    By the lift composition identities the difference is L R^T with
    L = [V, -lift(gamma, COL_PSI)] and R = [lift(gamma, ROW_PSI_STAR)^T, V-hat].
    With L = Q_L r_L and R = Q_R r_R, its norm is that of the small r_L r_R^T.
    """
    left = np.hstack([ws.v_iso, -lift(gamma, LiftKind.COL_PSI, ws.basis_y)])
    right = np.hstack([lift(gamma, LiftKind.ROW_PSI_STAR, ws.basis_x).T, ws.v_iso_hat])
    r_left = np.linalg.qr(left, mode="r")
    r_right = np.linalg.qr(right, mode="r")
    return linalg.spectral_norm(r_left @ r_right.T)


def _check_delta_memb(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    sched = adversary.gamma_schedule(t, inst.k)
    closed = adversary.norm_delta_membership(sched, inst)
    gamma = adversary.adversary_matrix(inst, t)
    per_i = [
        linalg.spectral_norm(gamma * delta_membership_mask(inst, i))
        for i in range(1, inst.n + 1)
    ]
    spread = max(per_i) - min(per_i)
    gaps = [abs(v - closed) for v in per_i]
    worst = int(np.argmax(gaps))
    details = {"spread_over_i": spread, "per_i": per_i}
    return closed, float(per_i[worst]), float(max(gaps)), details, "norm"


def _check_channels(ws: InstanceWorkspace, t: float, ell: int):
    """V_DECOMP and PHI_COMMUTE from one pass over the non-border channels.

    Each Xi, plain and hatted, is built once and subtracted with its
    coefficient from the residual of its level's isometry; for j <= k the
    plain and hatted pair of a channel also gives its PHI_COMMUTE
    difference.  Only one channel pair is alive at a time.
    """
    inst = ws.inst
    coeffs = adversary.phi_components(inst.n, inst.k, np.arange(inst.k + 1))
    coeffs_hat = adversary.phi_components(inst.n, inst.k_prime, np.arange(inst.k_prime + 1))
    residual = ws.v_iso.copy()
    residual_hat = ws.v_iso_hat.copy()
    worst = 0.0
    worst_label = None
    for j in range(inst.k_prime + 1):
        for comp, (el, m) in enumerate(XI_CHANNELS):
            if _xi_is_declared_zero(j, el, m, inst.k_prime):
                continue
            xi_hat = build_xi(inst, j, el, m, hatted=True)
            residual_hat -= coeffs_hat[j, comp] * xi_hat
            if j > inst.k or _xi_is_declared_zero(j, el, m, inst.k):
                continue
            xi = build_xi(inst, j, el, m)
            residual -= coeffs[j, comp] * xi
            diff = _kron_apply(ws.transporters[j + m].matrix, xi_hat, inst.n)
            diff -= xi @ ws.transporters[j].matrix
            gap = linalg.spectral_norm(diff)
            if gap > worst:
                worst, worst_label = gap, f"j={j},ell={el},m={m}"
    gap = float(np.max(np.abs(residual)))
    gap_hat = float(np.max(np.abs(residual_hat)))
    details = {"residual": gap, "residual_hat": gap_hat}
    return {
        "V_DECOMP": (0.0, max(gap, gap_hat), max(gap, gap_hat), details, "norm"),
        "PHI_COMMUTE": (0.0, worst, worst, {"worst_channel": worst_label}, "norm"),
    }


def _table_vector_gaps(n: int, k: int, j: int) -> float:
    refs = johnson.reference_vectors(n, k, j)
    t2, t4 = johnson.basis_change_tables(n, k, j)
    gap = float(np.max(np.abs(t2 @ t2.T - np.eye(2))))
    if refs.w_out is not None:
        built = np.array(
            [
                [refs.w_out @ refs.v, refs.w_out @ refs.v_tilde],
                [refs.w_in @ refs.v, refs.w_in @ refs.v_tilde],
            ]
        )
        gap = max(gap, float(np.max(np.abs(built - t2))))
    else:
        # j = k: the one-fixed partners degenerate and w_out coincides with v,
        # so only the top-left table entry remains comparable.
        gap = max(gap, abs(1.0 - t2[0, 0]))
    if t4 is not None:
        gap = max(gap, float(np.max(np.abs(t4 @ t4.T - np.eye(4)))))
        w_rows = [refs.w_empty, refs.w_c, refs.w_d, refs.w_cd]
        v_cols = [refs.v_minus, refs.v, refs.v_zero, refs.v_plus]
        for a, w in enumerate(w_rows):
            if w is None:
                continue
            for b, v in enumerate(v_cols):
                if v is None:
                    continue
                gap = max(gap, abs(float(w @ v) - t4[a, b]))
    return gap


def _check_tables(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    gap = 0.0
    for k_level in (inst.k, inst.k_prime):
        for j in range(k_level + 1):
            gap = max(gap, _table_vector_gaps(inst.n, k_level, j))
    return {"TABLES": (0.0, gap, gap, {}, "exact")}


def _projector_family_gap(fam: johnson.ProjectorFamily):
    projs = fam.projectors
    size = projs[0].shape[0]
    gap = float(np.max(np.abs(sum(projs) - np.eye(size))))
    rank_ok = True
    for j, e in enumerate(projs):
        gap = max(gap, float(np.max(np.abs(e @ e - e))))
        gap = max(gap, float(np.max(np.abs(e - e.T))))
        if fam.dimension(j) != fam.expected_dimension(j):
            rank_ok = False
        for other in projs[j + 1 :]:
            gap = max(gap, float(np.max(np.abs(e @ other))))
    return gap, rank_ok


def _check_projectors(ws: InstanceWorkspace, t: float, ell: int):
    gap_x, ok_x = _projector_family_gap(ws.proj_x)
    gap_y, ok_y = _projector_family_gap(ws.proj_y)
    gap = max(gap_x, gap_y)
    details = {"ranks_match": ok_x and ok_y}
    # A rank mismatch is a hard failure regardless of the numeric gap.
    if not (ok_x and ok_y):
        gap = max(gap, 1.0)
    return {"PROJECTORS": (0.0, gap, gap, details, "exact")}


def _check_norm_gamma(ws: InstanceWorkspace, t: float, ell: int):
    sched = adversary.gamma_schedule(t, ws.inst.k)
    closed = float(np.max(np.abs(sched.gammas)))
    brute = linalg.spectral_norm(adversary.adversary_matrix(ws.inst, t))
    return closed, brute, abs(brute - closed), {}, "norm"


def _check_psi_power(ws: InstanceWorkspace, t: float, ell: int):
    inst = ws.inst
    bound = adversary.psi_power_lower_bound(inst, t, ell)
    brute = linalg.spectral_norm(adversary.adversary_matrix(inst, t) * ws.psi**ell)
    shortfall = max(0.0, bound - brute)
    return bound, brute, shortfall, {"ell": ell}, "norm"


_CHECK_FUNCS = {
    "PSI_COEFFS": _check_psi_coeffs,
    "DELTA_GEN": _check_delta_gen,
    "DELTA_REFL": _check_delta_refl,
    "DELTA_MEMB": _check_delta_memb,
    "V_DECOMP": _check_channels,
    "PHI_COMMUTE": _check_channels,
    "TABLES": _check_tables,
    "PROJECTORS": _check_projectors,
    "NORM_GAMMA": _check_norm_gamma,
    "PSI_POWER": _check_psi_power,
}


def verify(
    check_id: str,
    inst: ProblemInstance,
    t: float = 1.0,
    ell: int = 0,
) -> DiscrepancyReport:
    """Run one cross-check, building both sides explicitly.

    PSI_POWER reads ``ell`` (and requires t >= 2 ell); the schedule-free
    checks ignore ``t`` and are memoised per instance.  A report served
    from that memo has ``memoised`` set, and its ``wall_ms`` covers only
    the lookup; the first report for the instance paid the cost.  V_DECOMP
    and PHI_COMMUTE share one channel pass, so whichever runs first pays
    for both.  The report's ``discrepancy`` is the worst gap found; for
    DELTA_MEMB the spread of the per-element values must additionally stay
    below TOL_EXACT.  Both tolerances are read at call time.
    """
    if check_id not in _CHECK_FUNCS:
        raise ValueError(f"unknown check id {check_id!r}; known: {CHECK_IDS}")
    ws = _workspace(inst)
    memo_key = _SCHEDULE_FREE.get(check_id)
    memoised = memo_key is not None and memo_key in ws._memo
    start = time.perf_counter()
    if memo_key is not None:
        results = ws._cache(memo_key, lambda: _CHECK_FUNCS[check_id](ws, t, ell))
        closed, brute, gap, details, kind = results[check_id]
    else:
        closed, brute, gap, details, kind = _CHECK_FUNCS[check_id](ws, t, ell)
    wall_ms = (time.perf_counter() - start) * 1000.0
    tolerance = TOL_NORM if kind == "norm" else TOL_EXACT
    passed = gap <= tolerance
    if check_id == "DELTA_MEMB":
        passed = passed and details.get("spread_over_i", 0.0) <= TOL_EXACT
    if check_id == "PROJECTORS":
        passed = passed and details.get("ranks_match", False)
    return DiscrepancyReport(
        check_id=check_id,
        n=inst.n,
        k=inst.k,
        k_prime=inst.k_prime,
        t=float(t),
        ell=int(ell),
        closed_form=float(closed),
        brute_force=float(brute),
        discrepancy=float(gap),
        tolerance=float(tolerance),
        passed=bool(passed),
        wall_ms=wall_ms,
        memoised=memoised,
        details=details,
    )
