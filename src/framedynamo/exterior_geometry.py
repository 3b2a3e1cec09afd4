"""Connection forms and Riemann curvature of diagonal z-dependent coframes.

A coframe here is a triple of 1-forms

    omega^p = a_p(z) dp,   omega^q = a_q(z) dq,   omega^z = a_z(z) dz,

with strictly positive coefficients: a `frame_calculus.CoframeBasis`,
whose profile z -> (a, a', a'') gives them. A `FrameMetric` is such a
coframe, and `named_coframe` builds the five named coframes.
Two independent curvature pipelines are provided:

  * the structure-equation path: the torsion-free antisymmetric
    connection of d omega^i = -omega^i_j ^ omega^j in closed form,
    omega^i_z = c_i omega^i for i = p, q with c_i = a_i'/(a_z a_i)
    (Flanders, Differential Forms with Applications to the Physical
    Sciences, 1963, ch. 4), then the curvature 2-forms
    R^i_j = d omega^i_j + omega^i_l ^ omega^l_j, which for these coframes
    are R^i_j = K_ij omega^i ^ omega^j with the three sectional
    curvatures K_pq = -c_p c_q and K_iz = -(c_i'/a_z + c_i^2): the
    Riemann array is built from them;

  * a coordinate Christoffel-symbol oracle: Gamma^a_{bc} from the metric
    components, the coordinate Riemann tensor, converted to the
    orthonormal frame.

The connection is checked against the oracle's frame conversion
(`frame_connection_oracle`), the curvature against the oracle's Riemann
array. The symmetry residuals reported (antisymmetry, first Bianchi, pair
symmetry) are the oracle's: the structure-equation path places each
sectional curvature by those symmetries, so its residuals are 0 by
construction and show nothing.

`curvature_comparison` builds the one curvature report, the header and
table of `framedynamo curvature`'s and `verify-all`'s curvature.txt. Its
paper column quotes the paper's curvature table (`PAPER_CURVATURE`) for
`stretched_half`; that table is not this coframe's curvature. The quoted
R^p_qpq = lam e^{-lam z/2} is the connection coefficient c_q, with the
dimension of lam, not lam^2 (the computed R^p_qpq is 0), and the quoted
R^q_zqz = (1/2) lam^2 e^{-lam z} is minus the computed value, i.e. the
other order of the last index pair, R^q_zzq.

R^i_j expands as (1/2) R^i_{jkl} omega^k ^ omega^l. Coordinate Riemann
convention:
R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce}Gamma^e_{db}
- Gamma^a_{de}Gamma^e_{cb}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_calculus import CoframeBasis, ConformalFactor, FrameMetric

__all__ = [
    "ConnectionForms",
    "CurvatureReport",
    "solve_connection",
    "curvature",
    "christoffel_oracle",
    "named_coframe",
    "curvature_comparison",
]

_ZAXIS = 2  # the coefficients depend on z only


def named_coframe(name: str, lam: float) -> CoframeBasis:
    """The named coframes, by their line elements:

      flat            dp^2 + dq^2 + dz^2, FrameMetric(0);
      arnold          e^{-2 lam z} dp^2 + e^{2 lam z} dq^2 + dz^2,
                      FrameMetric(lam);
      constant:<c>    the FrameMetric with the constant conformal factor
                      c (`ConformalFactor.from_spec`);
      stretched       dp^2 + e^{4 lam z} dq^2 + e^{lam z} dz^2;
      stretched_half  dp^2 + e^{2 lam z} dq^2 + e^{lam z} dz^2, the q
                      stretching halved, whose torsion-free connection
                      has the closed form omega^q_z = lam e^{-lam z/2} omega^q.
    Every name rejects a non-finite lam, flat included. The label is the
    name and lam, "arnold (lam=1)", with "stretched-half" for stretched_half.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    label = f"{name} (lam={lam:g})"
    if name == "flat":
        return FrameMetric(0.0, label=label)
    if name == "arnold":
        return FrameMetric(lam, label=label)
    if name.startswith("constant:"):
        return FrameMetric(lam, ConformalFactor.from_spec(name, "metric"),
                           label=label)
    if name == "stretched":
        return CoframeBasis.exponential((0, 2 * lam, lam / 2), label)
    if name == "stretched_half":
        return CoframeBasis.exponential((0, lam, lam / 2),
                                        f"stretched-half (lam={lam:g})")
    raise ValueError(f"metric: unknown metric {name!r}")


@dataclass(frozen=True)
class ConnectionForms:
    """Levi-Civita connection omega^i_j = Gamma^i_{jk} omega^k on z samples."""

    z: np.ndarray
    gamma: np.ndarray  # (nz, 3, 3, 3), antisymmetric in the first two slots
    basis: CoframeBasis


def solve_connection(basis: CoframeBasis, z: np.ndarray) -> ConnectionForms:
    """Unique antisymmetric solution of d omega^i = -omega^i_j ^ omega^j.

    With d omega^i = c_i omega^z ^ omega^i for i = p, q and d omega^z = 0,
    it is the connection omega^i_z = c_i omega^i: Gamma^i_{zi} = c_i,
    Gamma^z_{ii} = -c_i, and every other entry is zero.
    """
    z = np.asarray(z, dtype=float)
    _, c, _ = basis.structure_rates(z)
    if not np.all(np.isfinite(c)):
        raise ValueError("connection has non-finite values")
    gamma = np.zeros((c.shape[1], 3, 3, 3))
    for i in range(2):
        gamma[:, i, 2, i] = c[i]
        gamma[:, 2, i, i] = -c[i]
    return ConnectionForms(z, gamma, basis)


@dataclass(frozen=True)
class CurvatureReport:
    """Frame Riemann components R^i_{jkl} over z, with symmetry residuals."""

    z: np.ndarray
    riemann: np.ndarray  # (nz, 3, 3, 3, 3)

    def component(self, i: int, j: int, k: int, l: int) -> np.ndarray:
        return self.riemann[:, i, j, k, l]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.riemann)))

    def antisymmetry_residual(self) -> float:
        """Lowered first-pair antisymmetry R_{ijkl} = -R_{jikl}.

        In an orthonormal frame lowering is the identity, so this checks
        R^i_{jkl} + R^j_{ikl} directly.
        """
        return float(np.max(np.abs(self.riemann + np.swapaxes(self.riemann, 1, 2))))

    def bianchi_residual(self) -> float:
        r = self.riemann
        cyc = r + np.moveaxis(r, (2, 3, 4), (4, 2, 3)) + np.moveaxis(r, (2, 3, 4), (3, 4, 2))
        return float(np.max(np.abs(cyc)))

    def pair_symmetry_residual(self) -> float:
        r = self.riemann
        return float(np.max(np.abs(r - np.transpose(r, (0, 3, 4, 1, 2)))))

    def last_pair_antisymmetry_residual(self) -> float:
        r = self.riemann
        return float(np.max(np.abs(r + np.swapaxes(r, 3, 4))))

    def max_difference(self, other: "CurvatureReport") -> float:
        return float(np.max(np.abs(self.riemann - other.riemann)))


def curvature(conn: ConnectionForms) -> CurvatureReport:
    """Frame Riemann components from the three sectional curvatures.

    For a diagonal coframe in z alone the curvature 2-forms
    R^i_j = d omega^i_j + omega^i_l ^ omega^l_j of omega^i_z = c_i omega^i
    reduce to R^i_j = K_ij omega^i ^ omega^j (Flanders, ch. 4), with

        K_pq = -c_p c_q,   K_iz = -(c_i'/a_z + c_i^2)   (i = p, q),

    so R^i_{jij} = -R^i_{jji} = K_ij, and the pair symmetries of the
    orthonormal frame place the rest; every other component is zero.
    Raises ValueError when c' or a curvature is not finite.
    """
    z = conn.z
    a, c, dc = conn.basis.structure_rates(z)
    if not np.all(np.isfinite(dc)):
        raise ValueError("curvature: the z-derivative c' of the connection "
                         "coefficients is not finite")
    riemann = np.zeros((len(z), 3, 3, 3, 3))
    # 0.0 - x keeps a zero component +0.0 where -x would give -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        sectional = (((0, 1), 0.0 - c[0] * c[1]),
                     ((0, 2), 0.0 - (dc[0] / a[2] + c[0] * c[0])),
                     ((1, 2), 0.0 - (dc[1] / a[2] + c[1] * c[1])))
    for (i, j), k in sectional:
        if not np.all(np.isfinite(k)):
            raise ValueError("curvature: a sectional curvature is not finite")
        riemann[:, i, j, i, j] = riemann[:, j, i, j, i] = k
        riemann[:, i, j, j, i] = riemann[:, j, i, i, j] = 0.0 - k
    return CurvatureReport(z, riemann)


def _coordinate_christoffel(basis: CoframeBasis, z: np.ndarray
                            ) -> tuple[np.ndarray, ...]:
    """Coordinate Christoffel symbols of g_ii = a_i(z)^2 and their z-derivative.

    Returns (a, da, Gamma, dGamma) with Gamma[:, A, B, C] = Gamma^A_{BC}
    = (1/2) g^{AA} (d_B g_{AC} + d_C g_{AB} - d_A g_{BC}), formed over the
    full index tensors from d_b g_{dc} as one (n, 3, 3, 3) array.
    """
    z = np.asarray(z, dtype=float)
    a, da, d2a = basis.scale_factors(z)
    g = a ** 2
    gp = 2 * a * da                    # d_z g_ii
    gpp = 2 * (da ** 2 + a * d2a)      # d_z^2 g_ii
    if np.any(g <= 0):
        raise ValueError("metric is not invertible on the sample points")
    ginv = (1.0 / g).T[:, :, None, None]
    ginv_p = (-gp / g ** 2).T[:, :, None, None]
    # dg[k, :, b, d, c] = d_b g_{dc} (k = 0) and d_b d_z g_{dc} (k = 1):
    # the metric is diagonal and depends on z alone
    legs = np.arange(3)
    dg = np.zeros((2, len(z), 3, 3, 3))
    dg[:, :, _ZAXIS, legs, legs] = np.stack([gp.T, gpp.T])
    # s[k, :, A, B, C] = d_B g_{AC} + d_C g_{AB} - d_A g_{BC}
    s = np.swapaxes(dg, 2, 3) + np.moveaxis(dg, 2, 4) - dg
    Gam = 0.5 * ginv * s[0]
    dGam = 0.5 * (ginv_p * s[0] + ginv * s[1])
    return a, da, Gam, dGam


def christoffel_oracle(basis: CoframeBasis, z: np.ndarray) -> CurvatureReport:
    """Coordinate Christoffel/Riemann pipeline converted to the frame.

    Independent of the structure-equation path: works on the metric
    components g_ii = a_i(z)^2 with the textbook formulas over the full
    index tensors,
    R^a_{bcd} = (L^a_{bcd} - L^a_{bdc}) + (Q^a_{bcd} - Q^a_{bdc}) with
    L^a_{bcd} = delta_{cz} d_z Gamma^a_{db} and
    Q^a_{bcd} = Gamma^a_{ce} Gamma^e_{db},
    then R_frame^i_{jkl} = R^i_{jkl} a_i / (a_j a_k a_l).
    """
    z = np.asarray(z, dtype=float)
    a, _, Gam, dGam = _coordinate_christoffel(basis, z)
    L = np.zeros((len(z), 3, 3, 3, 3))
    L[:, :, :, _ZAXIS, :] = np.swapaxes(dGam, 2, 3)
    Q = np.einsum("nace,nedb->nabcd", Gam, Gam)
    R = (L - np.swapaxes(L, 3, 4)) + (Q - np.swapaxes(Q, 3, 4))
    # orthonormal-frame conversion for the diagonal coframe
    at = a.T
    ai = at[:, :, None, None, None]
    aj = at[:, None, :, None, None]
    ak = at[:, None, None, :, None]
    al = at[:, None, None, None, :]
    return CurvatureReport(z, R * ai / (aj * ak * al))


def frame_connection_oracle(basis: CoframeBasis, z: np.ndarray) -> np.ndarray:
    """Frame connection coefficients from coordinate Christoffel symbols.

    Gamma_frame^i_{jk} = a_i [ Gamma_coord^i_{kj}/(a_k a_j)
    - delta_{ij} d_k(a_j) / (a_k a_j^2) ]; used to cross-check
    solve_connection.
    """
    a, da, Gam, _ = _coordinate_christoffel(basis, z)
    at = a.T
    out = (np.swapaxes(Gam, 2, 3) / (at[:, None, None, :] * at[:, None, :, None])
           * at[:, :, None, None])
    legs = np.arange(3)
    out[:, legs, legs, _ZAXIS] -= (a * da / (a[_ZAXIS] * a ** 2)).T
    return out


# -- report serialization -----------------------------------------------------

# the paper's curvature table: name, frame index and quoted form(lam, z).
# The forms are quoted for comparison only; the oracle is the reference
# for the computed curvature. The module docstring says what they are for
# `stretched_half`.
PAPER_CURVATURE = (
    ("R^p_qpq", (0, 1, 0, 1), lambda lam, z: lam * np.exp(-lam * z / 2)),
    ("R^q_zqz", (1, 2, 1, 2), lambda lam, z: 0.5 * lam ** 2 * np.exp(-lam * z)),
    ("R^p_zpq", (0, 2, 0, 1), lambda lam, z: 0.0),
)


def comparison_table(cartan: CurvatureReport, oracle: CurvatureReport,
                     lam: float, stride: int = 1) -> str:
    """Plain-text table: z, component, cartan, oracle, paper, |delta|.

    One block per component of PAPER_CURVATURE, its form taken at lam.
    |delta| is the gap between the structure-equation value and the quoted
    closed form; the cartan-vs-oracle agreement is asserted elsewhere, the
    closed-form column is report-only.
    """
    lines = [f"{'z':>12} {'component':>10} {'cartan':>18} {'oracle':>18} "
             f"{'paper':>18} {'|delta|':>12}"]
    for name, idx, form in PAPER_CURVATURE:
        for n in range(0, len(cartan.z), stride):
            zv = cartan.z[n]
            cv = cartan.riemann[(n, *idx)]
            ov = oracle.riemann[(n, *idx)]
            pv = form(lam, zv)
            lines.append(f"{zv:12.6f} {name:>10} {cv:18.10e} {ov:18.10e} "
                         f"{pv:18.10e} {abs(cv - pv):12.4e}")
    return "\n".join(lines) + "\n"


def curvature_comparison(metric: str, lam: float, z: np.ndarray
                         ) -> tuple[str, str]:
    """Header and comparison table of the named coframe's curvature.txt.

    Runs the connection, the curvature and the Christoffel oracle on z;
    the header carries their agreement and the oracle's symmetry residuals
    (the cartan build's are 0 by construction) and says what the columns
    are, the table samples about ten z per component.
    """
    basis = named_coframe(metric, lam)
    cart = curvature(solve_connection(basis, z))
    orac = christoffel_oracle(basis, z)
    header = (
        f"metric: {basis.label}\n"
        f"cartan-vs-oracle max difference : {cart.max_difference(orac):.6e}\n"
        f"oracle antisymmetry residual    : {orac.antisymmetry_residual():.6e}\n"
        f"oracle first-bianchi residual   : {orac.bianchi_residual():.6e}\n"
        f"oracle pair-symmetry residual   : {orac.pair_symmetry_residual():.6e}\n"
        "cartan: built from the three sectional curvatures\n"
        "oracle: the coordinate Christoffel pipeline, the reference\n"
        "paper : the closed forms quoted for stretched_half, report-only:\n"
        "  R^p_qpq = lam e^{-lam z/2} is its connection coefficient c_q "
        "(dimension lam, not lam^2)\n"
        "  R^q_zqz = (1/2) lam^2 e^{-lam z} is minus its computed R^q_zqz "
        "(the last index pair reversed)\n\n")
    table = comparison_table(cart, orac, lam, stride=max(1, len(z) // 9))
    return header, table
