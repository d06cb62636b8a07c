"""Idealized linear-optics realization of the measurement.

A network is an ordered list of two-mode layers plus one per-mode phase
layer.  Lines of the serialized form read as the factorization of the
network unitary from left to right:

    U = layer[0] @ layer[1] @ ... @ layer[-1] @ diag(exp(i * phases))

so the phase layer is the final (rightmost) factor and acts on the input
ports; the first listed two-mode layer is the leftmost factor.  Each layer
applies the block

    [[sin(w) e^{i phi}, cos(w) e^{i phi}],
     [cos(w) e^{i theta}, -sin(w) e^{i theta}]]

at its mode pair.  Such a block factors as a phase diagonal times a real
splitter, so it can absorb an arbitrary phase diagonal on its right (input
side) but not on its left; the phase layer therefore sits on the input
side, and the triangular elimination below reaches every unitary with at
most N(N-1)/2 two-mode layers.

An :class:`Interferometer` stores its layers as arrays, not as one object per
layer: ``modes`` holds the (L, 2) 0-based mode pairs in listed order,
``angles`` the (L, 3) angles (w, phi, theta) and ``phases`` the N input
phases.  The arrays are read-only and validated together when the network is
built; synthesis, composition and the text form work on them whole.

``Interferometer.apply(states)`` propagates input amplitudes, one column per
state, through the network in wavefronts; ``Interferometer.unitary()`` is
``apply`` to the N x N identity.  Composing holds the 2x2 blocks of all L
layers at once, so a single photon costs O(N + L) memory rather than
O(N^2 + L).  Click probabilities are always read
through ``apply``: :func:`output_distribution` propagates the one photon.  The
tallies of i.i.d. shots follow a multinomial law over the (input, click)
cells, so every sampler draws them as one multinomial of its seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .povm import (
    Priors, check_omega1, check_priors, omega2_constraint, success_curve_x, x_from_omega1,
)
from .scalars import check_integer
from .spaces import TAU_NORM, check_array, check_build_bytes

# Values after the keyword of each MODES or PHASE line; a BS line has five.
_LINE_FIELDS = {"MODES": 1, "PHASE": 2}
# Port amplitudes (g_perp, h, vacuum) of the six-port's inputs, and its outputs.
_PORT_STATES = {"g": (np.sqrt(3.0) / 2.0, -0.5, 0.0), "h": (0.0, 1.0, 0.0),
                "g_perp": (1.0, 0.0, 0.0)}
_PORTS = ("D1", "D2", "F")

# Most shots one sampling call accepts.  A call draws one multinomial whatever
# the count, so this bounds no time or memory; it is the largest count the tests
# sample end to end, and its tallies stay far inside int64.
MAX_SHOTS = 10**9
# Most modes a network may have.
MAX_MODES = 2**12
# Bytes that the mesh calls hold at once, told to spaces.check_build_bytes
# before they allocate (tracemalloc peaks at 64 to 1024 modes in brackets):
# apply() per layer (233 to 264) and per complex amplitude it composes (the
# input, its phased copy, and the gathered rows of one depth and their product),
# reck_decompose per entry of its matrix (5.6 times 16), to_text() per line it
# writes (309), and from_text() per BS or PHASE line it keeps (81 from 256 modes
# on, and 156) plus per character of the one piece of text it splits at a time
# (7 on to_text's lines, up to 35 on comment lines of a 4-byte character), then
# per mode of the network it builds (24 at 4096 modes: the phase list and arrays).
_LAYER_BYTES, _AMPLITUDE_BYTES = 320, 4 * 16
_SYNTHESIS_BYTES = 7 * 16
_LINE_BYTES = 400
_PARSED_LINE_BYTES, _CHAR_BYTES, _MODE_BYTES = 160, 40, 32
# Least characters of each piece from_text() splits into lines.
_CHUNK_CHARS = 2**14


def seeded_stream(seed: int) -> np.random.Generator:
    """The one counter-based Philox stream a sampling call draws from, keyed by
    (seed, 0): seed is a whole number in [0, 2^64); others raise DomainError."""
    key = [check_integer(seed, 0, "seed", 2**64 - 1), 0]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _blocks(omega: np.ndarray, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The block of the module docstring for each entry of angle arrays of one shape,
    already checked, on the last two axes."""
    s, c = np.sin(omega), np.cos(omega)
    e_phi, e_theta = np.exp(1j * phi), np.exp(1j * theta)
    rows = (np.stack([s * e_phi, c * e_phi], -1), np.stack([c * e_theta, -s * e_theta], -1))
    return np.stack(rows, -2)


def _layer_arrays(modes, angles, num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (L, 2) int64 mode pairs and (L, 3) float angles of L layers; two
    empty inputs give no layers.

    DomainError unless both are tables of real numbers of those shapes, the modes
    whole numbers in [0, num_modes) and distinct within each pair, and the angles finite.
    An integer array of modes is checked as it is, with no cast to float and back.
    """
    whole = isinstance(modes, np.ndarray) and modes.dtype.kind in "iu"
    modes = modes if whole else check_array(modes, "layer modes", None, float)
    angles = check_array(angles, "layer angles", None, float)
    if not modes.size and not angles.size:
        modes, angles = np.zeros((0, 2)), np.zeros((0, 3))
    layers = modes.shape[:1]
    if modes.shape != (*layers, 2) or angles.shape != (*layers, 3):
        raise DomainError(f"layer modes and angles must have shapes (L, 2) and (L, 3), "
                          f"got {modes.shape} and {angles.shape}")
    if not (whole or (modes == np.trunc(modes)).all()):  # NaN fails too
        raise DomainError("layer modes must be whole numbers")
    if not ((modes >= 0) & (modes < num_modes)).all():
        raise DomainError("layer modes outside the network")
    if not (modes[:, 0] != modes[:, 1]).all():
        raise DomainError("layer modes must differ")
    if not np.isfinite(angles).all():
        raise DomainError("layer angles must be finite")
    modes, angles = modes.astype(np.int64), angles.copy()
    modes.flags.writeable = angles.flags.writeable = False
    return modes, angles


@dataclass(frozen=True, eq=False)
class Interferometer:
    """An ordered mesh of two-mode layers with input-port phases, stored as arrays.

    Layer k acts on the 0-based mode pair ``modes[k]`` with the angles
    ``angles[k]`` = (omega, phi, theta); ``phases`` holds one phase per mode
    (all zero when omitted).  The stored arrays are read-only copies.
    """

    num_modes: int
    modes: np.ndarray = ()
    angles: np.ndarray = ()
    phases: np.ndarray = ()

    def __post_init__(self) -> None:
        num_modes = check_integer(self.num_modes, 1, "num_modes", MAX_MODES)
        modes, angles = _layer_arrays(self.modes, self.angles, num_modes)
        phases = check_array(self.phases, "phases", None, float)
        phases = phases.copy() if phases.size else np.zeros(num_modes)
        if phases.shape != (num_modes,):
            raise DomainError(f"phases must have shape ({num_modes},), got {phases.shape}")
        if not np.isfinite(phases).all():
            raise DomainError("phases must be finite")
        phases.flags.writeable = False
        for attr, value in (("num_modes", num_modes), ("modes", modes), ("angles", angles),
                            ("phases", phases)):
            object.__setattr__(self, attr, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interferometer):
            return NotImplemented
        return self.num_modes == other.num_modes and all(
            np.array_equal(getattr(self, attr), getattr(other, attr))
            for attr in ("modes", "angles", "phases")
        )

    def _compose(self, mat: np.ndarray) -> np.ndarray:
        """Apply the two-mode layers to the rows of `mat` in place, in wavefronts.

        Layers are taken in application order (last listed first), and each
        gets depth 1 + the larger depth reached so far on its two modes.  The
        layers of one depth act on disjoint modes, and every mode meets its
        layers in order, so each depth is applied as one batched product of
        its 2x2 blocks with the rows they act on.  One stable argsort of the
        depths makes each depth a slice of the sorted layers.  A depth of one
        layer on modes a < b multiplies the two-row view ``mat[a:b + 1:b - a]``
        in place of a gather and a scatter; a reversed pair is gathered, since
        numpy's matmul rounds one column of a view with a negative stride
        differently.  This holds for any layer order; the result equals
        layer-by-layer composition bit for bit.
        """
        if not len(self.modes):
            return mat
        reached = [0] * self.num_modes  # depth of the last layer on each mode
        depths = []
        for a, b in zip(self.modes[::-1, 0].tolist(), self.modes[::-1, 1].tolist()):
            depth = reached[a] if reached[a] > reached[b] else reached[b]
            reached[a] = reached[b] = depth + 1
            depths.append(depth)
        order = len(depths) - 1 - np.argsort(depths, kind="stable")  # listed indices
        modes = self.modes[order]
        blocks = _blocks(*self.angles[order].T)  # angles that __post_init__ checked
        bounds = np.cumsum(np.bincount(depths)).tolist()
        for lo, hi in zip([0, *bounds], bounds):
            a, b = modes[lo].tolist()
            if hi - lo == 1 and a < b:
                rows = mat[a:b + 1:b - a]
                rows[...] = blocks[lo] @ rows
            else:
                rows = modes[lo:hi]
                mat[rows] = blocks[lo:hi] @ mat[rows]
        return mat

    def unitary(self) -> np.ndarray:
        """The N x N network unitary: the network applied to the identity."""
        return self.apply(np.eye(self.num_modes, dtype=complex))

    def apply(self, states) -> np.ndarray:
        """The network applied to input amplitudes `states`, shape (N,) or (N, k),
        without building the unitary; equals ``unitary() @ states`` up to rounding.

        ContractError unless `states` is a finite array of one of those shapes.
        """
        states = check_array(states, "states", (1, 2), complex)
        if len(states) != self.num_modes:
            raise ContractError(f"states must have shape ({self.num_modes},) or "
                                f"({self.num_modes}, k), got {states.shape}")
        check_build_bytes(_AMPLITUDE_BYTES * states.size + _LAYER_BYTES * len(self.modes),
                          "composing the network")
        if not np.isfinite(states).all():
            raise ContractError("states must be finite")
        columns = states[:, None] if states.ndim == 1 else states
        columns = np.exp(1j * self.phases)[:, None] * columns
        return self._compose(columns).reshape(states.shape)

    def to_text(self) -> str:
        """Serialize as BS lines followed by PHASE lines (1-based modes)."""
        check_build_bytes(_LINE_BYTES * (len(self.modes) + self.num_modes), "the network text")
        fields = np.hstack([self.modes + 1, self.angles]).ravel().tolist()
        bs_lines = ("BS %d %d %.17g %.17g %.17g\n" * len(self.modes)) % tuple(fields)
        phase_lines = "".join(f"PHASE {m + 1} {p:.17g}\n"
                              for m, p in enumerate(self.phases.tolist()) if p != 0.0)
        return f"MODES {self.num_modes}\n{bs_lines}{phase_lines}"

    @classmethod
    def from_text(cls, text: str) -> "Interferometer":
        """Parse :meth:`to_text` output; a line it cannot round-trip, or text that
        is not a str, raises DomainError.

        The text is read in pieces of whole lines, at least _CHUNK_CHARS long
        but the last, and the BS values of each piece are converted before the next.
        """
        if not isinstance(text, str):
            raise DomainError(f"network text must be a str, not {type(text).__name__}")
        cuts = [0]
        while cuts[-1] < len(text):
            cuts.append(text.find("\n", cuts[-1] + _CHUNK_CHARS - 1) + 1 or len(text))
        widest = max((hi - lo for lo, hi in zip(cuts, cuts[1:])), default=0)
        bs_lines = text.count("BS")  # at least the BS lines
        lines = bs_lines + text.count("PHASE")  # at least the BS and PHASE lines
        check_build_bytes(_PARSED_LINE_BYTES * lines + _CHAR_BYTES * widest,
                          "parsing the network text")
        num_modes, bad_modes, bad_angles = None, None, None
        # The values of the BS lines, filled a piece at a time: 0-based modes, angles.
        modes, angles = np.empty(2 * bs_lines, dtype=np.int64), np.empty(3 * bs_lines)
        kept = 0  # BS lines read so far
        phases: dict[int, float] = {}
        for lo, hi in zip(cuts, cuts[1:]):
            bs_modes: list[str] = []  # the values of the piece's BS lines
            bs_angles: list[str] = []
            for raw in text[lo:hi].splitlines():
                parts = raw.split()
                if len(parts) == 6 and parts[0] == "BS":
                    bs_modes += parts[1:3]
                    bs_angles += parts[3:]
                    continue
                if not parts or parts[0].startswith("#"):
                    continue
                kind, values = parts[0], parts[1:]
                if _LINE_FIELDS.get(kind) != len(values):
                    raise DomainError(f"unrecognized line: {raw!r}")
                try:
                    if kind == "MODES" and num_modes is None:
                        num_modes = check_integer(int(values[0]), 1, "num_modes", MAX_MODES)
                    elif kind == "PHASE" and int(values[0]) - 1 not in phases:
                        phases[int(values[0]) - 1] = float(values[1])
                    else:
                        raise DomainError("repeated header or phase")
                except DomainError as exc:
                    raise DomainError(f"line {raw!r}: {exc}") from None
                except ValueError:  # int() or float() refused a value
                    raise DomainError(f"line {raw!r}: modes must be whole numbers, "
                                      "phases real numbers") from None
            first, kept = kept, kept + len(bs_angles) // 3
            # A refused value is raised after the header checks, a mode before an angle.
            # The modes are shifted to 0-based before the angles are parsed: with no numpy
            # arithmetic between the two conversions, parsing the angles took about 1.6
            # times as long in the benchmark's mesh rounds (2-vCPU x86 VM).
            try:  # int(), not float(), of each mode value, so "1e0" and "1.0" are refused
                modes[2 * first:2 * kept] = np.array(bs_modes, dtype=np.int64) - 1
            except OverflowError:
                bad_modes = bad_modes or "layer modes outside the network"
            except ValueError:
                bad_modes = bad_modes or "layer modes must be whole numbers"
            try:
                angles[3 * first:3 * kept] = np.array(bs_angles, dtype=float)
            except ValueError:
                bad_angles = "layer angles must be real numbers"
        if num_modes is None:
            raise DomainError("missing MODES header")
        check_build_bytes(_PARSED_LINE_BYTES * lines + _MODE_BYTES * num_modes,
                          "the parsed network")
        if not all(0 <= m < num_modes for m in phases):
            raise DomainError("PHASE line for a mode outside the network")
        if bad_modes or bad_angles:
            raise DomainError(bad_modes or bad_angles)
        modes, angles = modes[:2 * kept].reshape(-1, 2), angles[:3 * kept].reshape(-1, 3)
        phase_list = [phases.get(m, 0.0) for m in range(num_modes)]
        return cls(num_modes, modes, angles, phase_list)


def discriminator_network(omega1: float) -> Interferometer:
    """Six-port device distinguishing one paired-basis vector pair.

    Ports: inputs (g_perp, h, vacuum), outputs (D1, D2, F).  Two cascaded
    splitters: the first couples the g_perp port to the vacuum port at
    omega1, the second couples the h port to the vacuum port at omega2.

    In these bases the columns are

        U3 e_gperp = (-sin w1, cos w1 cos w2, -cos w1 sin w2)
        U3 e_h     = (0, sin w2, cos w2)

    with cos^2 w2 = 1 / (1 + 3 cos^2 w1).  The sign of the sin w2 entries is
    fixed by the no-click condition: injecting the superposition
    (sqrt(3)/2) g_perp - (1/2) h must produce zero amplitude at D2, which
    forces sin w2 = +sqrt(3) cos w1 cos w2 in this column convention.  The
    Born probabilities then reproduce the povm.block_povm expectations exactly.
    """
    omega1 = check_omega1(omega1)
    omega2 = omega2_constraint(omega1)
    # Listed order is the matrix product order; the omega1 splitter acts on
    # the input state first, hence sits rightmost.
    return Interferometer(3, modes=[(1, 2), (0, 2)],
                          angles=[(omega2, 0.0, 0.0), (omega1, np.pi, 0.0)])


def discriminator_port_state(which: str) -> np.ndarray:
    """Port amplitudes of the injected g, h or g_perp state: its coordinates in
    the orthonormal (g_perp, h) frame of one Jordan block, then the vacuum port."""
    if not isinstance(which, str) or which not in _PORT_STATES:
        raise DomainError(f"unknown input {which!r}")
    return np.array(_PORT_STATES[which], dtype=complex)


def reck_decompose(matrix: np.ndarray) -> Interferometer:
    """Triangular mesh synthesis of an arbitrary unitary.

    Left-multiplies the target by inverses of two-mode blocks to null the
    strict lower triangle column by column (pivot row = diagonal row); the
    surviving diagonal becomes the input phase layer.  Emits at most
    N(N-1)/2 layers; entries that are already zero are skipped.

    Step (col, row) reads and writes rows col and row only, so the steps
    with one value of t = col + row act on disjoint rows, and each row meets
    its steps in order of t as it does column by column.  The steps run as
    wavefronts t = 1 .. 2N-3 over the columns lo .. hi-1, lo = max(0, t-N+1).
    Each updates two strided views of its rows in place, rows lo .. hi-1 and
    rows t-lo down to t-hi+1, from column lo on: the columns left of lo are
    eliminated in every row it touches and are not read again.  A wavefront
    that skips a step gathers and writes back the rows of its kept steps.  The
    layers are emitted in (col, row) order, the same layers with the same
    angles as a column-by-column elimination.
    """
    mat = check_array(matrix, "input", (2,), complex)
    if mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ContractError("input must be a non-empty square matrix")
    dim = check_integer(mat.shape[0], 1, "num_modes", MAX_MODES)
    check_build_bytes(_SYNTHESIS_BYTES * mat.size, "the mesh synthesis")
    mat = mat.copy()
    if not (np.isfinite(mat).all() and np.abs(mat.conj().T @ mat - np.eye(dim)).max() <= 1e-8):
        raise ContractError("input matrix is not unitary")

    # angles[:, col * dim + row] = (omega, phi, theta) of step (col, row), if kept.
    angles = np.zeros((3, dim * dim))
    kept = np.zeros(dim * dim, dtype=bool)
    for t in range(1, 2 * dim - 2):
        lo, hi = max(0, t - dim + 1), (t + 1) // 2  # the columns of the wavefront
        # Rows lo..hi-1 and t-lo down to t-hi+1, from column lo on: the steps'
        # pivots and targets are the diagonals of the two views.
        top, bot = mat[lo:hi, lo:], mat[t - lo:t - hi:-1, lo:]
        slots = slice(t + lo * (dim - 1), t + hi * (dim - 1), dim - 1)  # col * dim + t - col
        # Contiguous copies: the targets' diagonal runs backwards in memory, and numpy's
        # arctan2 (so np.angle) rounds some values read with a negative stride differently.
        pivot, target = top.diagonal().copy(), bot.diagonal().copy()
        # hypot, not np.abs: it matches the scalar abs() bit for bit.
        size = np.hypot(target.real, target.imag)
        steps = size > 1e-14
        if steps.all():
            steps = slice(None)  # the views themselves, not gathered rows
        elif steps.any():
            pivot, target, size = pivot[steps], target[steps], size[steps]
        else:
            continue
        phi, theta = np.angle(pivot), np.angle(target)
        omega = np.arctan2(np.hypot(pivot.real, pivot.imag), size)
        s, c = np.sin(omega)[:, None], np.cos(omega)[:, None]
        e_phi, e_theta = np.exp(-1j * phi)[:, None], np.exp(-1j * theta)[:, None]
        upper, lower = top[steps], bot[steps]
        new_upper = s * e_phi * upper + c * e_theta * lower
        bot[steps] = c * e_phi * upper - s * e_theta * lower
        top[steps] = new_upper
        angles[:, slots][:, steps] = omega, phi, theta
        kept[slots][steps] = True

    cols, rows = np.divmod(np.flatnonzero(kept), dim)  # in (col, row) order
    phases = np.angle(np.diag(mat))
    phases[np.abs(phases) < 1e-14] = 0.0
    return Interferometer(dim, np.stack([cols, rows], 1), angles[:, kept].T, phases)


def prepare_state_network(amplitudes: np.ndarray, n: int) -> Interferometer:
    """Cascade preparing a target state from a photon in the first mode.

    The first column of the composed unitary equals ``amplitudes``; the
    remaining columns are an arbitrary unitary completion.  Layer (k, k+1) has
    omega = arctan2(|a_k|, ||a_{k+1:}||) and phi = arg a_k, so mode k keeps its
    final amplitude and hands the rest onward; the layer on the last two modes
    also sets theta = arg a_{N-1}.
    """
    amps = check_array(amplitudes, "amplitudes", (1,), complex)
    n = check_integer(n, 1, "num_modes", MAX_MODES)  # before the cascade is computed
    if len(amps) != n:
        raise ContractError(f"expected {n} amplitudes, got shape {amps.shape}")
    if not abs(np.linalg.norm(amps) - 1.0) <= TAU_NORM:
        raise ContractError("amplitudes must have unit norm")

    if abs(abs(amps[0]) - 1.0) < 1e-14:
        phase = float(np.angle(amps[0]))
        phases = [0.0] * n
        phases[0] = 0.0 if abs(phase) < 1e-14 else phase
        return Interferometer(num_modes=n, phases=phases)

    # tail[k] = ||a_{k:}||, the weight still to be placed at layer k.  It never
    # grows with k, so the cascade stops at the first layer it reaches below 1e-14.
    mags = np.abs(amps)
    tail = np.sqrt(np.cumsum(mags[::-1] ** 2)[::-1])
    layers = int((tail[:-1] >= 1e-14).sum())
    phases = np.where(mags > 0, np.angle(amps), 0.0)
    angles = np.zeros((layers, 3))
    angles[:, 0] = np.arctan2(mags[:layers], tail[1:layers + 1])
    angles[:, 1] = phases[:layers]
    angles[n - 2:, 2] = phases[-1]  # only the layer on the last two modes sets theta
    k = np.arange(layers)
    return Interferometer(n, np.stack([k, k + 1], 1)[::-1], angles[::-1])


def output_distribution(net: Interferometer, input_state: np.ndarray) -> np.ndarray:
    """Born probabilities over output modes for a single-photon input, propagated
    by ``net.apply``; ContractError unless the input is a unit vector of N amplitudes."""
    amps = check_array(input_state, "input", (1,), complex)
    if len(amps) != net.num_modes:
        raise ContractError(f"input must have {net.num_modes} amplitudes, got {len(amps)}")
    if not abs(np.linalg.norm(amps) - 1.0) <= TAU_NORM:
        raise ContractError("input must be a unit vector")
    probs = np.abs(net.apply(amps)) ** 2
    return probs / probs.sum()


def simulate_clicks(net: Interferometer, input_state: np.ndarray, shots: int,
                    seed: int) -> dict[str, int]:
    """Sample i.i.d. output-mode clicks, counted as {"m1": ..., "mN": ...}: one
    multinomial draw of the seeded stream over the Born distribution."""
    shots = check_integer(shots, 1, "shots", MAX_SHOTS)
    rng = seeded_stream(seed)
    tallies = rng.multinomial(shots, output_distribution(net, input_state))
    return {f"m{i + 1}": int(c) for i, c in enumerate(tallies)}


@dataclass(frozen=True)
class DiscriminationRun:
    """Tallies of a priors-weighted run through the six-port device: clicks per
    port, shots per input, and the shots that succeeded."""

    counts: dict[str, int]
    input_counts: dict[str, int]
    successes: int


def _port_distributions(omega1: float) -> np.ndarray:
    """Born distributions over (D1, D2, F) of the g and h port states, one row each."""
    net = discriminator_network(omega1)
    return np.array([output_distribution(net, discriminator_port_state(which))
                     for which in ("g", "h")])


def simulate_discriminator(
    omega1: float, priors: Priors, shots: int, seed: int
) -> DiscriminationRun:
    """Sample the six-port discriminator with inputs drawn from the priors.

    The (input, click) tallies of the shots, rows g and h and columns D1, D2
    and F, are one multinomial draw of the seeded stream over the cells
    eta_i * p_i(port).  A shot succeeds when a g input clicks D1 or an h input
    clicks D2; the expected success rate is the per-subspace curve at
    x = 1 + 3 cos^2 w1.
    """
    priors = check_priors(priors)
    shots = check_integer(shots, 1, "shots", MAX_SHOTS)
    rng = seeded_stream(seed)
    joint = np.array([[priors.eta1], [priors.eta2]]) * _port_distributions(omega1)
    table = rng.multinomial(shots, joint.ravel()).reshape(joint.shape)
    return DiscriminationRun(
        counts=dict(zip(_PORTS, table.sum(axis=0).tolist())),
        input_counts=dict(zip(("g", "h"), table.sum(axis=1).tolist())),
        successes=int(table[0, 0] + table[1, 1]),
    )


def analytic_discriminator_probabilities(omega1: float, priors: Priors) -> dict[str, float]:
    """Exact outcome probabilities of the priors-weighted six-port run."""
    dist_g, dist_h = _port_distributions(omega1)
    priors = check_priors(priors)
    mixed = priors.eta1 * dist_g + priors.eta2 * dist_h
    return {**dict(zip(_PORTS, mixed.tolist())),
            "success": success_curve_x(x_from_omega1(omega1), priors)}
