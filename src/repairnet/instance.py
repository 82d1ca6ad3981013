"""Problem instances: data model, random generator, and JSON persistence.

Random generation follows a fixed recipe on a 5x5 lattice (cost kind,
shared degradation cap, machine count and coordinates, traffic intensity
split across machines, relative switching speed).  All draws come from a
seeded counter-based generator so that the same seed reproduces the same
instance on any platform.
"""

from __future__ import annotations

import enum
import json
import numbers
import re
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

from .network import LayoutError, NetworkLayout, build_lattice_layout

SCHEMA_VERSION = 1

# Child-stream ids for seed derivation; see _generator().
STREAM_INSTANCE = 0
STREAM_CRN = 1
STREAM_OPI_OFFLINE = 2
STREAM_OPI_ONLINE = 3


class CostKind(enum.Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    PIECEWISE_LINEAR = "piecewise_linear"


@dataclass(frozen=True)
class CostModel:
    """Per-machine cost-rate functions, increasing in the degradation level.

    linear: c_i * x; quadratic: c_i * x^2; piecewise_linear: c_i * x plus
    an extra 10 * c_i penalty at the failed state.
    """

    kind: CostKind
    c: tuple[float, ...]

    def rate(self, machine: int, level: int, cap: int) -> float:
        """Cost per unit time for machine ``machine`` (1-based) at ``level``."""
        ci = self.c[machine - 1]
        if self.kind is CostKind.LINEAR:
            return ci * level
        if self.kind is CostKind.QUADRATIC:
            return ci * level * level
        return ci * (level + (10 if level == cap else 0))


@dataclass(frozen=True)
class InstanceParameters:
    """One problem instance: layout, rates, caps, and cost model.

    Rates are interpreted per unit time; the uniformized chain advances in
    steps of ``1 / uniformization_rate`` so per-step event probabilities
    are ``rate * step_length``.

    ``lam`` is the instance file's ``lambda`` and ``cap`` its ``K``.  The
    constructor holds every rule on the values, and its ValueError names
    the field as the file does: ``K[0]: 1.5 is not an integer >= 1``.
    """

    layout: NetworkLayout
    lam: tuple[float, ...]
    mu: tuple[float, ...]
    tau: float
    cap: tuple[int, ...]
    cost: CostModel
    seed: int | None = None
    rho_nominal: float | None = None

    def __post_init__(self) -> None:
        m = self.layout.machine_count
        # A NaN or infinite rate would make the step length NaN or 0, a
        # NaN or infinite cost keeps policy evaluation from converging, and
        # a cost coefficient of 0 or less makes the cost rate fall, not
        # rise, with the level.
        for name, values, rule, what in (
            ("lambda", self.lam, _is_positive, "a positive finite number"),
            ("mu", self.mu, _is_positive, "a positive finite number"),
            ("K", self.cap, _is_count, "an integer >= 1"),
            ("cost.c", self.cost.c, _is_positive, "a positive finite number"),
        ):
            if len(values) != m:
                raise ValueError(f"{name}: {len(values)} entries for {m} machines")
            for j, value in enumerate(values):
                if not rule(value):
                    raise ValueError(f"{name}[{j}]: {value!r} is not {what}")
        if not _is_positive(self.tau):
            raise ValueError(f"tau: {self.tau!r} is not a positive finite number")
        if self.rho_nominal is not None and not _is_finite(self.rho_nominal):
            raise ValueError(f"rho_nominal: {self.rho_nominal!r} is not a finite number")

    @property
    def machine_count(self) -> int:
        return self.layout.machine_count

    @property
    def uniformization_rate(self) -> float:
        return sum(self.lam) + max(max(self.mu), self.tau)

    @property
    def step_length(self) -> float:
        return 1.0 / self.uniformization_rate

    @property
    def rho(self) -> float:
        """Traffic intensity of the (possibly rounded) stored rates."""
        return sum(l / m for l, m in zip(self.lam, self.mu))

    @property
    def eta(self) -> float:
        return self.tau / sum(self.lam)

    def failed_cost_total(self) -> float:
        """Cost rate with every machine at its cap."""
        return sum(
            self.cost.rate(i, self.cap[i - 1], self.cap[i - 1])
            for i in range(1, self.machine_count + 1)
        )

    def state_count(self) -> int:
        count = self.layout.node_count
        for k in self.cap:
            count *= k + 1
        return count


def _generator(seed: int, stream: int) -> np.random.Generator:
    """Philox stream derived from (seed, stream); documented derivation
    so instances reproduce across machines and processes.  Raises
    ValueError naming ``seed`` as ``check_seed`` does."""
    check_seed("seed", seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def round_two_significant(x: float) -> float:
    """Round to 2 significant figures, half-to-even on the decimal mantissa."""
    if x == 0:
        return 0.0
    d = Decimal(repr(x))
    quantum = Decimal((0, (1,), d.adjusted() - 1))
    return float(d.quantize(quantum, rounding=ROUND_HALF_EVEN))


def _is_integer(value) -> bool:
    # Any integer but a bool.  The exact type test spares plain ints the
    # ~1 us ABC check, which dominated validating a value store of
    # thousands of entries.
    return type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool)


def _is_count(value) -> bool:
    """An integer >= 1, not a bool."""
    return _is_integer(value) and value >= 1


_FLOAT_MAX = sys.float_info.max


def _is_finite(value) -> bool:
    """A real number, not a bool, that is finite."""
    # The exact type test spares floats the ABC check (see _is_integer).
    # NaN fails both comparisons, and so does an int too large for a float.
    return (
        type(value) is float or (isinstance(value, numbers.Real) and type(value) is not bool)
    ) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _is_positive(value) -> bool:
    """A finite number above zero, not a bool."""
    return _is_finite(value) and value > 0


def check_seed(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an int >= 0,
    not a bool: a bool would pass as seed 0 or 1, and a negative seed
    fails deep in numpy with a message that names no field."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name}: {value!r} is not a non-negative integer")


# The generator places machines on distinct nodes of this square lattice.
LATTICE_SIDE = 5


def check_generator_sizes(m, cap) -> None:
    """Raise ValueError, naming the field, unless an overridden ``m`` is an
    int in 1..25, the lattice's node count (the machines take distinct
    nodes), and an overridden ``cap`` an int >= 1; None leaves either to
    the generator's draw.  No bool passes."""
    nodes = LATTICE_SIDE * LATTICE_SIDE
    if m is not None and not (_is_integer(m) and 1 <= m <= nodes):
        raise ValueError(f"m: {m!r} is not a machine count in 1..{nodes}")
    if cap is not None and not _is_count(cap):
        raise ValueError(f"cap: {cap!r} is not a degradation cap >= 1")


def generate_instance(
    seed: int,
    m: int | None = None,
    cap: int | None = None,
    cost_kind: CostKind | None = None,
) -> InstanceParameters:
    """Sample a random instance on the 5x5 lattice.

    Recipe (draws skipped for any overridden quantity): cost kind uniform
    over the three kinds; shared cap K uniform on 1..5; m uniform on 2..8;
    distinct machine coordinates uniform on the lattice with the colliding
    machine redrawn; rho ~ U(0.1, 1.5) split across machines by rescaled
    per-machine intensities; mu_i ~ U(0.1, 0.9); lambda_i = rho_i * mu_i;
    rates rounded to 2 significant figures; c_i ~ U(0.1, 0.9); eta drawn
    from U(0.1, 1) or U(1, 10) with equal probability; tau = eta * sum(lambda).
    An overridden ``m`` or ``cap`` is checked first (``check_generator_sizes``).
    """
    check_generator_sizes(m, cap)
    rng = _generator(seed, STREAM_INSTANCE)

    if cost_kind is None:
        cost_kind = list(CostKind)[rng.integers(0, 3)]
    if cap is None:
        cap = int(rng.integers(1, 6))
    if m is None:
        m = int(rng.integers(2, 9))

    coords: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    for _ in range(m):
        while True:
            a = int(rng.integers(1, LATTICE_SIDE + 1))
            b = int(rng.integers(1, LATTICE_SIDE + 1))
            if (a, b) not in taken:
                break
        taken.add((a, b))
        coords.append((a, b))
    layout = build_lattice_layout(LATTICE_SIDE, coords)

    rho = rng.uniform(0.1, 1.5)
    mu = [rng.uniform(0.1, 0.9) for _ in range(m)]
    lam_init = [rng.uniform(0.1 * mu_i, mu_i) for mu_i in mu]
    shares = [l / u for l, u in zip(lam_init, mu)]
    total = sum(shares)
    lam = [(share / total) * rho * mu_i for share, mu_i in zip(shares, mu)]

    lam = [round_two_significant(l) for l in lam]
    mu = [round_two_significant(u) for u in mu]

    c = [rng.uniform(0.1, 0.9) for _ in range(m)]
    p = rng.uniform(0.0, 1.0)
    eta = rng.uniform(0.1, 1.0) if p < 0.5 else rng.uniform(1.0, 10.0)
    tau = eta * sum(lam)

    return InstanceParameters(
        layout=layout,
        lam=tuple(lam),
        mu=tuple(mu),
        tau=tau,
        cap=(cap,) * m,
        cost=CostModel(kind=cost_kind, c=tuple(c)),
        seed=seed,
        rho_nominal=rho,
    )


def two_machine_instance() -> InstanceParameters:
    """Two machines on a single edge; the small exactly-solvable fixture."""
    from .network import build_complete_layout

    return InstanceParameters(
        layout=build_complete_layout(2),
        lam=(0.4, 0.4),
        mu=(1.1, 1.0),
        tau=100.0,
        cap=(2, 2),
        cost=CostModel(kind=CostKind.LINEAR, c=(1.0, 1.0)),
    )


def counterexample_instances() -> list[InstanceParameters]:
    """Five fixture instances where the index heuristic is suboptimal.

    (a) star with slow switching; (b) complete graph with K=2;
    (c1)-(c3) complete graphs with one heterogeneous parameter each.
    """
    from .network import build_complete_layout, build_star_layout

    linear = lambda c: CostModel(kind=CostKind.LINEAR, c=c)
    cases = [
        InstanceParameters(
            layout=build_star_layout(3, 1),
            lam=(0.04,) * 3,
            mu=(0.12,) * 3,
            tau=0.024,
            cap=(1,) * 3,
            cost=linear((1.0,) * 3),
        ),
        InstanceParameters(
            layout=build_complete_layout(3),
            lam=(0.089,) * 3,
            mu=(0.52,) * 3,
            tau=0.11,
            cap=(2,) * 3,
            cost=linear((1.0,) * 3),
        ),
        InstanceParameters(
            layout=build_complete_layout(3),
            lam=(0.034, 0.16, 0.055),
            mu=(0.74,) * 3,
            tau=0.22,
            cap=(1,) * 3,
            cost=linear((1.0,) * 3),
        ),
        InstanceParameters(
            layout=build_complete_layout(3),
            lam=(0.056,) * 3,
            mu=(0.82, 0.12, 0.63),
            tau=0.15,
            cap=(1,) * 3,
            cost=linear((1.0,) * 3),
        ),
        InstanceParameters(
            layout=build_complete_layout(3),
            lam=(0.14,) * 3,
            mu=(0.56,) * 3,
            tau=0.36,
            cap=(1,) * 3,
            cost=linear((8.6, 13.0, 8.1)),
        ),
    ]
    return cases


class InstanceFormatError(ValueError):
    """Raised when an instance file does not conform to the schema."""


def _require(data: dict, field: str, types, path: str):
    if field not in data:
        raise InstanceFormatError(f"{path}.{field}: missing required field")
    value = data[field]
    # JSON true and false parse as bool, an int subclass; no field is one.
    if not isinstance(value, types) or isinstance(value, bool):
        raise InstanceFormatError(
            f"{path}.{field}: expected {types}, got {type(value).__name__}"
        )
    return value


def instance_to_dict(inst: InstanceParameters) -> dict:
    """JSON-ready form.  Rates serialize as decimal strings so a round
    trip reproduces the exact same floats."""
    layout = inst.layout
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": inst.seed,
        "grid": None if layout.coordinates is None else max(max(c) for c in layout.coordinates),
        "machine_coords": (
            None
            if layout.coordinates is None
            else [list(layout.coordinates[i - 1]) for i in layout.machines]
        ),
        "adjacency": [list(nbrs) for nbrs in layout.adjacency],
        "lambda": [repr(x) for x in inst.lam],
        "mu": [repr(x) for x in inst.mu],
        "tau": repr(inst.tau),
        "K": list(inst.cap),
        "cost": {"kind": inst.cost.kind.value, "c": [repr(x) for x in inst.cost.c]},
        "rho_nominal": None if inst.rho_nominal is None else repr(inst.rho_nominal),
    }


# What a rate may be written as: an ASCII decimal literal (sign, digits,
# point, exponent), or the ``repr`` of a NaN or an infinity, which then
# reaches the constructor's value rules.  No spaces, underscores or
# non-ASCII digits, which ``float`` would accept.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|nan|inf|-inf")


def instance_from_dict(data: dict) -> InstanceParameters:
    if not isinstance(data, dict):
        raise InstanceFormatError("root: expected a JSON object")
    version = _require(data, "schema_version", int, "root")
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            f"root.schema_version: expected {SCHEMA_VERSION}, got {version}"
        )
    adjacency_raw = _require(data, "adjacency", list, "root")
    lam_raw = _require(data, "lambda", list, "root")
    mu_raw = _require(data, "mu", list, "root")
    cap_raw = _require(data, "K", list, "root")
    cost_raw = _require(data, "cost", dict, "root")
    kind_raw = _require(cost_raw, "kind", str, "root.cost")
    c_raw = _require(cost_raw, "c", list, "root.cost")

    m = len(lam_raw)
    if m == 0:
        raise InstanceFormatError("root.lambda: expected at least one machine")
    for path, values in (("root.mu", mu_raw), ("root.K", cap_raw), ("root.cost.c", c_raw)):
        if len(values) != m:
            raise InstanceFormatError(f"{path}: {len(values)} entries for {m} in root.lambda")
    adjacency = []
    for i, nbrs in enumerate(adjacency_raw):
        if not isinstance(nbrs, list) or not all(type(v) is int for v in nbrs):
            raise InstanceFormatError(f"root.adjacency[{i}]: expected a list of ints")
        adjacency.append(tuple(nbrs))
    n = len(adjacency)
    if m > n:
        raise InstanceFormatError(f"root.lambda: {m} machines for {n} nodes")

    if data.get("machine_coords") is not None:
        grid = _require(data, "grid", int, "root")
        mc = _require(data, "machine_coords", list, "root")
        if len(mc) != m:
            raise InstanceFormatError("root.machine_coords: length must match lambda")
        for i, pair in enumerate(mc):
            if not isinstance(pair, list) or [type(v) for v in pair] != [int, int]:
                raise InstanceFormatError(f"root.machine_coords[{i}]: expected [a, b] integers")
        try:
            layout = build_lattice_layout(grid, [tuple(pair) for pair in mc])
        except LayoutError as exc:
            raise InstanceFormatError(f"root.machine_coords: {exc}") from None
        if layout.adjacency != tuple(adjacency):
            raise InstanceFormatError(
                "root.adjacency: inconsistent with grid/machine_coords"
            )
    else:
        # The graph rules are the layout's; its field names lack the root.
        try:
            layout = NetworkLayout(tuple(adjacency), m)
        except LayoutError as exc:
            raise InstanceFormatError(f"root.{exc}") from None

    def parse_rate(raw, path: str) -> float:
        if not isinstance(raw, str):
            raise InstanceFormatError(f"{path}: rates must be decimal strings")
        if not _DECIMAL.fullmatch(raw):
            raise InstanceFormatError(f"{path}: {raw!r} is not a decimal string")
        return float(raw)

    try:
        kind = CostKind(kind_raw)
    except ValueError:
        raise InstanceFormatError(f"root.cost.kind: unknown kind {kind_raw!r}") from None

    seed = data.get("seed")
    if seed is not None and type(seed) is not int:
        raise InstanceFormatError(f"root.seed: expected an integer or null, got {seed!r}")
    rho_nominal = data.get("rho_nominal")
    lam = tuple(parse_rate(x, f"root.lambda[{i}]") for i, x in enumerate(lam_raw))
    mu = tuple(parse_rate(x, f"root.mu[{i}]") for i, x in enumerate(mu_raw))
    tau = parse_rate(_require(data, "tau", str, "root"), "root.tau")
    c = tuple(parse_rate(x, f"root.cost.c[{i}]") for i, x in enumerate(c_raw))
    if rho_nominal is not None:
        rho_nominal = parse_rate(rho_nominal, "root.rho_nominal")
    # The value rules are the constructor's; its field names lack the root.
    try:
        return InstanceParameters(
            layout=layout, lam=lam, mu=mu, tau=tau, cap=tuple(cap_raw),
            cost=CostModel(kind=kind, c=c), seed=seed, rho_nominal=rho_nominal,
        )
    except ValueError as exc:
        raise InstanceFormatError(f"root.{exc}") from None


def save_instance(inst: InstanceParameters, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> InstanceParameters:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"root: invalid JSON ({exc})") from None
    return instance_from_dict(data)
