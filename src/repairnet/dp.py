"""Exact average-cost dynamic programming for small instances.

Policy evaluation solves g + v = stage + P v with v(reference) = 0, one
sparse linear system per policy (Puterman 1994, section 8.2), in two
phases.  A warm-started BiCGSTAB (van der Vorst 1992) solves the bordered
system first; it needs only the ``matrix.dot`` a sweep does.  The
successive-approximation sweeps follow: v+(x) = stage(x) + sum_y p_xy v(y)
with the self-loop residual folded into the kernel, read off
g+(x) = v+(x) - v(x), and stop once the per-state g estimates settle.
Values are re-anchored at the reference state after every sweep; this
subtracts a constant, leaves every g+(x) untouched, and keeps the iterates
bounded for unichain policies.  After a Krylov solve the sweeps only
verify it, in about two sweeps.  They stay because policy iteration passes
through multichain policies, whose bordered matrix is singular: there the
Krylov phase gives up and the sweeps start from the warm start alone.

Policy iteration alternates evaluation with a greedy improvement step.
Only the action-dependent event (one repair level, or arrival at a
neighbour) differs between actions, so improvement reduces to minimizing
prob * (v(target) - v(x)) per state.  The transition law is the
instance's kernel's (``mdp.kernel_of``): ``DpModel`` reads each state's
available actions, their events and the repair reward from the kernel's
event tables, one row per location and level of the machine there, and
gathers them per state for the improvement step, the stage rates and the
transition matrix, which adds the events to the model's degradation
matrix, built once per model from the kernel's degradation probabilities
and cost rates.  A state keeps its action unless a rival is better by
more than a margin above the evaluation error, so the loop ends when the
policy reproduces itself.  It runs twice (modified policy iteration,
Puterman 1994, section 8.7): an approximate stage settles the policy on
evaluations to ``SETTLE_TOL``, then the exact stage, from that policy and
its values, evaluates and improves at the caller's ``tol`` until the
policy reproduces itself again, so only the exact stage's evaluations
certify the result.  ``DpSolution.iterations`` and ``g_history`` count
the exact stage's rounds, ``approximate_rounds`` the other stage's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .instance import InstanceParameters
from .mdp import (
    DecisionRule,
    StateIndexer,
    SystemState,
    check_positive,
    kernel_of,
    pristine_state,
    validate_state,
)

DEFAULT_TOL = 1e-9
# Policy evaluation raises after this many Krylov products plus sweeps;
# read at call time.
MAX_SWEEPS = 10_000_000
# Policy iteration's exact stage raises after this many rounds without a
# fixed point; its approximate stage hands over after as many.
MAX_IMPROVEMENTS = 1000
# Policy iteration settles its policy on evaluations to this tolerance
# before it evaluates to its own; read at call time.  Of the powers of ten
# from 1e-5 to 1e-1, 1e-3 took the fewest Krylov products on the seven
# dp-exact benchmark instances it was chosen on, and 7% more than 1e-2 on
# seven others (scripts/dp_products.py).
SETTLE_TOL = 1e-3


class EvaluationDidNotConverge(RuntimeError):
    """Evaluation hit the sweep cap; the policy is likely multichain."""


@dataclass(frozen=True)
class StationaryPolicy:
    """Per-state action table in state index order."""

    actions: tuple[int, ...]

    @classmethod
    def from_rule(cls, inst: InstanceParameters, rule: DecisionRule) -> "StationaryPolicy":
        return cls(tuple(map(rule, StateIndexer(inst).states())))


@dataclass
class PolicyEvaluation:
    g: float
    v: np.ndarray
    sweeps: int
    g_span: float


@dataclass
class DpSolution:
    g_star: float
    v: np.ndarray
    policy: StationaryPolicy
    iterations: int
    reference: SystemState
    # span(g+) of the final evaluation: bounds |g_star - g| for the
    # returned policy's true average g when that policy is unichain.
    g_bound: float
    # g of each exact round; ``iterations`` counts them too.
    g_history: tuple[float, ...] = ()
    # Rounds evaluated at ``SETTLE_TOL`` before the exact ones.
    approximate_rounds: int = 0

    def policy_table(self, inst: InstanceParameters) -> dict[SystemState, int]:
        return dict(zip(StateIndexer(inst).states(), self.policy.actions))


class DpModel:
    """Vectorized transition structure shared by evaluation and improvement.

    The action-independent part is one sparse matrix, ``degrade``, built in
    one pass over the machines, to which ``transition_matrix`` adds a
    policy's action-dependent events.  Those come from the kernel's event
    tables (``Kernel.templates``), one row per location and level of the
    machine there: each state's ``row`` is its location's first row plus
    that level, and ``prob``, ``offset`` and ``reward`` hold each (row,
    action id)'s event probability, index offset and reward rate, zero for
    an action that is not available there.  So a policy's events, its
    reward rates and every candidate's Q are gathers from these arrays.
    """

    def __init__(self, inst: InstanceParameters):
        self.inst = inst
        kernel = kernel_of(inst)
        self.indexer = kernel.indexer
        self.indexer.check_bound()
        self.n = n = self.indexer.count
        block = self.indexer.conditions_per_location

        # The event tables flattened, location major: location l's rows
        # start at first[l - 1], one per level of the machine there.
        first = np.cumsum([0] + [len(levels) for levels in kernel.templates])
        templates = [template for levels in kernel.templates for template in levels]
        shape = (len(templates), inst.layout.node_count + 1)
        self.prob = np.zeros(shape)
        self.offset = np.zeros(shape, dtype=np.int64)
        for row, template in enumerate(templates):
            for action, rate, offset in template:
                self.prob[row, action] = rate * kernel.step_length
                self.offset[row, action] = offset
        # Staying at machine j + 1 earns its reward rate at the level there.
        self.reward = np.zeros(shape)
        for j, rates in enumerate(kernel.reward_rate):
            self.reward[first[j] : first[j + 1], j + 1] = rates
        # Each row's available actions in id order, padded to a common
        # width by repeating the last one.
        choices = [sorted(action for action, _, _ in template) for template in templates]
        width = max(map(len, choices))
        self.candidates = np.array([c + c[-1:] * (width - len(c)) for c in choices])

        self.idx = idx = np.arange(n, dtype=np.int64)
        self.row = first[idx // block]
        rem = idx % block
        # One pass over the machines, each decoding its own level of every
        # state.  Degradation is action-independent: machine j below its
        # cap moves up a level, to x + stride_j.
        self.cost = np.zeros(n)
        self.deg_sum = np.zeros(n)
        diagonals = []
        for j, (stride, cap) in enumerate(zip(self.indexer.strides, inst.cap)):
            level = (rem // stride) % (cap + 1)
            self.cost += np.array(kernel.cost_rate[j])[level]
            below = level < cap
            self.deg_sum[below] += kernel.lam_delta[j]
            diagonals.append(np.where(below[: n - stride], kernel.lam_delta[j], 0.0))
            # The states at machine j + 1 are one block of indices.
            self.row[j * block : (j + 1) * block] += level[j * block : (j + 1) * block]
        # Machine j's degradation is the stride_j-th superdiagonal; the
        # conversion drops the zeros of its states at cap.
        self.degrade = sp.diags(diagonals, self.indexer.strides, shape=(n, n), format="csr")
        self._checked: tuple[StationaryPolicy | None, np.ndarray | None] = (None, None)

    def check_policy(self, policy: StationaryPolicy, name: str = "policy") -> np.ndarray:
        """``policy``'s actions as an int64 array.  Raises ValueError, naming
        ``name.actions[k]`` and its state, unless ``policy`` holds one action
        per state and each is available there.  The last policy that passed
        is kept, matched by identity (its actions are a tuple), so an
        evaluation and the improvement after it check it once."""
        if policy is self._checked[0]:
            return self._checked[1]
        actions = np.asarray(policy.actions)
        if actions.shape != (self.n,):
            raise ValueError(f"{name}: {len(policy.actions)} actions for {self.n} states")
        if actions.dtype.kind not in "iu":
            raise ValueError(f"{name}.actions: {actions.dtype} entries are not node ids")
        available = (self.candidates[self.row] == actions[:, None]).any(axis=1)
        bad = np.flatnonzero(~available)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"{name}.actions[{k}]: action {int(actions[k])} is not available "
                f"in state {kernel_of(self.inst).state(k)}"
            )
        self._checked = (policy, actions.astype(np.int64, copy=False))
        return self._checked[1]

    def _action_parts(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Target and probability of each state's action-dependent event,
        for available actions; a state without one targets itself with
        probability 0."""
        return self.idx + self.offset[self.row, actions], self.prob[self.row, actions]

    def transition_matrix(self, policy: StationaryPolicy) -> sp.csr_matrix:
        """``degrade`` plus the policy's action-dependent events and
        self-loops.  Raises ValueError as ``check_policy`` does."""
        target, prob = self._action_parts(self.check_policy(policy))
        event = target != self.idx
        rows = np.concatenate([self.idx[event], self.idx])
        cols = np.concatenate([target[event], self.idx])
        data = np.concatenate([prob[event], 1.0 - self.deg_sum - prob])
        return self.degrade + sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def stage_vector(self, policy: StationaryPolicy, objective: str) -> np.ndarray:
        """Each state's stage rate under ``policy``: its cost rate for
        ``"cost"``, its reward rate for ``"reward"``.  Raises ValueError
        for another ``objective`` (``check_objective``) and as
        ``check_policy`` does."""
        check_objective(objective)
        actions = self.check_policy(policy)
        if objective == "cost":
            return self.cost
        return self.reward[self.row, actions]

    def improve(
        self, v: np.ndarray, previous: StationaryPolicy, margin: float = 0.0
    ) -> StationaryPolicy:
        """Greedy step that keeps ``previous``'s action unless a rival's Q
        is lower by more than ``margin``; the best rival is the one with
        the smallest id among those tied at the minimum.  Raises ValueError
        as ``check_policy`` does, naming ``previous``.

        Only the action-dependent event differs between actions, so Q(x, a)
        reduces to prob * (v(target) - v(x)).  Each pass scores one rank
        of every state's padded candidate list.
        """

        def q(actions: np.ndarray) -> np.ndarray:
            target, prob = self._action_parts(actions)
            return prob * (v[target] - v)

        incumbent = self.check_policy(previous, "previous")
        ranks = self.candidates[self.row].T
        scores = np.array([q(actions) for actions in ranks])
        pick = np.argmin(scores, axis=0)  # first minimum: smallest action id
        switch = scores[pick, self.idx] < q(incumbent) - margin
        return StationaryPolicy(tuple(np.where(switch, ranks[pick, self.idx], incumbent).tolist()))


DENSE_STATE_LIMIT = 1024


def _check_inputs(inst, reference, tol, span_target) -> SystemState:
    """The reference state (pristine when None), after checking it and the
    tolerances; raises ValueError naming the field."""
    check_positive("tol", tol)
    if span_target is not None:
        check_positive("span_target", span_target)
    if reference is None:
        return pristine_state(inst)
    try:
        validate_state(inst, reference)
    except ValueError as exc:
        raise ValueError(f"reference: {exc}") from None
    return reference


def _model_for(inst: InstanceParameters, model: DpModel | None) -> DpModel:
    """``model``, or a new one for ``inst`` when None; raises ValueError,
    naming ``model``, when it was built for another instance."""
    if model is None:
        return DpModel(inst)
    if model.inst != inst:
        raise ValueError("model: the model was built for another instance")
    return model


def _check_start_values(v0, n: int) -> np.ndarray:
    """``v0`` as a float64 array.  Raises ValueError, naming ``v0``, unless
    it is a vector of ``n`` finite numbers: from a NaN or infinite start
    the sweeps never settle, so they would run to their cap and then blame
    the policy."""
    values = np.asarray(v0)
    if values.shape != (n,) or values.dtype.kind not in "iuf":
        raise ValueError(
            f"v0: a {values.dtype} array of shape {values.shape} is not a vector of {n} numbers"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"v0[{i}]: {float(values[i])!r} is not a finite number")
    return values.astype(np.float64, copy=False)


def check_objective(objective) -> None:
    """Raise ValueError, naming ``objective``, unless it is ``"cost"`` or
    ``"reward"``, the two stage rates a policy is evaluated on."""
    if objective not in ("cost", "reward"):
        raise ValueError(f"objective: {objective!r} is not 'cost' or 'reward'")


def evaluate_policy(
    inst: InstanceParameters,
    policy: StationaryPolicy,
    reference: SystemState | None = None,
    tol: float = DEFAULT_TOL,
    objective: str = "cost",
    model: DpModel | None = None,
    v0: np.ndarray | None = None,
    span_target: float | None = None,
) -> PolicyEvaluation:
    """Average cost (or reward) and relative values of a stationary policy.

    Solves the bordered system by BiCGSTAB from ``v0`` until the per-state
    estimates g+ are within tol / 4 of g, then sweeps until
    max_x |g+(x) - g(x)| < tol between sweeps, from the Krylov solution or,
    when the Krylov phase gives up (a singular, multichain matrix), from
    ``v0``.  ``MAX_SWEEPS`` caps the Krylov matrix products plus the
    sweeps, and ``sweeps`` reports that total.  Returns g at the reference
    state and v normalized to zero there.  Raises EvaluationDidNotConverge
    at the cap, which usually means the policy is multichain and has
    class-dependent averages that no single sweep limit can reconcile.

    For a unichain policy the true average is a stationary-weighted mean
    of the per-state estimates g+(x), so span(g+) bounds the error of
    g+(reference).  Passing ``span_target`` keeps sweeping until that
    certified bound is met as well.

    Raises ValueError, naming the field, before any solve: for a ``tol``
    or ``span_target`` that is not a positive finite number, an unknown
    ``objective``, a ``reference`` outside the instance, a ``model`` built
    for another instance, a ``v0`` that is not a finite vector of one
    value per state, or a policy without one available action per state
    (``policy.actions[k]``).
    """
    reference = _check_inputs(inst, reference, tol, span_target)
    check_objective(objective)
    model = _model_for(inst, model)
    if v0 is not None:
        v0 = _check_start_values(v0, model.n)
    ref = model.indexer.index(reference)
    matrix = model.transition_matrix(policy)
    if model.n <= DENSE_STATE_LIMIT:
        matrix = matrix.toarray()
    stage = model.stage_vector(policy, objective)

    v_start = np.zeros(model.n) if v0 is None else v0
    solved, matvecs = _bordered_bicgstab(matrix, stage, ref, v_start, tol / 4, MAX_SWEEPS)
    v = v_start if solved is None else solved
    g_prev = np.zeros(model.n)
    err = float("inf")
    for sweep in range(matvecs + 1, MAX_SWEEPS + 1):
        v_plus = stage + matrix.dot(v)
        g_new = v_plus - v
        err = float(np.max(np.abs(g_new - g_prev)))
        v = v_plus - v_plus[ref]
        g_prev = g_new
        if err < tol:
            span = float(np.max(g_new) - np.min(g_new))
            if span_target is None or span < span_target:
                return PolicyEvaluation(g=float(g_new[ref]), v=v, sweeps=sweep, g_span=span)
    raise EvaluationDidNotConverge(
        f"policy evaluation did not converge within {MAX_SWEEPS} sweeps "
        f"(last change {err:.3e}); the policy may be multichain"
    )


def _bordered_bicgstab(
    matrix, stage: np.ndarray, ref: int, v0: np.ndarray, target: float, budget: int
) -> tuple[np.ndarray | None, int]:
    """BiCGSTAB (van der Vorst 1992) on g + v = stage + P v with v(ref) = 0.

    The unknowns are v with g stored at ``ref``: the matrix is I - P with
    column ``ref`` replaced by ones.  The residual stage - A x is then
    g+ - g, the per-state estimates of one sweep from v less g, so the
    solve stops once max |g+ - g| <= target.  Returns the solution's v
    (zero at ``ref``), or None after a breakdown, a residual that is not
    finite or has grown 1e4-fold, or ``budget`` matrix products; and the
    number of products used.  A near-breakdown, where the shadow residual
    r_hat turns nearly orthogonal to r (|r_hat . r| <= 1e-12 |r_hat| |r|),
    restarts the method with r_hat = r.
    """

    def bordered(x: np.ndarray) -> np.ndarray:
        w = x.copy()
        w[ref] = 0.0
        return w - matrix.dot(w) + x[ref]

    x = v0 - v0[ref]
    r = stage + matrix.dot(x) - x  # g+ under v0; its value at ref is the start g
    x[ref] = r[ref]
    r -= r[ref]
    matvecs = 1
    start = float(np.max(np.abs(r)))
    # A zero shadow residual makes the first pass start the method below.
    r_hat, r_hat_norm = np.zeros_like(r), 0.0
    while True:
        size = float(np.max(np.abs(r)))
        if size <= target:
            x[ref] = 0.0
            return x, matvecs
        if not size <= 1e4 * start or matvecs + 2 > budget:
            return None, matvecs
        rho_next = float(r_hat @ r)
        if abs(rho_next) <= 1e-12 * r_hat_norm * math.sqrt(float(r @ r)):
            # The start, or a near-breakdown (r_hat nearly orthogonal to
            # r): restart with the current residual as the shadow residual.
            r_hat = r.copy()
            r_hat_norm = math.sqrt(float(r @ r))
            p = a_p = np.zeros_like(r)
            rho = alpha = omega = 1.0
            rho_next = float(r_hat @ r)
        if rho_next == 0.0 or omega == 0.0:
            return None, matvecs
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * a_p)
        rho = rho_next
        a_p = bordered(p)
        denominator = float(r_hat @ a_p)
        if denominator == 0.0:
            return None, matvecs + 1
        alpha = rho / denominator
        s = r - alpha * a_p
        a_s = bordered(s)
        matvecs += 2
        norm = float(a_s @ a_s)
        omega = float(a_s @ s) / norm if norm > 0.0 else 0.0
        x += alpha * p + omega * s
        r = s - omega * a_s


def policy_iteration(
    inst: InstanceParameters,
    base: StationaryPolicy | None = None,
    reference: SystemState | None = None,
    tol: float = DEFAULT_TOL,
    span_target: float | None = None,
) -> DpSolution:
    """Exact policy iteration from a unichain base policy, in two stages.

    The default base is the modified index policy.  Improvement keeps a
    state's action unless a rival's Q is lower by more than 10 times the
    evaluation tolerance (Puterman 1994, section 8.6), so evaluation error
    cannot make policies of equal gain take turns.

    The approximate stage (modified policy iteration, Puterman 1994,
    section 8.7) evaluates at ``SETTLE_TOL``, read at call time, and
    improves with a margin of 10 * ``SETTLE_TOL`` until the policy
    reproduces itself, or for at most ``MAX_IMPROVEMENTS`` rounds; it is
    skipped when ``tol >= SETTLE_TOL``.  The exact stage starts from that
    policy and its values: it evaluates at ``tol`` (and ``span_target``),
    improves with a margin of 10 * ``tol``, and stops when the improved
    policy equals the evaluated one, whose g and v are returned.  So the
    result is a fixed point of ``improve`` at 10 * ``tol`` on values
    evaluated to ``tol``, whatever the approximate stage did.
    ``iterations`` and ``g_history`` count the exact stage's rounds only,
    and ``approximate_rounds`` the approximate stage's.

    Raises ValueError as ``evaluate_policy`` does, naming
    ``base.actions[k]`` for a base action that is not available in its
    state, and RuntimeError when the exact stage does not settle within
    ``MAX_IMPROVEMENTS`` rounds.
    """
    from .index_policy import ModifiedIndexPolicy

    reference = _check_inputs(inst, reference, tol, span_target)
    model = DpModel(inst)
    if base is None:
        base = StationaryPolicy.from_rule(inst, ModifiedIndexPolicy(inst))
    else:
        model.check_policy(base, "base")

    policy = base
    v_start: np.ndarray | None = None
    approximate_rounds = 0
    settle_tol = SETTLE_TOL
    if tol < settle_tol:
        for approximate_rounds in range(1, MAX_IMPROVEMENTS + 1):
            evaluation = evaluate_policy(
                inst, policy, reference, tol=settle_tol, model=model, v0=v_start
            )
            v_start = evaluation.v
            improved = model.improve(evaluation.v, policy, 10 * settle_tol)
            if improved.actions == policy.actions:
                break
            policy = improved

    history: list[float] = []
    for iteration in range(1, MAX_IMPROVEMENTS + 1):
        evaluation = evaluate_policy(
            inst,
            policy,
            reference,
            tol=tol,
            model=model,
            v0=v_start,
            span_target=span_target,
        )
        v_start = evaluation.v
        history.append(evaluation.g)
        improved = model.improve(evaluation.v, policy, 10 * tol)
        if improved.actions == policy.actions:
            return DpSolution(
                g_star=evaluation.g,
                v=evaluation.v,
                policy=policy,
                iterations=iteration,
                reference=reference,
                g_bound=evaluation.g_span,
                g_history=tuple(history),
                approximate_rounds=approximate_rounds,
            )
        policy = improved
    raise RuntimeError(f"policy iteration did not settle within {MAX_IMPROVEMENTS} improvements")


def reward_optimum(inst: InstanceParameters, solution: DpSolution) -> float:
    """Optimal average reward implied by the optimal average cost."""
    return inst.failed_cost_total() - solution.g_star


def optimality_residual(
    inst: InstanceParameters, solution: DpSolution, model: DpModel | None = None
) -> float:
    """max_x |g* + v(x) - min_a Q(x, a)| over the whole state space.
    Raises ValueError, naming ``model``, for a model built for another
    instance."""
    model = _model_for(inst, model)
    greedy = model.improve(solution.v, solution.policy)
    matrix = model.transition_matrix(greedy)
    q_min = model.cost + matrix.dot(solution.v)
    return float(np.max(np.abs(solution.g_star + solution.v - q_min)))
