"""``Kernel.codes`` against a bisection, and ``crn_codes``' once-per-list
memo: a CRN list is validated and classified once per instance, and a list
changed in place is checked again."""

import math

import numpy as np
import pytest

from conftest import rng
from repairnet.index_policy import ModifiedIndexPolicy
from repairnet.instance import CostKind, CostModel, InstanceParameters, generate_instance
from repairnet.mdp import Kernel, crn_codes, kernel_of, pristine_state, simulate
from repairnet.network import build_complete_layout
from repairnet.polling import best_polling_report


def probe_draws(grid):
    """Every grid end below 1, the float just below each, 0.0 and random draws."""
    ends = [t for t in grid.tolist() if t < 1.0]
    edges = [v for t in ends for v in (t, math.nextafter(t, 0.0))]
    return np.array(edges + [0.0] + rng(3).random(4096).tolist())


def bisection(grid, draws):
    return np.searchsorted(grid, draws, side="right").tolist()


@pytest.mark.parametrize("seed", [1, 5, 20001, 20009, 20018])
def test_codes_equal_a_bisection_into_the_grid(seed):
    kernel = Kernel(generate_instance(seed))
    draws = probe_draws(kernel.grid)
    codes = kernel.codes(draws)
    assert isinstance(codes, bytes)
    assert list(codes) == bisection(kernel.grid, draws)


def wide_instance(m=128):
    # Distinct repair rates and a switching rate equal to none of them:
    # m degradation ends plus m + 1 event ends, more than a byte holds.
    return InstanceParameters(
        layout=build_complete_layout(m),
        lam=tuple(0.001 + 0.00001 * i for i in range(m)),
        mu=tuple(0.5 + 0.001 * i for i in range(m)),
        tau=0.3,
        cap=(1,) * m,
        cost=CostModel(kind=CostKind.LINEAR, c=(1.0,) * m),
    )


def test_codes_of_a_grid_wider_than_a_byte_equal_a_bisection():
    kernel = Kernel(wide_instance())
    assert len(kernel.grid) > 255
    draws = probe_draws(kernel.grid)
    codes = kernel.codes(draws)
    assert isinstance(codes, tuple)
    assert list(codes) == bisection(kernel.grid, draws)
    stored = crn_codes(kernel, draws, len(draws))
    assert stored == codes
    assert crn_codes(kernel, draws.copy(), len(draws)) is stored


@pytest.mark.parametrize(
    "crn", [rng(0).random((100, 2)), [[0.5, 0.5]] * 100], ids=["array", "list-of-lists"]
)
def test_a_crn_list_must_be_one_dimensional(crn):
    # A 2-D array used to die with a TypeError from the stepping loop;
    # classified into bytes it would flatten into 200 codes.
    inst = generate_instance(4, m=2, cap=1)
    shape = r"^crn: an array of shape \(100, 2\) is not one-dimensional"
    with pytest.raises(ValueError, match=shape):
        simulate(inst, ModifiedIndexPolicy(inst), pristine_state(inst), 100, crn=crn)


def report_fields(report):
    return report.average_cost, report.average_reward, report.visit_counts


def test_a_list_changed_in_place_is_checked_and_classified_again():
    inst = generate_instance(4, m=3, cap=2)
    policy = ModifiedIndexPolicy(inst)
    x0 = pristine_state(inst)
    crn = rng(9).random(5_000)
    first = simulate(inst, policy, x0, 5_000, crn=crn)
    crn[17] = math.nan
    with pytest.raises(ValueError, match=r"^crn\[17\]: nan is not a uniform draw"):
        simulate(inst, policy, x0, 5_000, crn=crn)
    # A valid draw of another code: machine 1's degradation slot.
    crn[17] = 0.0
    changed = simulate(inst, policy, x0, 5_000, crn=crn)
    assert report_fields(changed) != report_fields(first)
    kernel_of.cache_clear()
    fresh = simulate(inst, policy, x0, 5_000, crn=crn.copy())
    assert report_fields(changed) == report_fields(fresh)


def test_a_polling_sweep_classifies_its_crn_list_once(monkeypatch):
    inst = generate_instance(20001, m=4)
    crn = rng(2).random(3_000)
    calls = []
    codes = Kernel.codes

    def counted(self, uniforms):
        calls.append(len(uniforms))
        return codes(self, uniforms)

    monkeypatch.setattr(Kernel, "codes", counted)
    kernel_of.cache_clear()
    simulate(inst, ModifiedIndexPolicy(inst), pristine_state(inst), 3_000, crn=crn)
    report = best_polling_report(inst, 3_000, crn)
    assert len(report.metadata["subsets"]) == 15
    assert calls == [3_000]
