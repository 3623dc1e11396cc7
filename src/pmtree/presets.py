"""Parameter presets.

"desk" is the hand-tuned regime every experiment and acceptance run uses:
eps in [0.05, 0.5], the accept-side error budget delta tied to the dataset
size (n^-0.75, clamped into [0.001, 0.1]), and the sample cap on. Past
n = 10^4 delta sits at the 0.001 floor and compiled trees scan linearly in n
(1 022 candidates per query at n = 65 536, d = 64, w = 4).
"""

from __future__ import annotations

from .engine import ProtocolParams, derive_params

DESK_DELTA_FLOOR = 1e-3
DESK_DELTA_CEIL = 0.1
DESK_T_CAP = 128


def desk_delta(n: int) -> float:
    if n < 1:
        raise ValueError(f"dataset size n must be at least 1, not {n}")
    return min(DESK_DELTA_CEIL, max(DESK_DELTA_FLOOR, n ** -0.75))


def desk_params(
    n: int,
    d: int,
    w: float,
    eps: float = 0.25,
    delta: float | None = None,
    t_cap: int | None = DESK_T_CAP,
) -> ProtocolParams:
    if not 0.05 <= eps <= 0.5:
        raise ValueError("desk eps range is [0.05, 0.5]")
    dl = desk_delta(n) if delta is None else delta
    dl = min(dl, eps)
    return derive_params(d, w, min(eps, 0.499999), dl, t_cap=t_cap)
