"""Group saliency scores for second-order pruning (Section 6.1).

The saliency of removing a set ``Q`` of weights is

``ρ_Q = ½ (E_Q w*)ᵀ (E_Q F̂⁻¹ E_Qᵀ)⁻¹ E_Q w*``

i.e. the (second-order Taylor) increase in loss caused by zeroing the
weights in ``Q`` and optimally adjusting the survivors.  ``E_Q`` selects
the rows of the identity corresponding to ``Q``, so ``E_Q F̂⁻¹ E_Qᵀ`` is the
``|Q| x |Q|`` sub-matrix of the inverse Fisher.

Two solvers choose which ``M − N`` weights to prune inside each group of
``M`` candidates:

* the exact **m-combinatorial** solver enumerates all ``C(M, N)`` keep sets
  and picks the one with minimal ρ — exponential in M, only practical for
  small M;
* the **pair-wise** solver of the paper evaluates only singleton and pair
  saliencies (``E_Q = [[1,0],[0,1],[1,1]]``) and greedily grows the pruned
  set using those pairwise interactions — linear-ish in M and the default
  for large M.

Both solvers also return the OBS weight update for the surviving weights,
``δw = − F̂⁻¹ E_Qᵀ (E_Q F̂⁻¹ E_Qᵀ)⁻¹ E_Q w*``, which is what lets
second-order pruning retain accuracy at high sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class GroupPruneDecision:
    """Result of solving one group of M candidate weights.

    Attributes
    ----------
    pruned_local:
        Sorted local indices (within the group) of the pruned weights.
    saliency:
        ρ_Q of the chosen pruned set (the modelled loss increase).
    weight_update:
        OBS update to add to the *whole group's* weights; entries of pruned
        weights are set so that the final value is exactly zero.
    """

    pruned_local: Tuple[int, ...]
    saliency: float
    weight_update: np.ndarray


def group_saliency(weights: np.ndarray, fisher_inv: np.ndarray, pruned: Sequence[int]) -> float:
    """ρ_Q for pruning ``pruned`` (local indices) from one weight group."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    q = np.asarray(sorted(pruned), dtype=np.int64)
    if q.size == 0:
        return 0.0
    if f_inv.shape != (w.size, w.size):
        raise ValueError(f"fisher_inv must be ({w.size}, {w.size}), got {f_inv.shape}")
    if q.min() < 0 or q.max() >= w.size:
        raise IndexError("pruned indices out of range for this group")
    w_q = w[q]
    sub = f_inv[np.ix_(q, q)]
    solve = np.linalg.solve(sub, w_q)
    return float(0.5 * w_q @ solve)


def obs_weight_update(weights: np.ndarray, fisher_inv: np.ndarray, pruned: Sequence[int]) -> np.ndarray:
    """OBS compensation update for the whole group given the pruned set.

    The returned vector ``δw`` satisfies ``(w + δw)[pruned] == 0`` exactly;
    surviving weights move to absorb the loss increase.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    q = np.asarray(sorted(pruned), dtype=np.int64)
    if q.size == 0:
        return np.zeros_like(w)
    w_q = w[q]
    sub = f_inv[np.ix_(q, q)]
    lam = np.linalg.solve(sub, w_q)
    delta = -f_inv[:, q] @ lam
    # Numerical cleanup: the pruned entries must end exactly at zero.
    delta[q] = -w_q
    return delta


def solve_group_combinatorial(
    weights: np.ndarray, fisher_inv: np.ndarray, keep: int
) -> GroupPruneDecision:
    """Exact solver: enumerate all keep-sets of size ``keep`` and minimise ρ_Q.

    ``Q`` is the complement of the keep set.  Cost is ``C(M, keep)`` solves
    of ``(M-keep) x (M-keep)`` systems, so callers should restrict it to
    small groups (M <= ~16), as the paper notes.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    m = w.size
    if not 0 < keep <= m:
        raise ValueError(f"keep must be in (0, {m}], got {keep}")
    best: GroupPruneDecision | None = None
    all_idx = set(range(m))
    for keep_set in combinations(range(m), keep):
        pruned = tuple(sorted(all_idx - set(keep_set)))
        rho = group_saliency(w, fisher_inv, pruned)
        if best is None or rho < best.saliency:
            update = obs_weight_update(w, fisher_inv, pruned)
            best = GroupPruneDecision(pruned_local=pruned, saliency=rho, weight_update=update)
    assert best is not None
    return best


def solve_group_pairwise(
    weights: np.ndarray, fisher_inv: np.ndarray, keep: int
) -> GroupPruneDecision:
    """Pair-wise greedy solver (the paper's scalable relaxation).

    Only singleton saliencies ρ_{i} and pair saliencies ρ_{ij} are
    evaluated (``E_Q = [[1,0],[0,1],[1,1]]`` in the paper's notation).  The
    pruned set is grown greedily: start from the cheapest singleton, then
    repeatedly add the candidate whose *incremental* cost — approximated by
    its singleton saliency plus its pairwise interactions with the already
    pruned weights — is smallest.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    m = w.size
    if not 0 < keep <= m:
        raise ValueError(f"keep must be in (0, {m}], got {keep}")
    n_prune = m - keep
    if n_prune == 0:
        return GroupPruneDecision(pruned_local=(), saliency=0.0, weight_update=np.zeros(m))

    # Singleton saliencies: rho_i = 0.5 * w_i^2 / (F^-1)_ii
    diag = np.clip(np.diag(f_inv), 1e-18, None)
    rho_single = 0.5 * w**2 / diag

    # Pairwise interaction term: rho_ij - rho_i - rho_j, computed from the
    # closed-form 2x2 solve.
    interaction = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            sub = f_inv[np.ix_([i, j], [i, j])]
            wq = w[[i, j]]
            rho_ij = 0.5 * wq @ np.linalg.solve(sub, wq)
            interaction[i, j] = interaction[j, i] = rho_ij - rho_single[i] - rho_single[j]

    pruned: List[int] = [int(np.argmin(rho_single))]
    while len(pruned) < n_prune:
        best_idx, best_cost = -1, np.inf
        for cand in range(m):
            if cand in pruned:
                continue
            cost = rho_single[cand] + sum(interaction[cand, p] for p in pruned)
            if cost < best_cost:
                best_cost, best_idx = cost, cand
        pruned.append(best_idx)

    pruned_t = tuple(sorted(pruned))
    rho = group_saliency(w, f_inv, pruned_t)
    update = obs_weight_update(w, f_inv, pruned_t)
    return GroupPruneDecision(pruned_local=pruned_t, saliency=rho, weight_update=update)


def solve_group(
    weights: np.ndarray,
    fisher_inv: np.ndarray,
    keep: int,
    method: str = "auto",
    combinatorial_limit: int = 12,
) -> GroupPruneDecision:
    """Dispatch to the combinatorial or pair-wise solver.

    ``method='auto'`` (the paper's "dynamically selecting" policy) uses the
    exact solver when the group is small enough (``M <= combinatorial_limit``)
    and the pair-wise relaxation otherwise.
    """
    m = np.asarray(weights).size
    if method == "auto":
        method = "combinatorial" if m <= combinatorial_limit else "pairwise"
    if method == "combinatorial":
        return solve_group_combinatorial(weights, fisher_inv, keep)
    if method == "pairwise":
        return solve_group_pairwise(weights, fisher_inv, keep)
    raise ValueError(f"unknown method {method!r}; use 'combinatorial', 'pairwise' or 'auto'")


# ----------------------------------------------------------------------
# Batched solvers (the vectorized execution engine)
#
# The per-group functions above stay as the semantic reference; the pruners
# call the batched variants below, which solve *all* groups of a layer with
# stacked linear algebra and no Python loop over groups.  Pattern
# enumeration order and greedy tie-breaking exactly mirror the per-group
# solvers, so both paths select the same pruned sets on non-degenerate
# inputs.
# ----------------------------------------------------------------------


def batched_obs_updates(
    weights: np.ndarray, fisher_inv: np.ndarray, pruned_sets: np.ndarray
) -> np.ndarray:
    """OBS compensation updates for many groups at once.

    Parameters
    ----------
    weights:
        ``(G, M)`` group weights.
    fisher_inv:
        ``(G, M, M)`` inverse-Fisher sub-matrices of the groups.
    pruned_sets:
        ``(G, P)`` sorted local indices of the pruned weights per group.

    Returns
    -------
    np.ndarray
        ``(G, M)`` updates; pruned entries end exactly at ``-w``.
    """
    w = np.asarray(weights, dtype=np.float64)
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    pruned_sets = np.asarray(pruned_sets, dtype=np.int64)
    num_groups, m = w.shape
    updates = np.zeros((num_groups, m))
    if pruned_sets.size == 0:
        return updates
    # Groups sharing a pruned pattern are solved together: one batched
    # solve per distinct pattern (at most C(M, P) patterns, usually far
    # fewer are actually selected).
    uniq, inverse = np.unique(pruned_sets, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    for u, q in enumerate(uniq):
        sel = inverse == u
        wq = w[sel][:, q]
        sub = f_inv[sel][:, q[:, None], q[None, :]]
        lam = np.linalg.solve(sub, wq[..., None])[..., 0]
        delta = -np.matmul(f_inv[sel][:, :, q], lam[..., None])[..., 0]
        delta[:, q] = -wq  # numerical cleanup: pruned entries end at zero
        updates[sel] = delta
    return updates


def solve_groups_combinatorial(
    weights: np.ndarray, fisher_inv: np.ndarray, keep: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched exact solver: all groups, all ``C(M, keep)`` patterns at once.

    Returns ``(pruned_sets, updates)`` with shapes ``(G, M-keep)`` (sorted
    local indices) and ``(G, M)``.  For every candidate pattern the
    saliencies of all groups are evaluated with one stacked solve; the
    argmin over patterns reproduces the first-strict-minimum tie-breaking
    of :func:`solve_group_combinatorial`.
    """
    w = np.asarray(weights, dtype=np.float64)
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    num_groups, m = w.shape
    if not 0 < keep <= m:
        raise ValueError(f"keep must be in (0, {m}], got {keep}")
    if f_inv.shape != (num_groups, m, m):
        raise ValueError(f"fisher_inv must be ({num_groups}, {m}, {m}), got {f_inv.shape}")
    n_prune = m - keep
    if n_prune == 0:
        return np.zeros((num_groups, 0), dtype=np.int64), np.zeros((num_groups, m))
    all_idx = set(range(m))
    patterns = [
        tuple(sorted(all_idx - set(keep_set))) for keep_set in combinations(range(m), keep)
    ]
    rho = np.empty((len(patterns), num_groups))
    for i, q in enumerate(patterns):
        qa = np.asarray(q, dtype=np.int64)
        wq = w[:, qa]
        sub = f_inv[:, qa[:, None], qa[None, :]]
        lam = np.linalg.solve(sub, wq[..., None])[..., 0]
        rho[i] = 0.5 * np.sum(wq * lam, axis=1)
    best = np.argmin(rho, axis=0)  # first minimum == reference tie-break
    pruned_sets = np.asarray(patterns, dtype=np.int64)[best]
    return pruned_sets, batched_obs_updates(w, f_inv, pruned_sets)


def solve_groups_pairwise(
    weights: np.ndarray, fisher_inv: np.ndarray, keep: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched pair-wise greedy solver (all groups grown in lock-step).

    The singleton saliencies and all ``M(M-1)/2`` pairwise interactions are
    computed with stacked 2x2 solves; the greedy growth then runs once per
    pruned slot (not once per group), selecting the next victim of every
    group simultaneously.  Tie-breaking (first index with the strictly
    smallest incremental cost) matches :func:`solve_group_pairwise`.
    """
    w = np.asarray(weights, dtype=np.float64)
    f_inv = np.asarray(fisher_inv, dtype=np.float64)
    num_groups, m = w.shape
    if not 0 < keep <= m:
        raise ValueError(f"keep must be in (0, {m}], got {keep}")
    if f_inv.shape != (num_groups, m, m):
        raise ValueError(f"fisher_inv must be ({num_groups}, {m}, {m}), got {f_inv.shape}")
    n_prune = m - keep
    if n_prune == 0:
        return np.zeros((num_groups, 0), dtype=np.int64), np.zeros((num_groups, m))

    diag = np.clip(np.diagonal(f_inv, axis1=1, axis2=2), 1e-18, None)
    rho_single = 0.5 * w**2 / diag

    interaction = np.zeros((num_groups, m, m))
    if m > 1:
        pi, pj = np.triu_indices(m, k=1)
        idx = np.stack([pi, pj], axis=1)  # (P, 2)
        sub = f_inv[:, idx[:, :, None], idx[:, None, :]]  # (G, P, 2, 2)
        wq = w[:, idx]  # (G, P, 2)
        lam = np.linalg.solve(sub, wq[..., None])[..., 0]
        rho_pair = 0.5 * np.sum(wq * lam, axis=2)  # (G, P)
        vals = rho_pair - rho_single[:, pi] - rho_single[:, pj]
        interaction[:, pi, pj] = vals
        interaction[:, pj, pi] = vals

    gi = np.arange(num_groups)
    pruned = np.empty((num_groups, n_prune), dtype=np.int64)
    first = np.argmin(rho_single, axis=1)
    pruned[:, 0] = first
    chosen = np.zeros((num_groups, m), dtype=bool)
    chosen[gi, first] = True
    inter_sum = interaction[gi, first].copy()  # (G, M) running pairwise cost
    for step in range(1, n_prune):
        cost = np.where(chosen, np.inf, rho_single + inter_sum)
        nxt = np.argmin(cost, axis=1)
        pruned[:, step] = nxt
        chosen[gi, nxt] = True
        inter_sum += interaction[gi, nxt]

    pruned_sets = np.sort(pruned, axis=1)
    return pruned_sets, batched_obs_updates(w, f_inv, pruned_sets)


def solve_groups(
    weights: np.ndarray,
    fisher_inv: np.ndarray,
    keep: int,
    method: str = "auto",
    combinatorial_limit: int = 12,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched dispatch mirroring :func:`solve_group`.

    All groups share one group size, so the auto policy resolves to a
    single solver for the whole batch.
    """
    m = np.asarray(weights).shape[1]
    if method == "auto":
        method = "combinatorial" if m <= combinatorial_limit else "pairwise"
    if method == "combinatorial":
        return solve_groups_combinatorial(weights, fisher_inv, keep)
    if method == "pairwise":
        return solve_groups_pairwise(weights, fisher_inv, keep)
    raise ValueError(f"unknown method {method!r}; use 'combinatorial', 'pairwise' or 'auto'")
