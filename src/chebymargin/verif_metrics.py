"""Verification scoring: EER and minimum DCF of scored trials.

Both metrics depend only on the ordering of scores.  The threshold sweep
walks every distinct operating point of the decision rule
``accept iff score >= t``; ties in score collapse to a single operating
point.  EER linearly interpolates between the two operating points where
``FAR - FRR`` changes sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Trials:
    """Scored verification trials as two columns.

    ``scores[i]`` is the score of trial ``i`` and ``is_target[i]`` says
    whether it is a same-speaker trial.  Both are 1-D arrays of one length;
    every score is finite.
    """

    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        is_target = np.asarray(self.is_target)
        if scores.ndim != 1 or scores.shape != is_target.shape:
            raise ValueError(
                f"scores and is_target must be 1-D of one length, "
                f"got {scores.shape} and {is_target.shape}"
            )
        if is_target.size and is_target.dtype != np.bool_:
            raise ValueError(f"is_target must be boolean, got dtype {is_target.dtype}")
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValueError(f"score must be finite, got {scores[bad[0]]}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_target", is_target.astype(bool, copy=False))

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class DcfParams:
    """Detection cost parameters; defaults follow the common benchmark setup."""

    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")


def _operating_points(trials: Trials):
    """Thresholds with the FAR/FRR of ``accept iff score >= t`` at each.

    Candidate thresholds are midpoints between consecutive distinct scores
    plus one sentinel below the minimum (accept everything) and one above
    the maximum (reject everything); that covers every achievable
    operating point exactly once.
    """
    targets = np.sort(trials.scores[trials.is_target])
    nontargets = np.sort(trials.scores[~trials.is_target])
    if targets.size == 0 or nontargets.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    values = np.unique(trials.scores)
    thresholds = np.concatenate(
        [[values[0] - 1.0], (values[:-1] + values[1:]) / 2.0, [values[-1] + 1.0]]
    )
    far = 1.0 - np.searchsorted(nontargets, thresholds, side="left") / nontargets.size
    frr = np.searchsorted(targets, thresholds, side="left") / targets.size
    return thresholds, far, frr


def compute_eer(trials: Trials) -> tuple[float, float]:
    """Equal error rate and the interpolated crossing threshold.

    ``FAR - FRR`` is non-increasing along the sweep; the rate is linearly
    interpolated between the two adjacent operating points where the sign
    changes.
    """
    thresholds, far, frr = _operating_points(trials)
    diff = far - frr
    # diff starts at +1 and ends at -1, so a sign change always exists.
    idx = int(np.nonzero(diff <= 0)[0][0])
    if idx == 0 or diff[idx] == 0.0:
        return float(frr[idx]), float(thresholds[idx])
    span = diff[idx - 1] - diff[idx]
    alpha = diff[idx - 1] / span
    eer = frr[idx - 1] + alpha * (frr[idx] - frr[idx - 1])
    threshold = thresholds[idx - 1] + alpha * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def compute_min_dcf(trials: Trials, params: DcfParams = DcfParams()) -> float:
    """Minimum normalized detection cost over all thresholds.

    ``min_t [c_miss p_t FRR(t) + c_fa (1 - p_t) FAR(t)]`` divided by
    ``min(c_miss p_t, c_fa (1 - p_t))``, the better of the two
    score-blind decisions, so the value lies in [0, 1].
    """
    _, far, frr = _operating_points(trials)
    miss_cost = params.c_miss * params.p_target
    fa_cost = params.c_fa * (1.0 - params.p_target)
    costs = miss_cost * frr + fa_cost * far
    return float(np.min(costs) / min(miss_cost, fa_cost))


def _line(path: str, lineno: int) -> str:
    with open(path, encoding="utf-8") as fh:
        return next(itertools.islice(fh, lineno - 1, None)).strip()


_SCORE_FORMAT = "'enroll test score'"
_TRIAL_FORMAT = "'label enroll test' with label 0/1"


def _read_rows(path: str, expected: str):
    """Whitespace tokens of a three-field-per-line file, and the line of each row.

    Blank lines are skipped; any other line without exactly three fields is
    reported as ``path:line: expected <expected>, got '<line>'``.
    Returns the flat token list (three per row) and the 1-based line
    number of every row.
    """
    with open(path, encoding="utf-8") as fh:
        counts = np.fromiter(map(len, map(str.split, fh)), dtype=np.intp)
        fh.seek(0)
        tokens = fh.read().split()
    rows = np.flatnonzero(counts)
    bad = np.flatnonzero(counts[rows] != 3)
    if bad.size:
        lineno = int(rows[bad[0]]) + 1
        raise ValueError(f"{path}:{lineno}: expected {expected}, got {_line(path, lineno)!r}")
    return tokens, rows + 1


def _first_repeat(items):
    """Index of the first item equal to an earlier one, and that earlier index."""
    first_seen = {}
    for i, item in enumerate(items):
        first = first_seen.setdefault(item, i)
        if first != i:
            return i, first
    raise ValueError("no repeated item")


def _pair_keys(enrolls, tests):
    """One string key per (enroll, test) pair.

    Ids hold no whitespace, so ``enroll + " " + test`` is unambiguous; a
    string key lets the id strings of the score file be freed, which a
    tuple key would keep alive.
    """
    return map(" ".join, zip(enrolls, tests))


def _parse_scores(scores_file: str):
    """Score column and the ``(enroll, test) -> row`` index of a score file."""
    tokens, lines = _read_rows(scores_file, _SCORE_FORMAT)
    raw = tokens[2::3]
    try:
        scores = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
    except ValueError:
        for lineno, text in zip(lines, raw):
            try:
                float(text)
            except ValueError:
                raise ValueError(f"{scores_file}:{lineno}: bad score {text!r}") from None
        raise
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"{scores_file}:{lines[row]}: score must be finite, got {raw[row]!r}"
        )
    keys = list(_pair_keys(tokens[0::3], tokens[1::3]))
    # Free the token strings before the index grows: they are most of the
    # peak memory.
    del tokens, raw
    index = dict(zip(keys, range(len(keys))))
    if len(index) < len(keys):
        row, _ = _first_repeat(keys)
        enroll, test = keys[row].split()
        raise ValueError(f"{scores_file}:{lines[row]}: duplicate score for ({enroll}, {test})")
    return scores, index


def parse_trials(trial_file: str, scores_file: str) -> Trials:
    """Join a trial list with a score list on the (enroll, test) id pair.

    Trial lines are ``label enroll_id test_id`` with label 0 or 1; score
    lines are ``enroll_id test_id score``.  Every trial must match exactly
    one score and name a distinct pair; problems are reported with their
    file and line number, format errors before join errors.  The output
    preserves trial-file order.
    """
    scores, index = _parse_scores(scores_file)
    tokens, lines = _read_rows(trial_file, _TRIAL_FORMAT)
    labels = tokens[0::3]
    if not set(labels) <= {"0", "1"}:
        row = next(i for i, label in enumerate(labels) if label not in ("0", "1"))
        raise ValueError(
            f"{trial_file}:{lines[row]}: expected {_TRIAL_FORMAT}, "
            f"got {_line(trial_file, lines[row])!r}"
        )
    enrolls, tests = tokens[1::3], tokens[2::3]
    rows = np.fromiter(
        map(index.get, _pair_keys(enrolls, tests), itertools.repeat(-1)),
        dtype=np.intp,
        count=len(labels),
    )
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        row = int(missing[0])
        raise ValueError(
            f"{trial_file}:{lines[row]}: no score for trial pair ({enrolls[row]}, {tests[row]})"
        )
    if rows.size and np.bincount(rows).max() > 1:
        row, first = _first_repeat(rows.tolist())
        raise ValueError(
            f"{trial_file}:{lines[row]}: duplicate trial pair ({enrolls[row]}, {tests[row]}), "
            f"first on line {lines[first]}"
        )
    return Trials(scores[rows], np.array(labels) == "1")
