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
        for name, cost in (("c_miss", self.c_miss), ("c_fa", self.c_fa)):
            if not cost > 0:
                raise ValueError(f"{name} must be positive, got {cost}")


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


_SCORE_FORMAT = "'enroll test score'"
_TRIAL_FORMAT = "'label enroll test' with label 0/1"
# Lines read and tokenized at a time; only one chunk's tokens are alive.
# Chunks of 4096 to 32768 lines tokenize about equally fast; 131072 is slower.
_CHUNK_LINES = 16384


def _row_chunks(path: str, expected: str):
    """Read a three-field-per-line file once, ``_CHUNK_LINES`` lines at a time.

    Yields ``(start, lines, tokens, rows)`` per chunk: the 1-based number of
    the chunk's first line, its raw lines, the flat whitespace tokens (three
    per row) and the index in ``lines`` of every row.  Blank lines are
    skipped; the first other line without exactly three fields raises
    ``path:line: expected <expected>, got '<line>'`` as soon as its chunk is
    read, so no row after it is yielded.
    """
    with open(path, encoding="utf-8") as fh:
        start = 1
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            tokens = []
            extend = tokens.extend
            counts = np.fromiter(
                (extend(fields) or len(fields) for fields in map(str.split, lines)),
                dtype=np.intp,
                count=len(lines),
            )
            rows = np.flatnonzero(counts)
            bad = np.flatnonzero(counts[rows] != 3)
            if bad.size:
                row = int(rows[bad[0]])
                raise ValueError(
                    f"{path}:{start + row}: expected {expected}, got {lines[row].strip()!r}"
                )
            yield start, lines, tokens, rows
            start += len(lines)


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


def _keyed_rows(path: str, expected: str, first_id: int) -> list:
    """``(line, "enroll test")`` of every row, ids from field ``first_id`` on.

    Only error paths call this: it reads the file a second time to name
    rows that the streamed pass kept no text of.
    """
    return [
        pair
        for start, _, tokens, rows in _row_chunks(path, expected)
        for pair in zip(
            (start + rows).tolist(),
            _pair_keys(tokens[first_id::3], tokens[first_id + 1 :: 3]),
        )
    ]


def _parse_scores(scores_file: str):
    """Score column and the ``(enroll, test) -> row`` index of a score file.

    Field counts are checked over the whole file first, then score values
    (unparsable before non-finite), then duplicate pairs; within each class
    the earliest line is reported.
    """
    index = {}
    parts = [np.empty(0)]
    n = 0
    bad_score = non_finite = None
    for start, _, tokens, rows in _row_chunks(scores_file, _SCORE_FORMAT):
        raw = tokens[2::3]
        try:
            values = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
        except ValueError:
            if bad_score is None:
                for row, text in zip(rows.tolist(), raw):
                    try:
                        float(text)
                    except ValueError:
                        bad_score = f"{scores_file}:{start + row}: bad score {text!r}"
                        break
            continue
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size and non_finite is None:
            i = int(bad[0])
            non_finite = (
                f"{scores_file}:{start + rows[i]}: score must be finite, got {raw[i]!r}"
            )
        index.update(zip(_pair_keys(tokens[0::3], tokens[1::3]), range(n, n + len(raw))))
        n += len(raw)
        parts.append(values)
    for message in (bad_score, non_finite):
        if message:
            raise ValueError(message)
    if len(index) < n:
        # The index kept the last row of a repeated pair; name the first repeat.
        keyed = _keyed_rows(scores_file, _SCORE_FORMAT, 0)
        row, _ = _first_repeat(key for _, key in keyed)
        lineno, key = keyed[row]
        enroll, test = key.split()
        raise ValueError(f"{scores_file}:{lineno}: duplicate score for ({enroll}, {test})")
    return np.concatenate(parts), index


def parse_trials(trial_file: str, scores_file: str) -> Trials:
    """Join a trial list with a score list on the (enroll, test) id pair.

    Trial lines are ``label enroll_id test_id`` with label 0 or 1; score
    lines are ``enroll_id test_id score``.  Every trial must match exactly
    one score and name a distinct pair; problems are reported with their
    file and line number, format errors before join errors.  The output
    preserves trial-file order.  Each file is read once, in chunks of
    ``_CHUNK_LINES`` lines, so beyond the output columns only the pair
    index of the score file and one chunk are held at a time.
    """
    scores, index = _parse_scores(scores_file)
    row_parts = [np.empty(0, dtype=np.intp)]
    target_parts = [np.empty(0, dtype=bool)]
    bad_label = missing = None
    for start, lines, tokens, rows in _row_chunks(trial_file, _TRIAL_FORMAT):
        labels, enrolls, tests = tokens[0::3], tokens[1::3], tokens[2::3]
        if bad_label is None and not set(labels) <= {"0", "1"}:
            i = next(i for i, label in enumerate(labels) if label not in ("0", "1"))
            bad_label = (
                f"{trial_file}:{start + rows[i]}: expected {_TRIAL_FORMAT}, "
                f"got {lines[rows[i]].strip()!r}"
            )
        score_rows = np.fromiter(
            map(index.get, _pair_keys(enrolls, tests), itertools.repeat(-1)),
            dtype=np.intp,
            count=len(labels),
        )
        absent = np.flatnonzero(score_rows < 0)
        if absent.size and missing is None:
            i = int(absent[0])
            missing = (
                f"{trial_file}:{start + rows[i]}: "
                f"no score for trial pair ({enrolls[i]}, {tests[i]})"
            )
        row_parts.append(score_rows)
        target_parts.append(np.fromiter(map("1".__eq__, labels), dtype=bool, count=len(labels)))
    for message in (bad_label, missing):
        if message:
            raise ValueError(message)
    score_rows = np.concatenate(row_parts)
    if score_rows.size and np.bincount(score_rows).max() > 1:
        row, first = _first_repeat(score_rows.tolist())
        keyed = _keyed_rows(trial_file, _TRIAL_FORMAT, 1)
        lineno, key = keyed[row]
        enroll, test = key.split()
        raise ValueError(
            f"{trial_file}:{lineno}: duplicate trial pair ({enroll}, {test}), "
            f"first on line {keyed[first][0]}"
        )
    return Trials(scores[score_rows], np.concatenate(target_parts))
