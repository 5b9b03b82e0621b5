"""Verification scoring: EER and minimum DCF of scored trials.

Both metrics depend only on the ordering of scores.  The sweep cuts the
decision rule ``accept iff score >= v`` at each distinct score ``v`` in
increasing order, then at ``+inf``; ties in score collapse to a single
operating point.  ``compute_eer`` returns the rate alone, linearly
interpolated between the two operating points where ``FAR - FRR`` changes
sign.
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
    """Detection cost parameters: the target prior, with unit miss and
    false-alarm costs as in the VoxCeleb, SITW and CN-Celeb evaluations."""

    p_target: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")


def _operating_points(trials: Trials):
    """FAR and FRR of ``accept iff score >= v`` at each cut ``v``.

    The cuts are the distinct scores in increasing order, then ``+inf``:
    the first accepts every trial and the last rejects every trial, so
    each achievable operating point appears exactly once.
    """
    targets = np.sort(trials.scores[trials.is_target])
    nontargets = np.sort(trials.scores[~trials.is_target])
    if targets.size == 0 or nontargets.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    cuts = np.append(np.unique(trials.scores), np.inf)
    far = 1.0 - np.searchsorted(nontargets, cuts, side="left") / nontargets.size
    frr = np.searchsorted(targets, cuts, side="left") / targets.size
    return far, frr


def compute_eer(trials: Trials) -> float:
    """Equal error rate.

    ``FAR - FRR`` is non-increasing along the cuts; the rate is linearly
    interpolated between the two adjacent operating points where the sign
    changes.
    """
    far, frr = _operating_points(trials)
    diff = far - frr
    # diff is +1 at the first cut and -1 at +inf, so 0 < idx < diff.size.
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0.0:
        return float(frr[idx])
    alpha = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    return float(frr[idx - 1] + alpha * (frr[idx] - frr[idx - 1]))


def compute_min_dcf(trials: Trials, params: DcfParams = DcfParams()) -> float:
    """Minimum normalized detection cost over all thresholds.

    ``min_t [p_t FRR(t) + (1 - p_t) FAR(t)]`` divided by
    ``min(p_t, 1 - p_t)``, the better of the two score-blind decisions,
    so the value lies in [0, 1].
    """
    far, frr = _operating_points(trials)
    p = params.p_target
    return float(np.min(p * frr + (1.0 - p) * far) / min(p, 1.0 - p))


_SCORE_FORMAT = "'enroll test score'"
_TRIAL_FORMAT = "'label enroll test' with label 0/1"
# Lines read and tokenized at a time; only one chunk's tokens are alive.
# Chunks of 4096 to 32768 lines tokenize about equally fast; 131072 is slower.
_CHUNK_LINES = 16384


def _row_chunks(path: str, expected: str):
    """Read a three-field-per-line file once, ``_CHUNK_LINES`` lines at a time.

    Yields ``(start, lines, tokens, rows, error)`` per chunk: the 1-based
    number of the chunk's first line, its raw lines, the flat whitespace
    tokens (three per row), the index in ``lines`` of every row, and
    ``None`` or the ``(line, message)`` of a line that ends the read.
    Blank lines are skipped.  Such a line is the first other line without
    exactly three fields, or the line of the first byte that is not UTF-8;
    its chunk holds only the rows before it and is the last one yielded.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        start, error = 1, None
        while error is None and (lines := list(itertools.islice(fh, _CHUNK_LINES))):
            # Each byte that is not UTF-8 was read as a lone surrogate,
            # which strict encoding refuses.
            text = "".join(lines)
            if not text.isascii():
                try:
                    text.encode()
                except UnicodeEncodeError as exc:
                    k = text.count("\n", 0, exc.start)
                    byte = ord(text[exc.start]) - 0xDC00
                    error = start + k, f"cannot decode byte 0x{byte:02x} as UTF-8"
                    lines = lines[:k]
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
                k = int(bad[0])
                row = int(rows[k])
                error = start + row, f"expected {expected}, got {lines[row].strip()!r}"
                rows, tokens = rows[:k], tokens[: 3 * k]
            yield start, lines, tokens, rows, error
            start += len(lines)


def _raise_first(path: str, *errors) -> None:
    """Raise ``path:line: message`` for the earliest ``(line, message)``.

    ``None`` entries are skipped; on a tie the entry listed first wins.
    """
    found = [error for error in errors if error]
    if found:
        line, message = min(found, key=lambda error: error[0])
        raise ValueError(f"{path}:{line}: {message}")


def _pair_keys(enrolls, tests):
    """One string key per (enroll, test) pair.

    Ids hold no whitespace, so ``enroll + " " + test`` is unambiguous; a
    string key lets the id strings of the score file be freed, which a
    tuple key would keep alive.
    """
    return map(" ".join, zip(enrolls, tests))


def _parse_scores(scores_file: str):
    """Score column and the ``"enroll test" -> row`` index of a score file."""
    index = {}
    parts = [np.empty(0)]
    n = 0
    for start, _, tokens, rows, error in _row_chunks(scores_file, _SCORE_FORMAT):
        enrolls, tests, raw = tokens[0::3], tokens[1::3], tokens[2::3]
        linenos = start + rows
        value_error = repeat = None
        try:
            values = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
        except ValueError:
            values = []
            for text in raw:
                try:
                    values.append(float(text))
                except ValueError:
                    value_error = linenos[len(values)], f"bad score {text!r}"
                    break
            values = np.array(values)
        # A non-finite score before the first bad one is the earlier error.
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            value_error = linenos[i], f"score must be finite, got {raw[i]!r}"
        # The index keeps a pair's first row, so a later row maps elsewhere.
        first = np.fromiter(
            map(index.setdefault, _pair_keys(enrolls, tests), itertools.count(n)),
            dtype=np.intp,
            count=len(raw),
        )
        repeats = np.flatnonzero(first != np.arange(n, n + len(raw)))
        if repeats.size:
            i = int(repeats[0])
            repeat = linenos[i], f"duplicate score for ({enrolls[i]}, {tests[i]})"
        _raise_first(scores_file, value_error, repeat, error)
        n += len(raw)
        parts.append(values)
    return np.concatenate(parts), index


def parse_trials(trial_file: str, scores_file: str) -> Trials:
    """Join a trial list with a score list on the (enroll, test) id pair.

    Trial lines are ``label enroll_id test_id`` with label 0 or 1; score
    lines are ``enroll_id test_id score``.  Every trial must match exactly
    one score and name a distinct pair.  The first bad line is reported
    with its file and line number, the score file checked before the trial
    file; on a line with several problems a format error (field count,
    label, score value) wins over a join error (duplicate, missing pair).
    The output preserves trial-file order.  Each file is read once, in
    chunks of ``_CHUNK_LINES`` lines, so beyond the output columns only the
    pair index of the score file, the first trial line of each score and
    one chunk are held at a time.
    """
    scores, index = _parse_scores(scores_file)
    # The first trial line that used each score row, int32 max while none has.
    first_line = np.full(scores.size, np.iinfo(np.int32).max, dtype=np.int32)
    row_parts = [np.empty(0, dtype=np.intp)]
    target_parts = [np.empty(0, dtype=bool)]
    for start, lines, tokens, rows, error in _row_chunks(trial_file, _TRIAL_FORMAT):
        labels, enrolls, tests = tokens[0::3], tokens[1::3], tokens[2::3]
        # The table's dtype, as np.minimum.at is 40x slower on mixed ones.
        linenos = (start + rows).astype(np.int32)
        label_error = missing = repeat = None
        if not set(labels) <= {"0", "1"}:
            i = next(i for i, label in enumerate(labels) if label not in ("0", "1"))
            label_error = linenos[i], f"expected {_TRIAL_FORMAT}, got {lines[rows[i]].strip()!r}"
        score_rows = np.fromiter(
            map(index.get, _pair_keys(enrolls, tests), itertools.repeat(-1)),
            dtype=np.intp,
            count=len(labels),
        )
        absent = np.flatnonzero(score_rows < 0)
        if absent.size:
            i = int(absent[0])
            missing = linenos[i], f"no score for trial pair ({enrolls[i]}, {tests[i]})"
        # Up to the first missing pair, a row repeats a pair exactly when
        # the pair's first use is not its own line.
        found = score_rows[: absent[0] if absent.size else None]
        np.minimum.at(first_line, found, linenos[: found.size])
        repeats = np.flatnonzero(first_line[found] != linenos[: found.size])
        if repeats.size:
            i = int(repeats[0])
            pair = f"({enrolls[i]}, {tests[i]})"
            first = first_line[found[i]]
            repeat = linenos[i], f"duplicate trial pair {pair}, first on line {first}"
        _raise_first(trial_file, label_error, missing, repeat, error)
        row_parts.append(score_rows)
        target_parts.append(np.fromiter(map("1".__eq__, labels), dtype=bool, count=len(labels)))
    return Trials(scores[np.concatenate(row_parts)], np.concatenate(target_parts))
