"""Verification scoring: EER and minimum DCF of scored trials.

Both metrics depend only on the ordering of scores.  The sweep cuts the
decision rule ``accept iff score >= v`` at each distinct score ``v`` in
increasing order, then at ``+inf``; ties in score collapse to a single
operating point.  ``compute_eer`` returns the rate alone, linearly
interpolated between the two operating points where ``FAR - FRR`` changes
sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Trials:
    """Scored verification trials as two columns.

    ``scores[i]`` is the score of trial ``i`` and ``is_target[i]`` says
    whether it is a same-speaker trial.  Both are 1-D arrays of one length;
    every score is finite.  :func:`compute_eer` and :func:`compute_min_dcf`
    read one sweep of the operating points, built on first use and kept,
    so the arrays must not change after construction.
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

    @cached_property
    def _operating_points(self):
        """FAR and FRR of ``accept iff score >= v`` at each cut ``v``.

        The cuts are the distinct scores in increasing order, then ``+inf``:
        the first accepts every trial and the last rejects every trial, so
        each achievable operating point appears exactly once.
        """
        targets = np.sort(self.scores[self.is_target])
        nontargets = np.sort(self.scores[~self.is_target])
        if targets.size == 0 or nontargets.size == 0:
            raise ValueError("need at least one target and one nontarget trial")
        cuts = np.append(np.unique(self.scores), np.inf)
        far = 1.0 - np.searchsorted(nontargets, cuts, side="left") / nontargets.size
        frr = np.searchsorted(targets, cuts, side="left") / targets.size
        return far, frr


@dataclass(frozen=True)
class DcfParams:
    """Detection cost parameters: the target prior, with unit miss and
    false-alarm costs as in the VoxCeleb, SITW and CN-Celeb evaluations."""

    p_target: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")


def compute_eer(trials: Trials) -> float:
    """Equal error rate.

    ``FAR - FRR`` is non-increasing along the cuts; the rate is linearly
    interpolated between the two adjacent operating points where the sign
    changes.
    """
    far, frr = trials._operating_points
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
    far, frr = trials._operating_points
    p = params.p_target
    return float(np.min(p * frr + (1.0 - p) * far) / min(p, 1.0 - p))


_SCORE_FORMAT = "'enroll test score'"
_TRIAL_FORMAT = "'label enroll test' with label 0/1"
# Characters read at a time, each block then completed to its next newline;
# only one block's tokens are alive.
_BLOCK_CHARS = 1 << 20
# Rows whose keys ``_same_keys`` compares at a time.
_COMPARE_ROWS = 16384
# Zero bytes after a block's bytes: a key's 8-byte words end at most 7
# bytes past it.
_PAD = bytes(8)
# Odd 64-bit multipliers of ``_key_hash``'s mix.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_FINISH = np.uint64(0xBF58476D1CE4E5B9)


def _key_hash(words: np.ndarray, length: int) -> np.ndarray:
    """The 64-bit hash of each key of ``length`` bytes, from its
    zero-padded 8-byte ``words`` (one row per key).

    Each word is xored in, then multiplied and xorshifted, all of them
    bijections: two keys that differ only in their last word never share
    a hash.  uint64 arithmetic on arrays wraps without a warning.
    """
    h = np.full(len(words), length, dtype=np.uint64)
    for column in words.T:
        h ^= column
        h *= _MIX
        h ^= h >> 32
    h *= _FINISH
    h ^= h >> 29
    return h.view(np.int64)


def _padded_keys(data: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The keys of ``length`` bytes at ``starts`` in ``data``, one row per
    key, each zero-padded to a whole number of 8-byte words.  ``data``
    holds at least 7 bytes after the last key."""
    width = -(-length // 8) * 8
    keys = np.lib.stride_tricks.sliding_window_view(data, width)[starts]
    keys[:, length:] = 0
    return keys


def _single_spaced(text: str, key_at: int, value_at: int):
    """The field positions of ``text``'s lines, or ``None`` unless each
    line is three non-empty fields joined by single spaces.

    ``text`` is ASCII and ends in a newline.  One scan of its bytes finds
    every byte of at most 0x20: they must be space, space, newline for
    each line in turn, with at least one other byte before each.  Returns
    ``(data, key_starts, key_lengths, value_starts, value_lengths)``:
    the bytes followed by ``_PAD``, and per line the offset and byte
    length of its key, which is fields ``key_at`` and ``key_at + 1`` and
    the space between them, and of its field ``value_at``.
    """
    data = np.frombuffer(text.encode() + _PAD, dtype=np.uint8)
    marks = np.flatnonzero(data[: len(text)] <= 0x20)
    if data[marks].tobytes() != b"  \n" * (marks.size // 3):
        return None
    bounds = np.concatenate(([-1], marks))
    if np.diff(bounds).min() < 2:
        return None
    return _fields(data, bounds, key_at, value_at)


def _fields(data, bounds, key_at: int, value_at: int):
    """``(data, key_starts, key_lengths, value_starts, value_lengths)`` of
    rows of three fields each, where field k of row i lies strictly between
    ``bounds[3 i + k]`` and the next bound; the first bound is -1."""
    starts = bounds[:-1] + 1
    key_starts = starts[key_at::3]
    value_starts = starts[value_at::3]
    key_lengths = (bounds[key_at + 2 :: 3] - key_starts).astype(np.int32)
    value_lengths = bounds[value_at + 1 :: 3] - value_starts
    return data, key_starts, key_lengths, value_starts, value_lengths


def _split_block(text: str, start: int, layout):
    """Split ``text``, whose first line is line ``start``, line by line.

    Returns ``(rows, n_lines, error, fields)``: the index among the lines
    of every line that is not blank, the number of lines, ``None`` or the
    ``(line, message)`` of the first other line without exactly three
    fields or the line of the first byte that is not UTF-8, and the
    field positions (:func:`_fields`) of the rows before it, in ``data``
    that holds their fields encoded, each followed by one space.
    """
    expected, key_at, value_at, _ = layout
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    n_lines, error = len(lines), None
    # Each byte that is not UTF-8 was read as a lone surrogate, which
    # strict encoding refuses.
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
    # No token holds a space, so the space written after each bounds it.
    data = np.frombuffer(" ".join(tokens).encode() + b" " + _PAD, dtype=np.uint8)
    bounds = np.concatenate(([-1], np.flatnonzero(data == 0x20)[: len(tokens)]))
    return rows, n_lines, error, _fields(data, bounds, key_at, value_at)


def _row_blocks(path: str, layout):
    """Read a three-field-per-line file once, a block at a time: about
    ``_BLOCK_CHARS`` characters, completed to the next newline.

    Yields ``(start, rows, data, key_starts, key_lengths, values, error)``
    per block: the 1-based number of its first line, the index among its
    lines of every row, bytes holding each row's key at its offset and
    byte length, each row's value, and ``None`` or the ``(line,
    message)`` of a line that ends the read; the block holding that line
    is the last one yielded.  Blank lines are skipped.

    A block that is ASCII, ends in a newline and holds only single-spaced
    lines is read at the positions of one scan (:func:`_single_spaced`);
    any other block is split line by line (:func:`_split_block`), which
    names a line without three fields or with a byte that is not UTF-8.
    Either way each value is parsed at its position by the layout's one
    value parser, which names the first bad value: a single-spaced block
    with a bad value is not split.
    """
    _, key_at, value_at, parse = layout
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        start, error = 1, None
        while error is None and (text := fh.read(_BLOCK_CHARS)):
            if not text.endswith("\n"):
                text += fh.readline()
            fields = None
            if text.isascii() and text.endswith("\n"):
                fields = _single_spaced(text, key_at, value_at)
            if fields is None:
                rows, n_lines, error, fields = _split_block(text, start, layout)
            else:
                n_lines = fields[1].size
                rows = np.arange(n_lines)
            data, key_starts, key_lengths, value_starts, value_lengths = fields
            values, bad = parse(
                data, value_starts, value_lengths, lambda i: _line(text, int(rows[i]))
            )
            n = rows.size
            if bad is not None:
                # The split stops before its own error, so a bad value is earlier.
                n, message = bad
                error = start + int(rows[n]), message
            yield start, rows[:n], data, key_starts[:n], key_lengths[:n], values[:n], error
            start += n_lines


def _line(text: str, k: int) -> str:
    """Line ``k`` of ``text``, counted from 0, stripped for a message."""
    return text.split("\n", k + 1)[k].strip()


def _raise_first(path: str, *errors) -> None:
    """Raise ``path:line: message`` for the earliest ``(line, message)``.

    ``None`` entries are skipped; on a tie the entry listed first wins.
    """
    found = [error for error in errors if error]
    if found:
        line, message = min(found, key=lambda error: error[0])
        raise ValueError(f"{path}:{line}: {message}")


def _score_cells(data, starts, lengths, quote):
    """The score at each ``(start, length)`` of ``data`` as a float, and
    ``None`` or the ``(index, message)`` of the first cell that is not a
    finite number; the values stop before a cell that is not a number.

    ``float`` reads each cell's bytes, gathered one cell length at a time
    as ``V`` items, which keep a trailing NUL byte.  If it refuses one,
    each cell is read again in order as UTF-8 text, which ``float`` also
    reads in other scripts' digits.
    """
    values, bad = np.empty(starts.size), None
    try:
        for length in np.unique(lengths).tolist():
            at = np.flatnonzero(lengths == length)
            cells = np.lib.stride_tricks.sliding_window_view(data, length)[starts[at]]
            raw = cells.view(f"V{length}").ravel().tolist()
            values[at] = np.fromiter(map(float, raw), dtype=np.float64, count=at.size)
    except ValueError:
        values = []
        for start, length in zip(starts.tolist(), lengths.tolist()):
            text = data[start : start + length].tobytes().decode()
            try:
                values.append(float(text))
            except ValueError:
                bad = len(values), f"bad score {text!r}"
                break
        values = np.array(values)
    # A non-finite score before the first bad one is the earlier error.
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        i = int(nonfinite[0])
        text = data[starts[i] : starts[i] + lengths[i]].tobytes().decode()
        bad = i, f"score must be finite, got {text!r}"
    return values, bad


def _label_cells(data, starts, lengths, quote):
    """The label at each ``(start, length)`` of ``data`` as a bool, and
    ``None`` or the ``(index, message)`` of the first cell that is not the
    byte 0 or 1, which quotes the row's line (``quote(index)``)."""
    labels = data[starts]
    wrong = np.flatnonzero((lengths != 1) | ((labels != ord("0")) & (labels != ord("1"))))
    bad = None
    if wrong.size:
        i = int(wrong[0])
        bad = i, f"expected {_TRIAL_FORMAT}, got {quote(i)!r}"
    return labels == ord("1"), bad


# Per file: the format its errors name, the field of a row's enroll id and
# of its value, and the parser of the value cells, which is also given a
# function quoting a row's line.
_SCORES = (_SCORE_FORMAT, 0, 2, _score_cells)
_TRIALS = (_TRIAL_FORMAT, 1, 0, _label_cells)


class _KeyColumns(NamedTuple):
    """A score or trial file as columns, one row per line that is not blank,
    up to the file's first format error.

    A row's ``"enroll test"`` key is held twice: as its 64-bit
    :func:`_key_hash` and as its UTF-8 bytes, row ``slots[row]`` of
    ``keys[lengths[row]]``.  Each key length has its own column of
    zero-padded 8-byte words, so no key is padded to a longer one; the
    length tells a key with trailing NUL bytes from a shorter one.
    """

    hashes: np.ndarray  # int64
    lengths: np.ndarray  # int32
    slots: np.ndarray  # int32
    keys: dict  # key length L -> (rows, ceil(L / 8)) uint64 array
    lines: np.ndarray  # int32 line numbers, the dtype of the first-use table
    values: np.ndarray  # the score (float64) or label (bool) of each row
    error: tuple | None  # (line, message) of the format error ending the rows


def _key_columns(path: str, layout) -> _KeyColumns:
    """Read ``path`` once, a block at a time (:func:`_row_blocks`), into
    key columns.

    ``layout`` is ``_SCORES`` or ``_TRIALS``.  The read stops at the first
    line with a format error: a field count, a label or a score value.
    """
    empty = np.empty(0, np.int32)
    values = layout[3](np.empty(0, np.uint8), empty, empty, None)[0]
    parts = [(np.empty(0, np.int64), empty, empty, empty, values)]
    keys: dict = {}  # key length -> bytearray of the padded keys of that length
    error = None
    for start, rows, data, starts, lengths, values, error in _row_blocks(path, layout):
        n = rows.size
        hashes = np.empty(n, dtype=np.int64)
        slots = np.empty(n, dtype=np.int32)
        for length in np.unique(lengths).tolist():
            at = np.flatnonzero(lengths == length)
            padded = _padded_keys(data, starts[at], length)
            column = keys.setdefault(length, bytearray())
            slots[at] = np.arange(at.size) + len(column) // padded.shape[1]
            column += padded.data
            hashes[at] = _key_hash(padded.view(np.uint64), length)
        parts.append((hashes, lengths, slots, (start + rows).astype(np.int32), values))
        if error is not None:
            break
    # One column at a time, its parts freed as it is joined, so at most one
    # column is held twice.
    columns = list(zip(*parts))
    del parts
    hashes, lengths, slots, linenos, values = (np.concatenate(columns.pop(0)) for _ in range(5))
    keys = {
        length: np.frombuffer(column, dtype=np.uint64).reshape(-1, -(-length // 8))
        for length, column in keys.items()
    }
    return _KeyColumns(hashes, lengths, slots, keys, linenos, values, error)


def _key(columns: _KeyColumns, row) -> bytes:
    """The key bytes of ``row``, its padding cut off."""
    length = int(columns.lengths[row])
    return columns.keys[length][int(columns.slots[row])].tobytes()[:length]


def _pair(columns: _KeyColumns, row) -> str:
    """``(enroll, test)`` of ``row``, for a message; no id holds a space."""
    enroll, _, test = _key(columns, row).decode().partition(" ")
    return f"({enroll}, {test})"


def _same_keys(a: _KeyColumns, rows_a, b: _KeyColumns, rows_b) -> bool:
    """Whether row ``rows_a[i]`` of ``a`` (row ``i`` if ``rows_a`` is None)
    holds the key of row ``rows_b[i]`` of ``b``, for every ``i`` with
    ``rows_b[i] >= 0``; compared ``_COMPARE_ROWS`` keys at a time."""
    for i in range(0, rows_b.size, _COMPARE_ROWS):
        rb = rows_b[i : i + _COMPARE_ROWS]
        ra = np.arange(i, i + rb.size) if rows_a is None else rows_a[i : i + _COMPARE_ROWS]
        ra, rb = ra[rb >= 0], rb[rb >= 0]
        lengths = a.lengths[ra]
        if np.any(lengths != b.lengths[rb]):
            return False
        for length, column in a.keys.items():
            if (at := np.flatnonzero(lengths == length)).size:
                # ``take`` along rows is about twice as fast as fancy indexing.
                keys_a = column.take(a.slots[ra[at]], axis=0)
                keys_b = b.keys[length].take(b.slots[rb[at]], axis=0)
                if not np.array_equal(keys_a, keys_b):
                    return False
    return True


def _exact(*columns: _KeyColumns) -> list:
    """Each of ``columns`` hashed by the number of its key among the
    distinct keys of all of them: the fallback for two keys of one hash."""
    ids: dict = {}
    exact = []
    for cols in columns:
        keys = (_key(cols, row) for row in range(cols.hashes.size))
        numbers = (ids.setdefault(key, len(ids)) for key in keys)
        exact.append(cols._replace(hashes=np.fromiter(numbers, np.int64, cols.hashes.size)))
    return exact


def _sorted_scores(scores: _KeyColumns, path: str):
    """``scores`` with its rows sorted by hash, and whether no two distinct
    keys share a hash.

    If none do, raises for the score file's first bad line: a format error,
    or a pair scored on an earlier line.
    """
    order = np.argsort(scores.hashes)
    hashes = scores.hashes[order]
    if np.any(hashes[1:] == hashes[:-1]):
        # A stable sort keeps a repeated key's rows in file order.
        order = np.argsort(scores.hashes, kind="stable")
    del hashes
    # The key columns stay; each row keeps its length and slot in them.
    names = ("hashes", "lengths", "slots", "lines", "values")
    scores = scores._replace(**{name: getattr(scores, name)[order] for name in names})
    del order
    later = np.flatnonzero(scores.hashes[1:] == scores.hashes[:-1]) + 1
    if not _same_keys(scores, later - 1, scores, later):
        return scores, False
    repeat = None
    if later.size:
        row = later[np.argmin(scores.lines[later])]
        repeat = int(scores.lines[row]), f"duplicate score for {_pair(scores, row)}"
    _raise_first(path, scores.error, repeat)
    return scores, True


def _score_rows(scores: _KeyColumns, trials: _KeyColumns):
    """The row in hash-sorted ``scores`` of each trial, -1 where its pair
    has no score, or ``None`` when a trial key shares its hash with another
    score's key."""
    # Sorted, the trial hashes are found about ten times faster.
    order = np.argsort(trials.hashes)
    found = np.searchsorted(scores.hashes, trials.hashes[order])
    rows = np.empty_like(found)
    rows[order] = found
    del order, found
    if scores.hashes.size:
        rows[scores.hashes.take(rows, mode="clip") != trials.hashes] = -1
    else:
        rows[:] = -1
    return rows if _same_keys(trials, None, scores, rows) else None


def _check_trials(trials: _KeyColumns, rows, n_scores: int, path: str) -> None:
    """Raise for the trial file's first bad line: a format error, a pair
    with no score, or a pair used on an earlier line."""
    missing = repeat = None
    absent = np.flatnonzero(rows < 0)
    if absent.size:
        i = absent[0]
        missing = int(trials.lines[i]), f"no score for trial pair {_pair(trials, i)}"
    # The first trial line that used each score row, int32 max while none
    # has; the rows with no score (-1) share the extra last entry.
    first_line = np.full(n_scores + 1, np.iinfo(np.int32).max, dtype=np.int32)
    np.minimum.at(first_line, rows, trials.lines)
    repeats = np.flatnonzero((first_line[rows] != trials.lines) & (rows >= 0))
    if repeats.size:
        i = repeats[0]
        first = first_line[rows[i]]
        repeat = (
            int(trials.lines[i]),
            f"duplicate trial pair {_pair(trials, i)}, first on line {first}",
        )
    _raise_first(path, trials.error, missing, repeat)


def parse_trials(trial_file: str, scores_file: str) -> Trials:
    """Join a trial list with a score list on the (enroll, test) id pair.

    Trial lines are ``label enroll_id test_id`` with label 0 or 1; score
    lines are ``enroll_id test_id score``.  Every trial must match exactly
    one score and name a distinct pair.  The first bad line is reported
    with its file and line number, the score file checked before the trial
    file; on a line with several problems a format error (field count,
    label, score value) wins over a join error (duplicate, missing pair).
    The output preserves trial-file order.

    Each file is read once, in blocks of about ``_BLOCK_CHARS`` characters
    completed to the next newline, into key columns.  In a block of ASCII
    lines that are each three non-empty fields joined by single spaces,
    one numpy scan of its bytes finds every field; any other block is
    split line by line and its fields written out, each followed by a
    space, at positions of their own.  Each key and value is then
    gathered from the bytes at its position, and each value parsed there
    by one parser per kind: a label is the byte 0 or 1, and a score is
    what ``float`` reads.  A bad value is named from its position, with
    no second split of its block.  The columns hold per row a 64-bit
    hash of the key's 8-byte words, the key's bytes zero-padded to whole
    words, the line number and the score or label.  Both files' columns
    are held for the join, which sorts the score hashes, looks up the
    trial hashes and confirms every match on the key bytes; if two
    distinct keys share a hash, the join is redone on exact key numbers.
    Both files are read in this process, the score file first.  There is
    no option.
    """
    scores, unique = _sorted_scores(_key_columns(scores_file, _SCORES), scores_file)
    if not unique:
        scores, _ = _sorted_scores(*_exact(scores), scores_file)
    trials = _key_columns(trial_file, _TRIALS)
    rows = _score_rows(scores, trials) if unique else None
    if rows is None:
        scores, trials = _exact(scores, trials)
        scores, _ = _sorted_scores(scores, scores_file)
        rows = _score_rows(scores, trials)
    _check_trials(trials, rows, scores.hashes.size, trial_file)
    return Trials(scores.values[rows], trials.values)
