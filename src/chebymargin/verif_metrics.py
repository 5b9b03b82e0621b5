"""Verification scoring: EER and minimum DCF of scored trials.

Both metrics depend only on the ordering of scores.  The sweep cuts the
decision rule ``accept iff score >= v`` at each distinct score ``v`` in
increasing order, then at ``+inf``; ties in score collapse to a single
operating point.  ``compute_eer`` returns the rate alone, linearly
interpolated between the two operating points where ``FAR - FRR`` changes
sign.
"""

from __future__ import annotations

import re
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
# Bytes read at a time, so only one block's tokens are alive.
_BLOCK_BYTES = 1 << 20
# Rows whose keys ``_same_keys`` compares at a time.
_COMPARE_ROWS = 16384
# Zero bytes after a block's bytes: a key's 8-byte words end at most 7
# bytes past it.
_PAD = bytes(8)
# Odd 64-bit multipliers of ``_key_hash``'s mix.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_FINISH = np.uint64(0xBF58476D1CE4E5B9)
# The bytes ``str.split`` splits on: ASCII whitespace and 0x1c-0x1f, not NUL.
_SEPARATORS = np.isin(np.arange(256), list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "))
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")  # what else ``str.split`` splits on


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


def _blocks(fh):
    """The binary file ``fh`` as blocks of whole lines: the partial line
    the last block left and a read of ``_BLOCK_BYTES`` bytes, cut after its
    last line end.  A last ``\\r`` waits, as the next read may start with
    the ``\\n`` of its ``\\r\\n``; the last line is given a ``\\n``."""
    rest = b""
    while chunk := fh.read(_BLOCK_BYTES):
        block = rest + chunk
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        rest = block[cut:]
        if cut:
            yield block[:cut]
    if rest:
        yield rest + b"\n"


def _tokenize(block: bytes, start: int, layout):
    """Every field and line end of ``block``, whole lines from line
    ``start`` on, found by one scan of its bytes for ``_SEPARATORS``.

    Returns ``(rows, n_lines, error, data, starts, stops, quote)``: the
    index among the lines of every line that is not blank, the number of
    lines, ``None`` or the ``(line, message)`` of the first line that is not
    three fields or fails :func:`_text_error`, bytes in which field k of
    row i, for the rows before it, runs from ``starts[3i+k]`` up to
    ``stops[3i+k]``, and a function quoting the line of row ``i``.
    """
    expected, key_at = layout[:2]
    data = np.frombuffer(block + _PAD, dtype=np.uint8)
    marks = np.flatnonzero(data[: len(block)] <= 0x20)
    marks = marks[_SEPARATORS[data[marks]]]
    byte = data[marks]
    # The \r of a \r\n separates two fields; its \n ends the line.
    is_end = (byte == 0x0A) | ((byte == 0x0D) & (data[marks + 1] != 0x0A))
    ends = marks[is_end]
    # A field lies strictly between two separators, on the line of the second.
    bounds = np.concatenate(([-1], marks))
    at = np.flatnonzero(np.diff(bounds) > 1)
    starts, stops = bounds[at] + 1, marks[at]
    counts = np.bincount((np.cumsum(is_end) - is_end)[at], minlength=ends.size)
    limit, problem = (ends.size, None) if block.isascii() else _text_error(block, ends)
    error = None if problem is None else (start + limit, problem)
    rows = np.flatnonzero(counts[:limit])

    def quote(i):
        row = int(rows[i])
        first = int(ends[row - 1]) + 1 if row else 0
        return block[first : ends[row]].decode().strip()

    bad = np.flatnonzero(counts[rows] != 3)
    if bad.size:
        k = int(bad[0])
        error = start + int(rows[k]), f"expected {expected}, got {quote(k)!r}"
        rows = rows[:k]
    starts, stops = starts[: 3 * rows.size], stops[: 3 * rows.size]
    gaps = stops[key_at::3]
    if not (np.array_equal(starts[key_at + 1 :: 3], gaps + 1) and np.all(data[gaps] == 0x20)):
        data, starts, stops = _respaced(data, starts, stops)
    return rows, ends.size, error, data, starts, stops, quote


def _text_error(block: bytes, ends):
    """``(k, message)`` for the first byte of ``block`` that is not UTF-8
    or starts non-ASCII whitespace, on line ``k`` (ending at ``ends[k]``),
    else ``(len(ends), None)``.  ``str.split`` would split on such
    whitespace, which the scan cannot see: taking it into an id would be
    silent coercion."""
    try:
        text, at, message = block.decode(), len(block), None
    except UnicodeDecodeError as exc:
        at = exc.start
        text, message = block[:at].decode(), f"cannot decode byte 0x{block[at]:02x} as UTF-8"
    if space := _NON_ASCII_SPACE.search(text):
        at = len(text[: space.start()].encode())
        message = f"cannot split on non-ASCII whitespace U+{ord(space.group()):04X}"
    return int(np.searchsorted(ends, at)), message


def _respaced(data, starts, stops):
    """The fields of ``data`` from ``starts`` up to ``stops``, each
    followed by one space, then ``_PAD``; and their starts and stops in it."""
    widths = stops - starts + 1
    new_stops = np.cumsum(widths) - 1
    new_starts = new_stops + 1 - widths
    index = np.repeat(starts - new_starts, widths) + np.arange(new_stops[-1] + 1)
    spaced = np.append(data[index], np.zeros(len(_PAD), np.uint8))
    spaced[new_stops] = 0x20
    return spaced, new_starts, new_stops


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
    """Read ``path`` once, a block of whole lines at a time (:func:`_blocks`,
    :func:`_tokenize`), into key columns.

    ``layout`` is ``_SCORES`` or ``_TRIALS``.  The read stops at the first
    line with a format error: a field count, a label or a score value.
    """
    _, key_at, value_at, parse = layout
    empty = np.empty(0, np.int32)
    values = parse(np.empty(0, np.uint8), empty, empty, None)[0]
    parts = [(np.empty(0, np.int64), empty, empty, empty, values)]
    keys: dict = {}  # key length -> bytearray of the padded keys of that length
    start, error = 1, None
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            rows, n_lines, error, data, starts, stops, quote = _tokenize(block, start, layout)
            value_starts = starts[value_at::3]
            values, bad = parse(data, value_starts, stops[value_at::3] - value_starts, quote)
            n = rows.size
            if bad is not None:
                # The rows stop before the block's own error, so a bad value is earlier.
                n, message = bad
                error = start + int(rows[n]), message
            starts = starts[key_at::3][:n]
            lengths = (stops[key_at + 1 :: 3][:n] - starts).astype(np.int32)
            hashes = np.empty(n, dtype=np.int64)
            slots = np.empty(n, dtype=np.int32)
            for length in np.unique(lengths).tolist():
                at = np.flatnonzero(lengths == length)
                padded = _padded_keys(data, starts[at], length)
                column = keys.setdefault(length, bytearray())
                slots[at] = np.arange(at.size) + len(column) // padded.shape[1]
                column += padded.data
                hashes[at] = _key_hash(padded.view(np.uint64), length)
            parts.append((hashes, lengths, slots, (start + rows[:n]).astype(np.int32), values[:n]))
            if error is not None:
                break
            start += n_lines
            # Freed before the next block is read.
            del block, data, starts, stops, quote, value_starts, values
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
    """Whether row ``rows_a[i]`` of ``a`` holds the key of row ``rows_b[i]``
    of ``b``, for every ``i`` with ``rows_b[i] >= 0``; compared
    ``_COMPARE_ROWS`` keys at a time."""
    for i in range(0, rows_b.size, _COMPARE_ROWS):
        ra, rb = rows_a[i : i + _COMPARE_ROWS], rows_b[i : i + _COMPARE_ROWS]
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
    # int32 like the line numbers: an int64 range raised a score's peak memory.
    every = np.arange(rows.size, dtype=np.int32)
    return rows if _same_keys(trials, every, scores, rows) else None


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

    Each file is read once, in binary blocks of ``_BLOCK_BYTES`` bytes,
    each block's partial last line carried over to the next, into key
    columns.  One numpy scan of a block's bytes finds every field and line
    end: the fields are separated by the bytes ``str.split`` splits on
    (ASCII whitespace and 0x1c-0x1f, not NUL), and ``\\n``, ``\\r\\n``
    and a lone ``\\r`` end a line.  A block with a byte of 0x80 or more is
    decoded strictly once: a byte that is not UTF-8, or non-ASCII
    whitespace, on which ``str.split`` would split and the scan cannot, is
    named with its line.  Each key and value is then gathered from the
    bytes at its position, and each value parsed there by one parser per
    kind: a label is the byte 0 or 1, and a score is what ``float`` reads.
    The columns hold per row a 64-bit hash of the key's 8-byte words, the
    key's bytes zero-padded to whole words, the line number and the score
    or label.  Both files' columns are held for the join, which sorts the
    score hashes, looks up the trial hashes and confirms every match on
    the key bytes; if two distinct keys share a hash, the join is redone
    on exact key numbers.  Both files are read in this process, the score
    file first.  There is no option.
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
