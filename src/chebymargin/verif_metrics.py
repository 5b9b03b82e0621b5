"""Verification scoring: EER and minimum DCF of scored trials.

Both metrics depend only on the ordering of scores.  The sweep cuts the
decision rule ``accept iff score >= v`` at each distinct score ``v`` in
increasing order, then at ``+inf``; ties in score collapse to a single
operating point.  ``compute_eer`` returns the rate alone, linearly
interpolated between the two operating points where ``FAR - FRR`` changes
sign.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import _forking


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


def _eer(far: np.ndarray, frr: np.ndarray) -> float:
    """:func:`compute_eer` from the operating points."""
    diff = far - frr
    # diff is +1 at the first cut and -1 at +inf, so 0 < idx < diff.size.
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0.0:
        return float(frr[idx])
    alpha = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    return float(frr[idx - 1] + alpha * (frr[idx] - frr[idx - 1]))


def _min_dcf(far: np.ndarray, frr: np.ndarray, params: DcfParams) -> float:
    """:func:`compute_min_dcf` from the operating points."""
    p = params.p_target
    return float(np.min(p * frr + (1.0 - p) * far) / min(p, 1.0 - p))


def compute_eer(trials: Trials) -> float:
    """Equal error rate.

    ``FAR - FRR`` is non-increasing along the cuts; the rate is linearly
    interpolated between the two adjacent operating points where the sign
    changes.
    """
    return _eer(*_operating_points(trials))


def compute_min_dcf(trials: Trials, params: DcfParams = DcfParams()) -> float:
    """Minimum normalized detection cost over all thresholds.

    ``min_t [p_t FRR(t) + (1 - p_t) FAR(t)]`` divided by
    ``min(p_t, 1 - p_t)``, the better of the two score-blind decisions,
    so the value lies in [0, 1].
    """
    return _min_dcf(*_operating_points(trials), params)


def _eer_and_min_dcf(trials: Trials, params: DcfParams) -> tuple[float, float]:
    """:func:`compute_eer` and :func:`compute_min_dcf` of ``trials``, from
    one sweep of its operating points."""
    far, frr = _operating_points(trials)
    return _eer(far, frr), _min_dcf(far, frr, params)


_SCORE_FORMAT = "'enroll test score'"
_TRIAL_FORMAT = "'label enroll test' with label 0/1"
# Characters read at a time, each block then completed to its next newline;
# only one block's tokens are alive.
_BLOCK_CHARS = 1 << 20
# Rows whose keys ``_same_keys`` compares at a time.
_COMPARE_ROWS = 16384
# A trial file of at least about one read block is read in a forked child
# while this process reads the score file; a smaller one is read faster
# than the fork costs.
_FORK_MIN_BYTES = 1 << 20
# The 64-bit hash of an "enroll test" key.  A forked child shares this
# process's string-hash secret, so both give a key the same hash.
_key_hash = hash


def _single_spaced(text: str, key_at: int):
    """The key length of every line of ``text``, or ``None`` unless each
    line is three non-empty fields joined by single spaces.

    ``text`` is ASCII and ends in a newline.  One scan of its bytes finds
    every byte of at most 0x20: they must be space, space, newline for
    each line in turn, with at least one other byte before each.  A key
    is fields ``key_at`` and ``key_at + 1`` and the space between them.
    """
    # A first line that fails is found without the scan: a file that is
    # not single-spaced mostly fails on every block's first line.
    first = text[: text.index("\n")]
    if first.count(" ") != 2 or len(first.split()) != 3:
        return None
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    marks = np.flatnonzero(data <= 0x20)
    if data[marks].tobytes() != b"  \n" * (marks.size // 3):
        return None
    # Field k of line i lies strictly between bounds[3 i + k] and the next
    # bound; the first bound stands for a newline before the text.
    bounds = np.concatenate(([-1], marks))
    if np.diff(bounds).min() < 2:
        return None
    return (bounds[key_at + 2 :: 3] - bounds[key_at : -1 : 3] - 1).astype(np.int32)


def _split_lines(text: str, start: int, expected: str):
    """Tokenize ``text``, whose first line is line ``start``, line by line.

    Returns ``(tokens, rows, n_lines, error)``: the flat whitespace tokens
    (three per row), the index among the lines of every line that is not
    blank, the number of lines, and ``None`` or the ``(line, message)`` of
    the first other line without exactly three fields or the line of the
    first byte that is not UTF-8.  The rows and tokens stop before it.
    """
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
    return tokens, rows, n_lines, error


def _row_blocks(path: str, expected: str, key_at: int):
    """Read a three-field-per-line file once, a block at a time: about
    ``_BLOCK_CHARS`` characters, completed to the next newline.

    Yields ``(start, text, tokens, rows, lengths, error)`` per block: the
    1-based number of its first line, its text, the flat whitespace tokens
    (three per row), the index among its lines of every row, each row's
    key length in bytes or ``None``, and ``None`` or the ``(line,
    message)`` of a line that ends the read (:func:`_split_lines`); the
    block holding that line is the last one yielded.  Blank lines are
    skipped.

    A block that is ASCII, ends in a newline and holds only single-spaced
    lines (:func:`_single_spaced`) is tokenized with one ``str.split``,
    and the same scan gives its key lengths.  Any other block is split
    line by line, and its key lengths are left to the caller.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        start, error = 1, None
        while error is None and (text := fh.read(_BLOCK_CHARS)):
            if not text.endswith("\n"):
                text += fh.readline()
            lengths = None
            if text.isascii() and text.endswith("\n"):
                lengths = _single_spaced(text, key_at)
            if lengths is None:
                tokens, rows, n_lines, error = _split_lines(text, start, expected)
            else:
                tokens, rows, n_lines = text.split(), np.arange(lengths.size), lengths.size
            yield start, text, tokens, rows, lengths, error
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


def _parse_scores(raw, quote):
    """Each score token as a float, and ``None`` or the ``(index, message)``
    of the first token that is not a finite number."""
    bad = None
    try:
        values = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
    except ValueError:
        values = []
        for text in raw:
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
        bad = i, f"score must be finite, got {raw[i]!r}"
    return values, bad


def _parse_labels(raw, quote):
    """Each label token as a bool, and ``None`` or the ``(index, message)``
    of the first token that is not 0 or 1, which quotes the row's line."""
    bad = None
    if not set(raw) <= {"0", "1"}:
        i = next(i for i, label in enumerate(raw) if label not in ("0", "1"))
        bad = i, f"expected {_TRIAL_FORMAT}, got {quote(i)!r}"
    return np.fromiter(map("1".__eq__, raw), dtype=bool, count=len(raw)), bad


# Per file: the format its errors name, the token of a row's enroll id and
# of its value, and the parser of the value tokens, which is also given a
# function quoting a row's line.
_SCORES = (_SCORE_FORMAT, 0, 2, _parse_scores)
_TRIALS = (_TRIAL_FORMAT, 1, 0, _parse_labels)


class _KeyColumns(NamedTuple):
    """A score or trial file as columns, one row per line that is not blank,
    up to the file's first format error.

    A row's ``"enroll test"`` key is held twice: as its 64-bit ``_key_hash``
    and as its UTF-8 bytes ``keys[lengths[row]][slots[row]]``.  Each key
    length has its own fixed-width ``S`` column, so no key is padded to a
    longer one and none loses a trailing NUL byte.
    """

    hashes: np.ndarray  # int64
    lengths: np.ndarray  # int32
    slots: np.ndarray  # int32
    keys: dict  # key length -> S{length} array
    lines: np.ndarray  # int32 line numbers, the dtype of the first-use table
    values: np.ndarray  # the score (float64) or label (bool) of each row
    error: tuple | None  # (line, message) of the format error ending the rows


def _key_columns(path: str, layout) -> _KeyColumns:
    """Read ``path`` once, a block at a time (:func:`_row_blocks`), into
    key columns.

    ``layout`` is ``_SCORES`` or ``_TRIALS``.  The read stops at the first
    line with a format error: a field count, a label or a score value.
    """
    expected, key_at, value_at, parse = layout
    parts = [(np.empty(0, np.int64), *[np.empty(0, np.int32)] * 3, parse([], None)[0])]
    keys: dict = {}  # key length -> bytearray of the keys of that length
    error = None
    for start, text, tokens, rows, lengths, error in _row_blocks(path, expected, key_at):
        values, bad = parse(tokens[value_at::3], lambda i: _line(text, int(rows[i])))
        if bad is not None:
            i, message = bad
            error = start + int(rows[i]), message
            rows = rows[:i]
        n = rows.size
        enrolls, tests = tokens[key_at : 3 * n : 3], tokens[key_at + 1 : 3 * n : 3]
        pair_keys = list(map(" ".join, zip(enrolls, tests)))
        # The scan gave an ASCII block's key lengths, and an ASCII key has as
        # many bytes as characters: each length's keys are encoded at once.
        ascii_keys = lengths is not None
        if ascii_keys:
            pieces, lengths = pair_keys, lengths[:n]
        else:
            pieces = list(map(str.encode, pair_keys))
            lengths = np.fromiter(map(len, pieces), dtype=np.int32, count=n)
        slots = np.empty(n, dtype=np.int32)
        for length in np.unique(lengths).tolist():
            at = np.flatnonzero(lengths == length)
            column = keys.setdefault(length, bytearray())
            slots[at] = np.arange(at.size) + len(column) // length
            group = pieces if at.size == n else [pieces[i] for i in at.tolist()]
            column += "".join(group).encode() if ascii_keys else b"".join(group)
        hashes = np.fromiter(map(_key_hash, pair_keys), dtype=np.int64, count=n)
        parts.append((hashes, lengths, slots, (start + rows).astype(np.int32), values[:n]))
        if error is not None:
            break
    # One column at a time, its parts freed as it is joined, so at most one
    # column is held twice.
    columns = list(zip(*parts))
    del parts
    hashes, lengths, slots, linenos, values = (np.concatenate(columns.pop(0)) for _ in range(5))
    keys = {length: np.frombuffer(column, dtype=f"S{length}") for length, column in keys.items()}
    return _KeyColumns(hashes, lengths, slots, keys, linenos, values, error)


def _key(columns: _KeyColumns, row) -> bytes:
    """The key bytes of ``row``; an ``S`` scalar would drop trailing NULs."""
    slot = int(columns.slots[row])
    return columns.keys[int(columns.lengths[row])][slot : slot + 1].tobytes()


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
                # Byte views: comparing them is several times faster than ``S``.
                keys_a = column[a.slots[ra[at]]].view(np.uint8)
                keys_b = b.keys[length][b.slots[rb[at]]].view(np.uint8)
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


def _send_columns(trial_file: str, pipe) -> None:
    """Send the trial file's key columns, or the exception that stopped
    the read, over ``pipe``: length-prefixed frames of a protocol 5 pickle
    and its out-of-band buffers, which are the arrays' own memory."""
    try:
        result = _key_columns(trial_file, _TRIALS)
    except Exception as exc:
        result = exc
    buffers = []
    header = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    for frame in [header, *(buffer.raw() for buffer in buffers)]:
        pipe.write(len(frame).to_bytes(8, "little"))
        pipe.write(frame)


def _receive_columns(children, reader, trial_file: str) -> _KeyColumns:
    """The trial file's key columns as the child reading them sent them;
    raises the exception that stopped its read."""
    frames = []
    while len(size := reader.read(8)) == 8:
        frames.append(bytearray(int.from_bytes(size, "little")))
        reader.readinto(frames[-1])
    status = children.join(reader)
    if status:
        raise ChildProcessError(
            f"reading {trial_file} failed in a child process (exit status {status})"
        )
    result = pickle.loads(frames[0], buffers=frames[1:])
    if isinstance(result, Exception):
        raise result
    # An unpickled array's dtype is a copy that numpy does not take for its
    # builtin one, and that puts ufuncs such as ``np.minimum.at`` on a path
    # over ten times slower; a view as the builtin dtype is not.  The key
    # columns' ``S`` dtypes have no builtin form.
    names = ("hashes", "lengths", "slots", "lines", "values")
    return result._replace(
        **{name: (a := getattr(result, name)).view(np.dtype(a.dtype.str)) for name in names}
    )


def _forks(trial_file: str) -> bool:
    """Whether the trial file is read in a child: with a second CPU in the
    affinity mask and at least ``_FORK_MIN_BYTES`` to read.  A file whose
    size cannot be read is read here, after the score file is checked."""
    try:
        return _forking.usable_cpus() > 1 and os.path.getsize(trial_file) >= _FORK_MIN_BYTES
    except OSError:
        return False


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
    completed to the next newline, into key columns.  A block of ASCII
    lines that are each three non-empty fields joined by single spaces is
    tokenized with one ``str.split``; any other block is split line by
    line, to the same columns, messages and line numbers.  The columns
    hold per row a 64-bit key hash, the key's bytes, the line number and
    the score or label.  Both files' columns are held for the join,
    which sorts the score hashes, looks up the trial hashes and confirms
    every match on the key bytes; if two distinct keys share a hash, the
    join is redone on exact key numbers.  When the affinity mask has two
    or more CPUs and the trial file has at least ``_FORK_MIN_BYTES``, a
    forked child reads it while this process reads the score file; the
    child is reaped before this returns or raises.  There is no option.
    """
    with _forking.Children() as children:
        if _forks(trial_file):
            reader = children.start(partial(_send_columns, trial_file))
            read_trials = partial(_receive_columns, children, reader, trial_file)
        else:
            read_trials = partial(_key_columns, trial_file, _TRIALS)
        scores, unique = _sorted_scores(_key_columns(scores_file, _SCORES), scores_file)
        if not unique:
            scores, _ = _sorted_scores(*_exact(scores), scores_file)
        trials = read_trials()
    rows = _score_rows(scores, trials) if unique else None
    if rows is None:
        scores, trials = _exact(scores, trials)
        scores, _ = _sorted_scores(scores, scores_file)
        rows = _score_rows(scores, trials)
    _check_trials(trials, rows, scores.hashes.size, trial_file)
    return Trials(scores.values[rows], trials.values)
