"""Tests for trial parsing, EER, and minDCF."""

import contextlib
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fake_cpus

from chebymargin import verif_metrics
from chebymargin.cli import main
from chebymargin.verif_metrics import (
    DcfParams,
    Trials,
    compute_eer,
    compute_min_dcf,
    parse_trials,
)


def make_scores(targets, nontargets):
    return Trials(
        list(targets) + list(nontargets), [True] * len(targets) + [False] * len(nontargets)
    )


def numbered_rows(path):
    """``(line number, fields)`` of every line that is not blank."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if fields := line.split():
                yield lineno, fields


def reference_join(trial_file, scores_file):
    """Oracle: the join line by line, as ``(scores, is_target)`` lists.

    The first bad line, score file first, raises ``ValueError`` with
    ``PATH:LINE: `` and the start of the message ``parse_trials`` gives;
    on one line a format problem (field count, label, score value) is
    named before a join problem (duplicate, missing pair).
    """
    score_map = {}
    for lineno, fields in numbered_rows(scores_file):
        where = f"{scores_file}:{lineno}: "
        if len(fields) != 3:
            raise ValueError(where + "expected")
        enroll, test, raw = fields
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(where + f"bad score {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(where + f"score must be finite, got {raw!r}")
        if (enroll, test) in score_map:
            raise ValueError(where + f"duplicate score for ({enroll}, {test})")
        score_map[(enroll, test)] = value
    scores, is_target = [], []
    first_line = {}
    for lineno, fields in numbered_rows(trial_file):
        where = f"{trial_file}:{lineno}: "
        if len(fields) != 3 or fields[0] not in ("0", "1"):
            raise ValueError(where + "expected")
        label, enroll, test = fields
        if (enroll, test) not in score_map:
            raise ValueError(where + f"no score for trial pair ({enroll}, {test})")
        if (enroll, test) in first_line:
            raise ValueError(
                where + f"duplicate trial pair ({enroll}, {test}), "
                f"first on line {first_line[enroll, test]}"
            )
        first_line[enroll, test] = lineno
        scores.append(score_map[(enroll, test)])
        is_target.append(label == "1")
    return scores, is_target


def assert_matches_reference(trial_file, scores_file):
    """``parse_trials`` gives the oracle's columns, or raises its error."""
    try:
        expected = reference_join(trial_file, scores_file)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}"):
            parse_trials(trial_file, scores_file)
    else:
        trials = parse_trials(trial_file, scores_file)
        assert (trials.scores.tolist(), trials.is_target.tolist()) == expected


@contextlib.contextmanager
def parsing(block_bytes):
    """Context in which ``parse_trials`` reads ``block_bytes`` bytes at a
    time.  The process has two CPUs, and a fork fails the test: both files
    are read in this process.

    Hypothesis tests may not take the function-scoped ``monkeypatch``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verif_metrics, "_BLOCK_BYTES", block_bytes)
        fake_cpus(patch, 2, 0)
        yield


def brute_force_sweep(targets, nontargets):
    """Oracle: count-based ``(FAR, FRR)`` of ``accept iff s >= t`` at every
    distinct score ``t`` and at ``+inf`` (reject all), via explicit loops."""
    points = []
    for t in sorted(set(targets) | set(nontargets)) + [math.inf]:
        far = sum(1 for s in nontargets if s >= t) / len(nontargets)
        frr = sum(1 for s in targets if s < t) / len(targets)
        points.append((far, frr))
    return points


def brute_force_eer(targets, nontargets):
    """Oracle EER: linear interpolation at the FAR-FRR sign change."""
    points = brute_force_sweep(targets, nontargets)
    for (far0, frr0), (far1, frr1) in zip(points, points[1:]):
        d0, d1 = far0 - frr0, far1 - frr1
        if d1 <= 0.0 <= d0:
            if d1 == 0.0:
                return frr1
            return frr0 + d0 / (d0 - d1) * (frr1 - frr0)
    raise AssertionError("no crossing found")


def brute_force_min_dcf(targets, nontargets, params):
    points = brute_force_sweep(targets, nontargets)
    p = params.p_target
    best = min(p * frr + (1.0 - p) * far for far, frr in points)
    return best / min(p, 1.0 - p)


# Scores whose midpoints or ``+-1`` neighbours round onto a score: each
# value and its one-ulp neighbour, some at or above 2**54 where ``v + 1.0 == v``.
ULP_LATTICE = np.array([0.1, 1e16, 2.0**54, 2e16, -2e16])
ULP_LATTICE = np.append(ULP_LATTICE, np.nextafter(ULP_LATTICE, np.inf))


def draw_scores(data, n_t, n_n, seed):
    """Target and non-target scores, from two normals or from ``ULP_LATTICE``."""
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="lattice"):
        return list(rng.choice(ULP_LATTICE, n_t)), list(rng.choice(ULP_LATTICE, n_n))
    return list(rng.normal(0.5, 1.0, n_t)), list(rng.normal(-0.5, 1.0, n_n))


class TestEer:
    def test_perfect_separation(self):
        eer = compute_eer(make_scores([0.9, 0.8], [0.2, 0.1]))
        assert eer == 0.0

    def test_interleaved_half(self):
        eer = compute_eer(make_scores([0.9, 0.1], [0.8, 0.2]))
        assert eer == pytest.approx(brute_force_eer([0.9, 0.1], [0.8, 0.2]), abs=1e-12)
        assert eer == 0.5

    def test_flipped_labels_give_one(self):
        eer = compute_eer(make_scores([0.2, 0.1], [0.9, 0.8]))
        assert eer == 1.0

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            compute_eer(make_scores([0.5], []))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, data):
        n_t = data.draw(st.integers(1, 25))
        n_n = data.draw(st.integers(1, 25))
        seed = data.draw(st.integers(0, 2**31))
        targets, nontargets = draw_scores(data, n_t, n_n, seed)
        eer = compute_eer(make_scores(targets, nontargets))
        assert eer == pytest.approx(brute_force_eer(targets, nontargets), abs=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        targets = list(rng.normal(0.3, 1.0, 12))
        nontargets = list(rng.normal(-0.3, 1.0, 15))
        base = compute_eer(make_scores(targets, nontargets))
        warp = lambda s: math.tanh(s) * 3.0 + 0.1 * s
        warped = compute_eer(
            make_scores([warp(s) for s in targets], [warp(s) for s in nontargets])
        )
        assert warped == pytest.approx(base, abs=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_negation_and_label_flip_symmetry(self, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        targets = list(rng.normal(0.4, 1.0, 10))
        nontargets = list(rng.normal(-0.4, 1.0, 10))
        base = compute_eer(make_scores(targets, nontargets))
        flipped = compute_eer(
            make_scores([-s for s in nontargets], [-s for s in targets])
        )
        assert flipped == pytest.approx(base, abs=1e-12)


class TestMinDcf:
    def test_perfect_separation_is_zero(self):
        assert compute_min_dcf(make_scores([0.9, 0.8], [0.2, 0.1])) == 0.0

    def test_label_independent_scores_give_one(self):
        """When both classes carry identical score multisets, no threshold
        beats the better score-blind decision."""
        scores = make_scores([0.5, 0.3], [0.5, 0.3])
        assert compute_min_dcf(scores, DcfParams(p_target=0.01)) == 1.0

    def test_hand_case_matches_brute_force(self):
        params = DcfParams(p_target=0.01)
        value = compute_min_dcf(make_scores([0.9, 0.7], [0.8, 0.1]), params)
        oracle = brute_force_min_dcf([0.9, 0.7], [0.8, 0.1], params)
        assert value == pytest.approx(oracle, abs=1e-12)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, data):
        n_t = data.draw(st.integers(1, 25))
        n_n = data.draw(st.integers(1, 25))
        seed = data.draw(st.integers(0, 2**31))
        p_target = data.draw(st.sampled_from([0.01, 0.05, 0.5]))
        targets, nontargets = draw_scores(data, n_t, n_n, seed)
        params = DcfParams(p_target=p_target)
        value = compute_min_dcf(make_scores(targets, nontargets), params)
        oracle = brute_force_min_dcf(targets, nontargets, params)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert 0.0 <= value <= 1.0

    def test_zero_iff_separable(self):
        separable = make_scores([0.9, 0.8], [0.7, 0.1])
        assert compute_min_dcf(separable) == 0.0
        overlapping = make_scores([0.9, 0.5], [0.7, 0.1])
        assert compute_min_dcf(overlapping) > 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError, match=r"^p_target must be in \(0, 1\), got 0\.0$"):
            DcfParams(p_target=0.0)


@pytest.mark.parametrize(
    "targets, nontargets, eer, min_dcf",
    [
        pytest.param([0.10000000000000002], [0.1], 0.0, 0.0, id="one-ulp-apart"),
        pytest.param([2e16], [2e16, 1e16], 1 / 3, 1.0, id="beyond-2**54"),
    ],
)
def test_operating_point_at_every_distinct_score(targets, nontargets, eer, min_dcf):
    """No operating point is lost where neighbouring scores are one ulp
    apart or too large for ``v + 1.0`` to differ from ``v``."""
    trials = make_scores(targets, nontargets)
    assert compute_eer(trials) == eer
    assert compute_min_dcf(trials) == min_dcf


class TestTrials:
    def test_rejects_non_finite_score(self):
        with pytest.raises(ValueError):
            Trials([0.5, float("nan")], [True, False])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="one length"):
            Trials([0.5, 0.1], [True])
        with pytest.raises(ValueError, match="1-D"):
            Trials([[0.5]], [[True]])

    def test_rejects_non_boolean_labels(self):
        with pytest.raises(ValueError, match="boolean"):
            Trials([0.5], [0.7])

    def test_len_counts_trials(self):
        assert len(make_scores([0.9, 0.8], [0.1])) == 3


class TestParseTrials:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_single_trial(self, tmp_path):
        trials = parse_trials(
            self.write(tmp_path, "t.txt", "1 spk1 utt1\n"),
            self.write(tmp_path, "s.txt", "spk1 utt1 0.75\n"),
        )
        assert trials.scores.tolist() == [0.75]
        assert trials.is_target.tolist() == [True]

    def test_order_preserving_join(self, tmp_path):
        trials = parse_trials(
            self.write(tmp_path, "t.txt", "1 a x\n0 b y\n1 c z\n"),
            self.write(tmp_path, "s.txt", "c z 0.3\na x 0.1\nb y 0.2\n"),
        )
        assert trials.scores.tolist() == [0.1, 0.2, 0.3]
        assert trials.is_target.tolist() == [True, False, True]

    def test_missing_score_names_pair_and_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"t\.txt:2.*\(b, y\)"):
            parse_trials(
                self.write(tmp_path, "t.txt", "1 a x\n0 b y\n"),
                self.write(tmp_path, "s.txt", "a x 0.1\n"),
            )

    def test_duplicate_score_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"s\.txt:2.*duplicate"):
            parse_trials(
                self.write(tmp_path, "t.txt", "1 a x\n"),
                self.write(tmp_path, "s.txt", "a x 0.1\na x 0.2\n"),
            )

    def test_malformed_lines_reported(self, tmp_path):
        with pytest.raises(ValueError, match=r"t\.txt:1"):
            parse_trials(
                self.write(tmp_path, "t.txt", "2 a x\n"),
                self.write(tmp_path, "s.txt", "a x 0.1\n"),
            )
        with pytest.raises(ValueError, match=r"s\.txt:1.*bad score"):
            parse_trials(
                self.write(tmp_path, "t.txt", "1 a x\n"),
                self.write(tmp_path, "s.txt", "a x notanumber\n"),
            )

    def test_non_finite_score_names_line(self, tmp_path):
        for raw in ("nan", "inf", "-Infinity"):
            with pytest.raises(ValueError, match=rf"s\.txt:2: score must be finite, got '{raw}'"):
                parse_trials(
                    self.write(tmp_path, "t.txt", "1 a x\n"),
                    self.write(tmp_path, "s.txt", f"a x 0.1\nb y {raw}\n"),
                )

    @pytest.mark.parametrize("block_bytes", [1, verif_metrics._BLOCK_BYTES])
    def test_float_decides_on_the_text(self, tmp_path, block_bytes):
        """``float`` reads a score in any script's digits, as in the text:
        ``\u0661`` is ARABIC-INDIC DIGIT ONE, whose UTF-8 bytes ``float``
        refuses.  A bad score after it is still named on its line."""
        trials = self.write(tmp_path, "t.txt", "1 a x\n0 b y\n")
        scores = self.write(tmp_path, "s.txt", "a x \u0661\nb y 0.5\n")
        bad_scores = self.write(tmp_path, "bad.txt", "a x \u0661\nb y 0.5\nc z x\n")
        with parsing(block_bytes):
            assert parse_trials(trials, scores).scores.tolist() == [1.0, 0.5]
            with pytest.raises(ValueError, match=r"bad\.txt:3: bad score 'x'$"):
                parse_trials(trials, bad_scores)

    def test_duplicate_trial_rejected_with_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"t\.txt:4: duplicate trial pair \(a, x\), first on line 1"):
            parse_trials(
                self.write(tmp_path, "t.txt", "1 a x\n0 b y\n\n1 a x\n"),
                self.write(tmp_path, "s.txt", "a x 0.1\nb y 0.2\n"),
            )


SCORES_ABCD = "a x 0.1\nb y 0.2\nc z 0.3\nd w 0.4\n"


class TestParseTrialsBlocks:
    """Small blocks: each file is streamed, yet its first bad line wins,
    whichever block it and the later errors sit in."""

    @pytest.mark.parametrize(
        "trials, scores, message",
        [
            pytest.param(
                "1 a x\n",
                "a x bad\nb y 0.2\nc z 0.3\nd w 0.4\ne v\n",
                r"s\.txt:1: bad score 'bad'$",
                id="field-count-in-block-3-loses-to-bad-score-in-block-1",
            ),
            pytest.param(
                "1 a x\n0 q q\n1 b y\n2 c z\n",
                SCORES_ABCD,
                r"t\.txt:2: no score for trial pair \(q, q\)$",
                id="bad-label-in-block-2-loses-to-missing-pair-in-block-1",
            ),
            pytest.param(
                "1 a x\n",
                "a x 0.1\nb y inf\nc z nope\n",
                r"s\.txt:2: score must be finite, got 'inf'$",
                id="bad-score-in-block-2-loses-to-non-finite-in-block-1",
            ),
            pytest.param(
                "1 a x\n",
                "a x 0.1\na x 0.2\nc z nope\n",
                r"s\.txt:2: duplicate score for \(a, x\)$",
                id="bad-score-in-block-2-loses-to-duplicate-in-block-1",
            ),
            pytest.param(
                "1 a x\n1 a x\n0 b y\n1 q q\n",
                SCORES_ABCD,
                r"t\.txt:2: duplicate trial pair \(a, x\), first on line 1$",
                id="missing-pair-in-block-2-loses-to-duplicate-trial-in-block-1",
            ),
            pytest.param(
                "1 a x\n",
                "a x 0.1\nb y 0.2\nc z 0.3\nb y 0.4\na x 0.5\n",
                r"s\.txt:4: duplicate score for \(b, y\)$",
                id="duplicate-score-across-blocks-names-second-line",
            ),
            pytest.param(
                "0 b y\n\n1 a x\n0 c z\n1 a x\n",
                SCORES_ABCD,
                r"t\.txt:5: duplicate trial pair \(a, x\), first on line 3$",
                id="duplicate-trial-across-blocks-names-both-lines",
            ),
            pytest.param(
                "1 a x\n0 b y\n1 a x\n1 a x\n",
                SCORES_ABCD,
                r"t\.txt:3: duplicate trial pair \(a, x\), first on line 1$",
                id="two-repeats-in-one-block-name-the-earlier-blocks-line",
            ),
            pytest.param(
                "1 a x\n",
                "a x 0.1\nb y 0.2\nc z -Infinity\n",
                r"s\.txt:3: score must be finite, got '-Infinity'$",
                id="non-finite-score-quoted-raw",
            ),
            pytest.param(
                "1 a x\n",
                "b y 0.1\na x 0.5\x00\nc z nope\n",
                r"s\.txt:2: bad score '0\.5\\x00'$",
                id="score-ending-in-nul-is-bad",
            ),
        ],
    )
    # One line per read; two lines per read of these 6- and 8-byte lines.
    @pytest.mark.parametrize("block_bytes", [1, 12])
    def test_first_error_wins_across_blocks(
        self, tmp_path, monkeypatch, block_bytes, trials, scores, message
    ):
        monkeypatch.setattr(verif_metrics, "_BLOCK_BYTES", block_bytes)
        t, s = tmp_path / "t.txt", tmp_path / "s.txt"
        t.write_text(trials, encoding="utf-8")
        s.write_text(scores, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}/" + message):
            parse_trials(str(t), str(s))

    @pytest.mark.parametrize("block_bytes", [1, 9, verif_metrics._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "trials, scores, message",
        [
            pytest.param(
                b"1 a x\r\n0 b y\r\n\r\n1 c \xffz\r\n0 d w\r\n",
                SCORES_ABCD.encode(),
                r"t\.txt:4: cannot decode byte 0xff as UTF-8$",
                id="trial-file",
            ),
            pytest.param(
                b"1 a x\n",
                b"".join(b"a x%d 0.1\n" % i for i in range(3000)) + b"b y 0.\xc3\n",
                r"s\.txt:3001: cannot decode byte 0xc3 as UTF-8$",
                id="past-the-first-read-of-the-file",
            ),
            pytest.param(
                b"1 a x\n",
                b"a x 0.1\nb y 0.2\xe2\x82",
                r"s\.txt:2: cannot decode byte 0xe2 as UTF-8$",
                id="cut-at-the-end",
            ),
            pytest.param(
                b"1 a x\n",
                b"a x 0.1\nb y\n\xff\n",
                r"s\.txt:2: expected 'enroll test score', got 'b y'$",
                id="after-a-bad-line",
            ),
        ],
    )
    def test_undecodable_byte_names_its_line(
        self, tmp_path, monkeypatch, block_bytes, trials, scores, message
    ):
        monkeypatch.setattr(verif_metrics, "_BLOCK_BYTES", block_bytes)
        t, s = tmp_path / "t.txt", tmp_path / "s.txt"
        t.write_bytes(trials)
        s.write_bytes(scores)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}/" + message):
            parse_trials(str(t), str(s))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_block_size_gives_the_oracle_join(self, tmp_path, newline):
        """Blocks of every size from one byte to the whole file, so a
        boundary falls in each line and between each two lines, around a
        blank line, a tab and a whitespace-only line; the last line has no
        newline."""
        trials = newline.join(["1 a x", "0 b\ty", "", "1 c z", "0 d w"])
        scores = newline.join(["c z 0.3", "a x 0.1", "  ", "b y 0.2", "d w 0.4"])
        t, s = write_pair(tmp_path, trials, scores)
        for block_bytes in range(1, len(scores) + 2):
            with parsing(block_bytes):
                assert_matches_reference(t, s)

    def test_lone_cr_file_is_read_in_bounded_blocks(self, tmp_path, monkeypatch):
        """A lone-CR pair spanning many 64-byte reads gives the oracle join,
        and no block is longer than a read and one line: a reader that
        completed each block with ``readline`` would take the rest of a file
        with no ``\\n`` as one block."""
        trials = "".join(f"{k % 2} e{k} t{k}\r" for k in range(200))
        scores = "".join(f"e{k} t{k} {k / 8}\r" for k in reversed(range(200)))
        t, s = write_pair(tmp_path, trials, scores)
        longest = max(map(len, (trials + scores).split("\r"))) + 1
        sizes = []
        tokenize = verif_metrics._tokenize

        def spy(block, *args):
            sizes.append(len(block))
            return tokenize(block, *args)

        monkeypatch.setattr(verif_metrics, "_tokenize", spy)
        with parsing(64):
            assert_matches_reference(t, s)
        assert len(sizes) >= (len(trials) + len(scores)) // (64 + longest)
        assert max(sizes) <= 64 + longest

    @pytest.mark.parametrize("block_bytes", [1, 8182, 8190, 8192, verif_metrics._BLOCK_BYTES])
    def test_crlf_split_between_two_reads_of_the_file(self, tmp_path, block_bytes):
        """A CRLF whose ``\\r`` is the last byte of a read of the file (the
        first 8192 bytes) and whose ``\\n`` starts the next ends one line."""
        first = "L" * 8175 + " x 0.5\r\n"
        scores = first + "b y 0.25\r\n" + "c z 0.75\r\n"
        assert scores.index("\r\n", len(first)) == 8191
        t, s = tmp_path / "t.txt", tmp_path / "s.txt"
        t.write_bytes(b"1 b y\r\n0 c z\r\n")
        s.write_bytes(scores.encode())
        with parsing(block_bytes):
            trials = parse_trials(str(t), str(s))
        assert (trials.scores.tolist(), trials.is_target.tolist()) == ([0.25, 0.75], [True, False])

    @pytest.mark.parametrize(
        "trials, scores, valid",
        [
            pytest.param("1 a x\n0 b y\n1 c z\n", SCORES_ABCD, True, id="valid"),
            pytest.param(
                "1 a x\n", "a x 0.1\nb y 0.2\nc z 0.3\na x 0.4\n", False, id="duplicate-score"
            ),
            pytest.param("1 a x\n0 b y\n1 c z\n1 a x\n", SCORES_ABCD, False, id="duplicate-trial"),
        ],
    )
    def test_each_file_opened_once(self, tmp_path, monkeypatch, trials, scores, valid):
        """Each file is opened once on valid input and at most once on bad
        input."""
        paths = {"t": tmp_path / "t.txt", "s": tmp_path / "s.txt"}
        paths["t"].write_text(trials, encoding="utf-8")
        paths["s"].write_text(scores, encoding="utf-8")
        opened = []

        def logging_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(verif_metrics, "open", logging_open, raising=False)
        with parsing(12), contextlib.suppress(ValueError):
            parse_trials(str(paths["t"]), str(paths["s"]))
        counts = [opened.count(str(paths[name])) for name in "st"]
        assert len(opened) == sum(counts)
        assert counts == [1, 1] if valid else max(counts) <= 1, opened


IDS = st.text(alphabet="abXY09/._-", min_size=1, max_size=5)
GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
EDGES = st.sampled_from(["", " ", "\t"])
BLANKS = st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2)
LINE_STYLES = st.tuples(BLANKS, EDGES, GAPS, GAPS, EDGES)
SCORE_FORMATS = st.sampled_from([repr, "{:.4f}".format, "{:e}".format])
BAD_LINE_KINDS = [
    "field count", "label", "bad score", "non-finite score",
    "duplicate score", "duplicate trial", "missing pair",
]
BAD_SCORES = ["x", "1.2.3", "--1", "0x10", "1e", "0.5a"]
NON_FINITE_SCORES = ["nan", "inf", "-Infinity", "NaN", "+inf"]
SCORE_VALUES = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
# Tokens ``float`` reads or refuses other than its ``repr`` output does.
ODD_SCORES = ["1_0", "+2", ".5", "5.", "1E5", "inf", "nan", "0x10", "1__0"]


def fixed_size(strategy, n):
    return st.lists(strategy, min_size=n, max_size=n)


def render(data, rows):
    """Lines with random field separators and padding, and random blank
    or whitespace-only lines interleaved; in about half the files, every
    line single-spaced instead."""
    if data.draw(st.booleans()):
        return [" ".join(row) for row in rows]
    lines = []
    for (e, t, v), (blanks, lead, gap1, gap2, trail) in zip(
        rows, data.draw(fixed_size(LINE_STYLES, len(rows)))
    ):
        lines += blanks
        lines.append(lead + e + gap1 + t + gap2 + v + trail)
    return lines


def trial_files(data):
    """Line lists of a valid trial file and score file: distinct pairs,
    score lines shuffled and padded with scores no trial uses."""
    pairs = data.draw(st.lists(st.tuples(IDS, IDS), unique=True, max_size=15))
    used = data.draw(fixed_size(st.booleans(), len(pairs)))
    labels = data.draw(fixed_size(st.sampled_from("01"), len(pairs)))
    values = data.draw(fixed_size(st.floats(-1e6, 1e6, allow_nan=False), len(pairs)))
    fmt = data.draw(SCORE_FORMATS)
    score_rows = data.draw(st.permutations([(e, t, fmt(v)) for (e, t), v in zip(pairs, values)]))
    trial_rows = [(label, e, t) for (e, t), label, u in zip(pairs, labels, used) if u]
    return render(data, trial_rows), render(data, score_rows)


def write_lines(data, directory, name, lines):
    path = os.path.join(directory, name)
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + end for line in lines))
    return path


# The default block and 16-byte blocks, whose boundaries fall inside lines
# and between rows, blank lines and bad lines alike.
READS = pytest.mark.parametrize(
    "block_bytes",
    [
        pytest.param(verif_metrics._BLOCK_BYTES, id="block"),
        pytest.param(16, id="block16"),
    ],
)


class TestParseTrialsProperties:
    @READS
    def test_matches_reference_join(self, block_bytes):
        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            trial_lines, score_lines = trial_files(data)
            with tempfile.TemporaryDirectory() as directory:
                t = write_lines(data, directory, "t.txt", trial_lines)
                s = write_lines(data, directory, "s.txt", score_lines)
                with parsing(block_bytes):
                    trials = parse_trials(t, s)
                scores, is_target = reference_join(t, s)
            assert trials.scores.tolist() == scores
            assert trials.is_target.tolist() == is_target

        check()

    @READS
    def test_wrong_field_count_names_its_line(self, block_bytes):
        """One to three bad lines of any kind at random lines of either file:
        the first bad line, score file first, is named as the line-by-line
        oracle names it.  Lines of 2 and 4 fields may sit next to each other,
        so the token total can stay a multiple of 3."""

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            trial_lines, score_lines = trial_files(data)
            for k in range(data.draw(st.integers(1, 3))):
                kind = data.draw(st.sampled_from(BAD_LINE_KINDS))
                in_trials = kind in ("label", "duplicate trial", "missing pair") or (
                    kind == "field count" and data.draw(st.booleans())
                )
                lines = trial_lines if in_trials else score_lines
                rows = [line for line in lines if line.strip()]
                # "q" is not in IDS, so no score has the fresh pair.  A bad
                # value on a used pair also repeats it, on the same line.
                pair = f"q{k} q{k}"
                if rows and data.draw(st.booleans()):
                    fields = data.draw(st.sampled_from(rows)).split()
                    pair = " ".join(fields[1:3] if in_trials else fields[:2])
                if kind == "field count":
                    wrong = st.lists(IDS, min_size=2, max_size=4).filter(lambda f: len(f) != 3)
                    line = " ".join(data.draw(wrong))
                elif kind == "label":
                    line = f"{data.draw(IDS.filter(lambda s: s not in ('0', '1')))} {pair}"
                elif kind in ("bad score", "non-finite score"):
                    values = BAD_SCORES if kind == "bad score" else NON_FINITE_SCORES
                    line = f"{pair} {data.draw(st.sampled_from(values))}"
                elif kind == "missing pair":
                    line = f"{data.draw(st.sampled_from('01'))} q{k} q{k}"
                elif rows:
                    line = data.draw(st.sampled_from(rows))
                else:
                    continue
                lines.insert(data.draw(st.integers(0, len(lines))), line)
            with tempfile.TemporaryDirectory() as directory:
                t = write_lines(data, directory, "t.txt", trial_lines)
                s = write_lines(data, directory, "s.txt", score_lines)
                try:
                    expected = reference_join(t, s)
                except ValueError as exc:
                    message = f"^{re.escape(str(exc))}"
                    with parsing(block_bytes), pytest.raises(
                        ValueError, match=message
                    ):
                        parse_trials(t, s)
                else:
                    with parsing(block_bytes):
                        trials = parse_trials(t, s)
                    assert (trials.scores.tolist(), trials.is_target.tolist()) == expected

        check()


# Lines the scan must split as ``str.split`` does: each other separator
# than one space (tab, the other ASCII whitespace, two spaces), a leading or
# trailing space, a blank line, a CR or CRLF line end, and an id holding a
# NUL byte, which separates nothing.  The last three are two fields around
# an empty field.
LINE_KINDS = [
    "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "  ",
    "leading", "trailing", "blank", "\r", "\r\n", "\x00",
    "{0}  {1}", " {0} {1}", "{0} {1} ",
]


def kind_line(kind, fields):
    """A line of ``kind`` built from three fields, with its line end."""
    if "{0}" in kind:
        return kind.format(*fields) + "\n"
    line = " ".join(fields)
    if kind in ("\r", "\r\n"):
        return line + kind
    if kind == "\x00":  # in the second field, an id
        second = fields[1][:1] + kind + fields[1][1:]
        return f"{fields[0]} {second} {fields[2]}\n"
    special = {"leading": " " + line, "trailing": line + " ", "blank": ""}
    return special.get(kind, line.replace(" ", kind, 1)) + "\n"


def single_spaced(path, out):
    """Write ``path`` to ``out`` with LF line ends and each line of three
    fields (``str.split``) joined by single spaces; a line of any other
    field count is kept, so an error quotes it as it was."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    with open(out, "w", encoding="utf-8") as fh:
        for line in lines:
            fields = line.split()
            fh.write((" ".join(fields) if len(fields) == 3 else line) + "\n")


def assert_same_columns(got, want):
    for name in ("hashes", "lengths", "slots", "lines", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # Raw bytes: ``S`` comparison ignores trailing NULs.
    assert {k: v.tobytes() for k, v in got.keys.items()} == {
        k: v.tobytes() for k, v in want.keys.items()
    }
    assert got.error == want.error


class TestSeparators:
    def test_mixed_lines_give_the_single_spaced_columns(self):
        """Files that mix single-spaced lines with lines of every other
        kind, read in blocks of several sizes, give the key columns of the
        same file with each line split by ``str.split`` and written out
        single-spaced: the same keys, values, line numbers and first error.
        In about half the files some scores are tokens such as ``1_0`` or
        ``0x10``: ``float`` alone decides what is a score."""

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            layout = data.draw(st.sampled_from([verif_metrics._SCORES, verif_metrics._TRIALS]))
            values = SCORE_VALUES
            if data.draw(st.booleans(), label="odd scores"):
                values |= st.sampled_from(ODD_SCORES)
            rows = data.draw(st.lists(st.tuples(IDS, IDS, values), min_size=1, max_size=12))
            lines = []
            for enroll, test, value in rows:
                if layout is verif_metrics._SCORES:
                    fields = (enroll, test, value)
                else:
                    fields = (data.draw(st.sampled_from("01")), enroll, test)
                kind = data.draw(st.none() | st.sampled_from(LINE_KINDS))
                lines.append(" ".join(fields) + "\n" if kind is None else kind_line(kind, fields))
            text = "".join(lines)
            if data.draw(st.booleans()):  # no final newline
                text = text[:-1]
            block_bytes = data.draw(st.sampled_from([1, 8, 16, 40, verif_metrics._BLOCK_BYTES]))
            with tempfile.TemporaryDirectory() as directory:
                path, plain = os.path.join(directory, "f.txt"), os.path.join(directory, "p.txt")
                with open(path, "wb") as fh:
                    fh.write(text.encode())
                single_spaced(path, plain)
                with parsing(block_bytes):
                    got = verif_metrics._key_columns(path, layout)
                with parsing(verif_metrics._BLOCK_BYTES):
                    want = verif_metrics._key_columns(plain, layout)
            assert_same_columns(got, want)

        check()

    @pytest.mark.parametrize(
        "code",
        [c for c in range(0x80, sys.maxunicode + 1) if chr(c).isspace()],
        ids="U+{:04X}".format,
    )
    def test_non_ascii_whitespace_is_refused_on_its_line(self, tmp_path, code):
        """Every character of 0x80 or more that ``str.split`` splits on is
        refused, as a separator or in an id, in either file: the scan does
        not split on it, and taking it into an id would be silent coercion.
        A byte that is not UTF-8 on an earlier line is named first, and
        after a later one."""
        space = chr(code).encode()
        message = re.escape(f"cannot split on non-ASCII whitespace U+{code:04X}") + "$"
        cases = [
            (b"1 a x\n", b"a x 0.1\n\r\nb" + space + b"y 0.2\n", r"s\.txt:3: " + message),
            (b"1 a x\r\n0 b y" + space + b"\r\n", SCORES_ABCD.encode(), r"t\.txt:2: " + message),
            (
                b"1 a x\n",
                b"a x 0.1\nb y\xff 0.2\nc" + space + b"z 0.3\n",
                r"s\.txt:2: cannot decode byte 0xff as UTF-8$",
            ),
            (b"1 a x\n", b"a x 0.1\nb" + space + b"y 0.2\nc z\xff 0.3\n", r"s\.txt:2: " + message),
        ]
        t, s = tmp_path / "t.txt", tmp_path / "s.txt"
        for trials, scores, expected in cases:
            t.write_bytes(trials)
            s.write_bytes(scores)
            with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}/" + expected):
                parse_trials(str(t), str(s))


# Each file as written, and with every space a tab and a space, so that each
# key is gathered from its two fields.
SPACINGS = pytest.mark.parametrize("gap", [" ", "\t "], ids=["spaced", "tabbed"])
# Keys of 7, 8, 9, 15, 16 and 17 bytes, and keys ending in NUL bytes whose
# words equal those of the key without them.
PADDED_KEYS = [
    "abc def", "abc defg", "abcd efgh", "abcdefg hijklmn", "abcdefgh ijklmno",
    "abcdefgh ijklmnop", "abc de", "abc de\x00", "abc de\x00\x00", "abcdefgh ijklmn\x00",
]


def write_pair(tmp_path, trials, scores):
    t, s = tmp_path / "t.txt", tmp_path / "s.txt"
    t.write_text(trials, encoding="utf-8")
    s.write_text(scores, encoding="utf-8")
    return str(t), str(s)


class TestParseTrialsKeys:
    """Every hash match is confirmed on the key bytes, and keys that share
    a hash are joined exactly, whatever separates their fields."""

    @SPACINGS
    @pytest.mark.parametrize(
        "key_hash",
        [
            lambda words, length: np.zeros(len(words), np.int64),
            lambda words, length: np.full(len(words), length, np.int64),
        ],
        ids=["one-hash-for-all", "hash-is-length"],
    )
    @pytest.mark.parametrize(
        "trials, scores",
        [
            pytest.param("1 a x\n0 bb yy\n1 c z\n", "bb yy 0.2\na x 0.1\nc z 0.3\n", id="valid"),
            # Only the trial key (q, z) shares the hash of a score key.
            pytest.param("1 a x\n0 q z\n", "a x 0.1\nbb yy 0.2\n", id="missing-pair"),
            pytest.param("1 a x\n", "a x 0.1\nb y 0.2\na x 0.3\nc z x\n", id="duplicate-score"),
            pytest.param("1 a x\n0 b y\n1 a x\n", SCORES_ABCD, id="duplicate-trial"),
            pytest.param("1 a x\n1 q q\n2 b y\n", SCORES_ABCD, id="missing-before-bad-label"),
        ],
    )
    def test_shared_hashes_join_as_the_oracle(
        self, tmp_path, monkeypatch, trials, scores, key_hash, gap
    ):
        monkeypatch.setattr(verif_metrics, "_key_hash", key_hash)
        t, s = write_pair(tmp_path, trials.replace(" ", gap), scores.replace(" ", gap))
        with parsing(12):
            assert_matches_reference(t, s)

    @SPACINGS
    @pytest.mark.parametrize(
        "key_hash",
        [verif_metrics._key_hash, lambda words, length: np.zeros(len(words), np.int64)],
        ids=["hashed", "one-hash-for-all"],
    )
    @pytest.mark.parametrize(
        "extra_trial",
        [
            pytest.param("", id="valid"),
            # No score key has this key's length.
            pytest.param("1 a b\x00\x00\x00\x00\x00\n", id="missing-nul-pair"),
        ],
    )
    def test_unusual_ids_join_as_the_oracle(
        self, tmp_path, monkeypatch, key_hash, extra_trial, gap
    ):
        """Ids ending in NUL bytes, non-ASCII ids whose byte length is not
        their length in characters, and one 10,000-character id among short
        ones.  ``a b``, ``a b\\0`` and ``a\\0 b`` are three keys."""
        monkeypatch.setattr(verif_metrics, "_key_hash", key_hash)
        long_id = "L" * 10_000
        pairs = [
            ("a", "b"), ("a", "b\x00"), ("a\x00", "b"), ("é", "ü"), ("ü", "é"),
            ("a", long_id), (long_id, "b"), ("x", "y"),
        ]
        scores = "".join(f"{e} {t} {k / 8}\n" for k, (e, t) in enumerate(reversed(pairs)))
        trials = "".join(f"{k % 2} {e} {t}\n" for k, (e, t) in enumerate(pairs)) + extra_trial
        t, s = write_pair(tmp_path, trials.replace(" ", gap), scores.replace(" ", gap))
        with parsing(12):
            assert_matches_reference(t, s)

    @SPACINGS
    @pytest.mark.parametrize("block_bytes", [12, verif_metrics._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "trials, scores",
        [
            pytest.param(
                "".join(f"{k % 2} {key}\n" for k, key in enumerate(PADDED_KEYS)),
                "".join(f"{key} {k / 8}\n" for k, key in enumerate(reversed(PADDED_KEYS))),
                id="valid",
            ),
            pytest.param(
                "1 abc def\n",
                "abc def 0.1\nabcd efgh 0.125\nabcd efgh 0.25\n",
                id="repeated-score-key-before-other-bytes",
            ),
            pytest.param("1 abc def\n", "abc defg 0.5\n", id="trial-key-is-a-score-keys-start"),
            pytest.param("1 abc de\n", "abc de\x00 0.5\n", id="trial-key-lacks-the-nul"),
            pytest.param(
                "1 abcdefgh ijklmnop\n",
                "abcdefgh ijklmnop0 0.5\nabcdefgh ijklmnop 0.25\n",
                id="score-key-at-a-longer-keys-start",
            ),
        ],
    )
    def test_keys_either_side_of_a_word_join_as_the_oracle(
        self, tmp_path, trials, scores, block_bytes, gap
    ):
        """Keys of 7 to 17 bytes, padded to 8-byte words: the padding is
        zero and the length is part of the key, whatever bytes follow a key
        in its line."""
        t, s = write_pair(tmp_path, trials.replace(" ", gap), scores.replace(" ", gap))
        with parsing(block_bytes):
            assert_matches_reference(t, s)

    def test_score_on_two_cpus_reads_in_this_process(self, tmp_path, monkeypatch, capsys):
        """A trial file of over 1 MiB on two CPUs is read without a fork."""
        fake_cpus(monkeypatch, 2, 0)
        n = 1 << 16
        t, s = write_pair(
            tmp_path,
            "".join(f"{k % 2} enroll{k:06d} test{k:06d}\n" for k in range(n)),
            "".join(f"enroll{k:06d} test{k:06d} {k % 2}.0\n" for k in range(n)),
        )
        assert os.path.getsize(t) > 1 << 20
        code = main(["score", "--trials", t, "--scores", s])
        assert (code, capsys.readouterr().out) == (0, "EER% 0.0000\nminDCF 0.0000\n")
