"""Seeded generator of a VoxCeleb1-E sized trial list and score file.

The generated files have the shapes of the real ones without downloading
anything:

* 579,818 trials (the size of the VoxCeleb1-E list), alternating target
  and non-target, so the split is 50/50;
* utterance ids shaped like ``id10001/Xg4Tq1_bB0M/00003.wav`` over 1251
  speakers (the VoxCeleb1 speaker count);
* a score file in a different order from the trial file;
* scores with 4 decimals, so many trials tie on score.

The generator keeps the scores and labels as arrays, and
:func:`reference_metrics` computes EER and minDCF from those arrays with
its own code, so the benchmark can check what ``chebymargin score``
prints without going through ``parse_trials``.
"""

from __future__ import annotations

import numpy as np

VOX1E_TRIALS = 579_818
VOX1_SPEAKERS = 1251
VOX1_UTTERANCES = 145_265
TRIALS_PER_ENROLL = 4  # target, non-target, target, non-target
_VIDEO_ID_CHARS = np.array(list("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"))


def _utterance_ids(rng: np.random.Generator, n_utts: int, n_speakers: int):
    """Utterance id strings and the speaker index of each utterance.

    Utterances are split into contiguous, nearly equal speaker blocks;
    every 8 utterances of a speaker share one 11-character video id.
    """
    speaker = np.arange(n_utts) * n_speakers // n_utts
    block_start = np.searchsorted(speaker, np.arange(n_speakers))
    within = np.arange(n_utts) - block_start[speaker]
    video = within // 8
    n_videos = int(video.max()) + 1
    video_ids = ["".join(row) for row in rng.choice(_VIDEO_ID_CHARS, (n_speakers, n_videos, 11)).reshape(-1, 11)]
    ids = [
        f"id1{s + 1:04d}/{video_ids[s * n_videos + v]}/{u % 8 + 1:05d}.wav"
        for s, v, u in zip(speaker.tolist(), video.tolist(), within.tolist())
    ]
    return ids, speaker, block_start


def generate(seed: int, n_trials: int = VOX1E_TRIALS, n_speakers: int = VOX1_SPEAKERS,
             n_utts: int = VOX1_UTTERANCES):
    """Trial pairs, labels and 4-decimal scores for one seed.

    Returns ``(ids, enroll, test, is_target, score_ticks)`` where
    ``enroll``/``test`` index ``ids`` and the score of trial ``i`` is
    ``score_ticks[i] / 10000``.  Every (enroll, test) pair is distinct:
    the four trials of one enroll utterance use four different test
    utterances, two from its own speaker and two from other speakers.
    """
    if n_utts < 3 * n_speakers:
        raise ValueError("every speaker needs at least three utterances")
    rng = np.random.default_rng([seed, 0xE1])
    ids, speaker, block_start = _utterance_ids(rng, n_utts, n_speakers)
    block_len = np.diff(np.append(block_start, n_utts))

    n_enroll = -(-n_trials // TRIALS_PER_ENROLL)
    enroll_utt = rng.choice(n_utts, n_enroll, replace=False)
    spk = speaker[enroll_utt]
    start, length = block_start[spk], block_len[spk]
    offset = enroll_utt - start
    # Two distinct same-speaker test utterances, neither the enroll one.
    step1 = 1 + (rng.random(n_enroll) * (length - 2)).astype(np.int64)
    step2 = step1 + 1 + (rng.random(n_enroll) * (length - 1 - step1)).astype(np.int64)
    target1 = start + (offset + step1) % length
    target2 = start + (offset + step2) % length
    # Two distinct other-speaker test utterances: a random utterance of a
    # speaker chosen among the n_speakers - 1 others, then the next
    # speaker's utterance at the same relative position.
    other = (spk + 1 + rng.integers(0, n_speakers - 1, n_enroll)) % n_speakers
    other2 = (other + 1) % n_speakers
    other2 = np.where(other2 == spk, (other2 + 1) % n_speakers, other2)
    pos = rng.random(n_enroll)
    nontarget1 = block_start[other] + (pos * block_len[other]).astype(np.int64)
    nontarget2 = block_start[other2] + (pos * block_len[other2]).astype(np.int64)

    enroll = np.repeat(enroll_utt, TRIALS_PER_ENROLL)[:n_trials]
    test = np.column_stack([target1, nontarget1, target2, nontarget2]).ravel()[:n_trials]
    is_target = np.tile([True, False], n_enroll * 2)[:n_trials]

    keys = enroll.astype(np.int64) * n_utts + test
    if np.unique(keys).size != n_trials or np.any(enroll == test):
        raise AssertionError("generated trial pairs are not distinct")
    if np.any((speaker[enroll] == speaker[test]) != is_target):
        raise AssertionError("generated trial labels disagree with speakers")

    # Cosine-like scores: targets around 0.6, non-targets around 0.1.
    raw = np.where(is_target, 0.6, 0.1) + 0.12 * rng.standard_normal(n_trials)
    score_ticks = np.rint(np.clip(raw, -1.0, 1.0) * 10000).astype(np.int64)
    return ids, enroll, test, is_target, score_ticks


def write_files(seed: int, trials_path: str, scores_path: str, **sizes):
    """Write the trial and score files; return ``(scores, is_target)``.

    The score file lists the trials in a seeded random order.
    """
    ids, enroll, test, is_target, ticks = generate(seed, **sizes)
    e_ids = [ids[i] for i in enroll.tolist()]
    t_ids = [ids[i] for i in test.tolist()]
    labels = ["1" if t else "0" for t in is_target.tolist()]
    with open(trials_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab} {e} {t}\n" for lab, e, t in zip(labels, e_ids, t_ids)))
    order = np.random.default_rng([seed, 0x5C]).permutation(len(e_ids)).tolist()
    values = [f"{t / 10000:.4f}" for t in ticks.tolist()]
    with open(scores_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{e_ids[i]} {t_ids[i]} {values[i]}\n" for i in order))
    # k / 10000 is the double nearest to the printed decimal, which is
    # what parsing the score file yields.
    return ticks / 10000.0, is_target


def reference_metrics(scores: np.ndarray, is_target: np.ndarray, p_target: float = 0.01):
    """EER and normalized minDCF of ``accept iff score >= t``.

    Operating points sit between consecutive distinct scores, plus one
    below the lowest score and one above the highest.  EER is linearly
    interpolated where ``FAR - FRR`` first becomes non-positive.  Counts
    come from per-value histograms, not from the sorted-search code that
    ``chebymargin.verif_metrics`` uses.
    """
    values, inverse = np.unique(scores, return_inverse=True)
    n_tar = np.bincount(inverse, weights=is_target, minlength=values.size)
    n_non = np.bincount(inverse, weights=~is_target, minlength=values.size)
    # Index j: threshold just above the j-th lowest distinct value (j = 0
    # is below them all), so trials at or below it are rejected.
    frr = np.concatenate([[0.0], np.cumsum(n_tar)]) / n_tar.sum()
    far = 1.0 - np.concatenate([[0.0], np.cumsum(n_non)]) / n_non.sum()
    diff = far - frr
    idx = int(np.argmax(diff <= 0))
    if idx == 0 or diff[idx] == 0.0:
        eer = frr[idx]
    else:
        alpha = diff[idx - 1] / (diff[idx - 1] - diff[idx])
        eer = frr[idx - 1] + alpha * (frr[idx] - frr[idx - 1])
    costs = p_target * frr + (1.0 - p_target) * far
    min_dcf = np.min(costs) / min(p_target, 1.0 - p_target)
    return float(eer), float(min_dcf)
