"""Forum-like data, made apart from ``pubgame.data``.

The synthetic corpus of ``pubgame.data`` has 100 distinct tokens and
about 12 tokens per question.  Real forum questions are longer and
their vocabulary is far larger, so this generator draws:

- several domains, each with its own topics;
- long bodies (40 to 160 tokens) from a Zipf vocabulary of ``VOCAB``
  tokens, mixed with a share of topic words;
- heavy-tailed (lognormal) view counts whose latent depends on the
  question's topic, so the curator can learn views from text;
- proposer utility whose latent is negatively correlated with the view
  latent, so the two players' utilities are misaligned;
- timestamps spread over each ISO week.

Rows are written as CSV with the columns ``pubgame.data.ingest`` reads.
"""

from __future__ import annotations

import csv
import string
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

DOMAINS = ("cooking", "physics", "law", "gardening")
VOCAB = 10_000
ZIPF_EXPONENT = 1.07
TOPICS_PER_DOMAIN = 6
TOPIC_WORDS = 40
TOPIC_SHARE = 0.3
BODY_TOKENS = (40, 160)
TITLE_TOKENS = (4, 10)
VIEW_MU = 4.0
VIEW_SIGMA = 1.3
UTILITY_LATENT_CORR = -0.5

_EPOCH = datetime(2023, 1, 2)  # a Monday


def _word(j: int) -> str:
    letters = string.ascii_lowercase
    out = ""
    j += 26 * 27  # at least three letters, so no token is too short
    while j:
        j, r = divmod(j, 26)
        out = letters[r] + out
    return out


WORDS = [_word(j) for j in range(VOCAB)]


def generate_forum(seed: int, weeks: int, per_week: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, VOCAB + 1, dtype=np.float64)
    zipf_p = ranks**-ZIPF_EXPONENT
    zipf_cdf = np.cumsum(zipf_p / zipf_p.sum())
    n_topics = len(DOMAINS) * TOPICS_PER_DOMAIN
    topic_words = rng.integers(0, VOCAB, size=(n_topics, TOPIC_WORDS))
    topic_effect = rng.normal(0.0, 1.0, size=n_topics)

    records = []
    for t in range(weeks):
        n = per_week
        domain = rng.integers(0, len(DOMAINS), size=n)
        topic = domain * TOPICS_PER_DOMAIN + rng.integers(0, TOPICS_PER_DOMAIN, size=n)
        z_view = topic_effect[topic] + rng.standard_normal(n)
        z_view = (z_view - z_view.mean()) / z_view.std()
        z_util = UTILITY_LATENT_CORR * z_view + np.sqrt(1 - UTILITY_LATENT_CORR**2) * rng.standard_normal(n)
        views = np.floor(np.exp(VIEW_MU + VIEW_SIGMA * z_view)).astype(np.int64)
        u_g = np.exp(3.0 + 0.7 * z_util)
        offsets = rng.integers(0, 7 * 86400, size=n)
        for i in range(n):
            n_title = int(rng.integers(*TITLE_TOKENS))
            n_body = int(rng.integers(*BODY_TOKENS))
            total = n_title + n_body
            tokens = np.minimum(np.searchsorted(zipf_cdf, rng.random(total)), VOCAB - 1)
            from_topic = rng.random(total) < TOPIC_SHARE
            tokens[from_topic] = topic_words[topic[i], rng.integers(0, TOPIC_WORDS, size=int(from_topic.sum()))]
            words = [WORDS[j] for j in tokens]
            stamp = _EPOCH + timedelta(weeks=t, seconds=int(offsets[i]))
            records.append(
                {
                    "id": f"f{seed}-{t:03d}-{i:04d}",
                    "timestamp": stamp.isoformat(),
                    "domain": DOMAINS[domain[i]],
                    "title": " ".join(words[:n_title]),
                    "body": " ".join(words[n_title:]),
                    "view_count": int(views[i]),
                    "u_g": float(u_g[i]),
                }
            )
    return records


COLUMNS = ("id", "timestamp", "domain", "title", "body", "view_count", "u_g")


def write_csv(records: list[dict], path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow([repr(rec[c]) if c == "u_g" else rec[c] for c in COLUMNS])
