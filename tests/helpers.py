"""Small builders shared across test modules."""

from __future__ import annotations

from pubgame import Question, RoundPool, set_utility


def mk_q(i, *, views=10, u_g=1.0, title=None, body="body text", **kw):
    return Question(
        id=f"q{i}",
        domain=kw.pop("domain", "dom"),
        title=title if title is not None else f"title {i}",
        body=body,
        view_count=views,
        u_g=u_g,
        **kw,
    )


def mk_pool(week, specs, *, normalize=True):
    """Build a week pool from (views, u_g) pairs, normalized by default."""
    qs = tuple(
        mk_q(f"{week}-{i}", views=v, u_g=g) for i, (v, g) in enumerate(specs)
    )
    pool = RoundPool(week=week, questions=qs, norm_stat=max(v for v, _ in specs))
    return set_utility(pool) if normalize else pool
