"""The benchmark's workloads.

Each workload is a class with this shape:

- ``ops_per_pass`` names the operations one pass attempts; an operation
  is a seed played, an instance solved or a CLI command run.
- ``prepare(seed, passdir)`` is one set-up unit: it makes the inputs of
  one pass from its own seed, writing any files under ``passdir``.  It
  is timed as set-up, not as part of the pass.
- ``run(inputs, tracer)`` is the timed pass.  It calls the program
  through module attributes (``data.ingest``, not a name bound at
  import), so the traced mode's wrappers are seen.
- ``check(inputs, outputs)`` returns ``({operation: [failure, ...]},
  tally)`` from computations made apart from the program; it is not
  timed and runs in a forked child, so it changes no state of the
  workload.  The tally is a small picklable value handed to ``finish``.
- ``extra_counts(inputs)`` returns per-layer counts the benchmark takes
  itself after a traced pass (forum: bytes the commands wrote).
- ``finish(tallies)`` runs, after peak memory is read, the checks that
  span all passes of a run and those deferred to its end; it returns
  failures keyed by ``(seed, operation)``, or by ``None`` for the run as
  a whole.

Every workload takes ``smoke=True`` for a small size that the fast
tests run end to end with every check on.
"""

from __future__ import annotations

from .exact import Exact
from .forum import Forum
from .season import Season
from .skew import Skew

WORKLOADS = {cls.name: cls for cls in (Season, Skew, Exact, Forum)}
