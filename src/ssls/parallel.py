"""Where independent jobs run: cross-fitting folds and Monte-Carlo replicates.

One rule says where work runs: numpy-bound work, such as the k-means Lloyd
passes (clustering.fit_kmeans), runs on threads, since numpy releases the
GIL; Python-bound work, such as the folds and replicates, whose tree growing
holds it, runs on forked processes through fork_join.

Each job draws from its own seeded stream, so its result does not depend on
the process that runs it. `workers` counts the processes that run jobs, the
calling one included; one running jobs of a join with children counts one
CPU, so joins never nest.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional

from .errors import DomainError

_job = None  # the job of the innermost join in this process; children inherit it
_sharing = False  # this process is running its share of a join with children


def usable_cpus() -> int:
    """CPUs this process may run on; where the OS cannot say (macOS, Windows),
    the machine's count. A forked child of fork_join, and the calling process
    while it runs its own share of a join with children, have one CPU."""
    if _sharing or multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_workers(workers: Optional[int]) -> None:
    """DomainError unless workers, when given, is at least 1."""
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")


def _recorded(k: int) -> tuple:
    """_job(k) as (result, warnings, error): every warning it raised as
    (category, message, filename, lineno, module), module being the dotted
    name that warnings.warn gave the filters, and the exception that stopped
    it or None. All three pickle."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = _job(k), None
        except Exception as err:
            result, error = None, err
    modules = caught and {getattr(module, "__file__", None): name
                          for name, module in list(sys.modules.items())}
    return result, [(w.category, str(w.message), w.filename, w.lineno,
                     modules.get(w.filename)) for w in caught], error


def fork_join(job: Callable[[int], object], n_jobs: int,
              workers: Optional[int] = None) -> list:
    """[job(k) for k in range(n_jobs)], whatever `workers` is: each job's
    warnings are re-raised here in job order, and the first job to fail, in
    job order, raises its error after the warnings of the jobs before it.

    workers defaults to usable_cpus(); DomainError unless it is at least 1.
    On Linux, min(workers, n_jobs) - 1 forked children take the first jobs
    in order and this process runs the last max(1, n_jobs // (children + 1))
    itself. Children inherit job, so only k and the outcomes are pickled.
    The pool is shut down before this returns or raises.
    """
    global _job, _sharing
    check_workers(workers)
    workers = usable_cpus() if workers is None else workers
    children = min(workers, n_jobs) - 1 if sys.platform == "linux" else 0
    forked = n_jobs - max(1, n_jobs // (children + 1)) if children > 0 else 0
    pool = (ProcessPoolExecutor(children, mp_context=multiprocessing.get_context("fork"))
            if forked else None)
    outer = _job, _sharing
    try:
        _job = job  # before the first submit, which forks the children
        futures = [pool.submit(_recorded, k) for k in range(forked)]
        _sharing = _sharing or pool is not None
        here = [_recorded(k) for k in range(forked, n_jobs)]
        outcomes = [future.result() for future in futures] + here
    finally:
        _job, _sharing = outer
        if pool:
            pool.shutdown(cancel_futures=True)
    # the registry warnings.warn would use here, so that the default filter
    # still shows a repeated warning once
    registry = globals().setdefault("__warningregistry__", {})
    for _, caught, error in outcomes:
        for category, message, filename, lineno, module in caught:
            warnings.warn_explicit(message, category, filename, lineno, module, registry)
        if error is not None:
            raise error
    return [result for result, _, _ in outcomes]
