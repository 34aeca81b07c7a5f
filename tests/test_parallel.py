"""fork_join: job order for results, warnings and errors at any worker count,
where jobs run, and the one-CPU rule for nested joins."""

import multiprocessing
import os
import subprocess
import sys
import warnings

import pytest

from ssls import parallel
from ssls.errors import DomainError, TooFewSamples
from ssls.parallel import fork_join, usable_cpus

forking = pytest.mark.skipif(not sys.platform.startswith("linux"),
                             reason="jobs run in forked processes on Linux only")


def _warn_then_fail(failing):
    def job(k):
        warnings.warn(f"job {k}", UserWarning)
        if k in failing:
            raise TooFewSamples(f"job {k} failed")
        return k * k
    return job


@pytest.fixture(params=[1, 2, 4])
def cpus(request, monkeypatch):
    """The CPU count that workers=None resolves to."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("n_jobs", [1, 2, 5])
def test_results_and_warnings_come_back_in_job_order(cpus, n_jobs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = fork_join(_warn_then_fail(()), n_jobs)
    assert results == [k * k for k in range(n_jobs)]
    assert [str(w.message) for w in caught] == [f"job {k}" for k in range(n_jobs)]
    assert multiprocessing.active_children() == []


# With 4 jobs on 2 CPUs one child runs jobs 0 and 1 and the caller 2 and 3;
# on 4 CPUs three children run jobs 0 to 2 and the caller job 3.
@pytest.mark.parametrize("failing", [{1, 3}, {2, 3}, {3}, {0, 1, 2, 3}])
def test_the_first_error_in_job_order_is_raised_after_earlier_warnings(cpus, failing):
    first = min(failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TooFewSamples, match=f"job {first} failed"):
            fork_join(_warn_then_fail(failing), 4)
    assert [str(w.message) for w in caught] == [f"job {k}" for k in range(first + 1)]
    assert multiprocessing.active_children() == []
    assert not parallel._sharing


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(DomainError, match="workers must be >= 1"):
        fork_join(_warn_then_fail(()), 3, workers)


def test_one_worker_runs_every_job_here_with_the_cpus_it_has():
    cpus = usable_cpus()
    assert fork_join(lambda k: (os.getpid(), usable_cpus()), 3, 1) == [(os.getpid(), cpus)] * 3


@forking
@pytest.mark.parametrize("workers, n_jobs, here", [(2, 2, 1), (2, 5, 2), (4, 5, 1),
                                                   (3, 7, 2), (8, 3, 1)])
def test_children_take_the_first_jobs_and_every_job_sees_one_cpu(workers, n_jobs, here):
    cpus = usable_cpus()
    seen = fork_join(lambda k: (os.getpid(), usable_cpus(),
                                fork_join(lambda j: os.getpid(), 2)), n_jobs, workers)
    pids = [pid for pid, _, _ in seen]
    assert pids[n_jobs - here:] == [os.getpid()] * here
    assert os.getpid() not in pids[:n_jobs - here]
    assert len(set(pids[:n_jobs - here])) <= min(workers, n_jobs) - 1
    assert [cpu for _, cpu, _ in seen] == [1] * n_jobs
    # a join inside a job runs in that job's process
    assert all(inner == [pid, pid] for pid, _, inner in seen)
    assert usable_cpus() == cpus
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=forking)])
def test_a_job_warning_keeps_its_module_for_the_filters(workers):
    # A filter on this module's name turns the first job's warning into an
    # error, as it would a warning raised here; a file path would not match.
    with warnings.catch_warnings():
        warnings.filterwarnings("error", module=__name__.replace(".", r"\.") + "$")
        with pytest.raises(UserWarning, match="job 0"):
            fork_join(_warn_then_fail(()), 2, workers)
    assert multiprocessing.active_children() == []


def test_importing_the_cli_loads_no_process_pool():
    # concurrent.futures loads its process module on first use of the pool
    code = "import sys, ssls.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout == "False\n"
