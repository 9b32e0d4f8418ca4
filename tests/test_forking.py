"""Where a fork fails, every caller of ``forking.run_forked`` (the CSV load
and write, the split shares of ``multi_split`` and the replicate shares of
an experiment) gives its serial result and leaves no child."""

import errno
import os

import numpy as np
import pytest

from hdte import data
from hdte.data import TrialDataset, load_csv, write_csv
from hdte.inference import multi_split
from hdte.selection import SelectionSpec
from hdte.simharness import LinearModelConfig, LinearModelGenerator, run_recovery_experiment

from conftest import per_split_route


def _dataset() -> TrialDataset:
    rng = np.random.default_rng(11)
    t = rng.permutation(np.tile([0, 1], 60))
    y = rng.standard_normal((120, 40))
    y[:, :2] += t[:, None]
    return TrialDataset(t, y, rng.standard_normal((120, 3)))


def _load(tmp_path):
    path = tmp_path / "t.csv"
    schema = write_csv(_dataset(), path)
    return lambda: load_csv(path, schema).outcomes.tobytes()


def _write(tmp_path):
    def call():
        write_csv(_dataset(), tmp_path / "w.csv")
        return (tmp_path / "w.csv").read_bytes()
    return call


def _multi_split(tmp_path):
    def call():
        report = multi_split(_dataset(), B=9, method="cuped", sel=SelectionSpec(size=2), seed=3)
        return report.per_dim_aggregated.tobytes(), report.per_split_subsets
    return call


def _experiment(tmp_path):
    gen = LinearModelGenerator(LinearModelConfig(n=80, p=6, m=0, s_tau=2, alpha=0.5, pi=0.5,
                                                 seed=0))
    return lambda: run_recovery_experiment(gen, ("lasso",), (1, 2), replicates=6, seed=4)


@pytest.mark.parametrize("caller", [_load, _write, _multi_split, _experiment],
                         ids=["load_csv", "write_csv", "multi_split", "experiment"])
def test_a_failed_second_fork_gives_the_serial_result(tmp_path, monkeypatch, caller):
    """With 3 CPUs every caller forks more than one child; the second fork
    raises ``OSError``, so ``run_forked`` kills and reaps the first child and
    returns ``None``, and the caller runs serially."""
    call = caller(tmp_path)
    with monkeypatch.context() as patch:
        per_split_route(patch, 1)
        serial = call()
    attempts = []
    with monkeypatch.context() as patch:
        per_split_route(patch, 3)
        patch.setattr(data, "_PART_MIN_BYTES", 16)
        fork = os.fork

        def second_fails():
            attempts.append(None)
            if len(attempts) == 2:
                raise OSError(errno.EAGAIN, "fork failed")
            return fork()

        patch.setattr(os, "fork", second_fails)
        assert call() == serial
    assert len(attempts) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
