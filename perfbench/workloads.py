"""The three workloads: what one operation is and how its output is
checked.

An operation has two halves.  ``call`` is the timed work and touches
the program only through the public functions of its modules (or a
``python -m rootfold.cli`` child process); ``check`` compares what came
back with the expectations from oracle.py and returns None or the
reason the operation failed.  A workload hands out passes: every
operation of its fixed mix once, in an order drawn from the seed.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from rootfold import action, rootdatum, selftest, twist

import inputs
import oracle

REQUEST_TIMEOUT_S = 120
SRC = Path(rootdatum.__file__).resolve().parent.parent


def child_env():
    """The environment for a child interpreter that imports rootfold
    from the same sources as this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class FoldOp:
    """``selftest.check_fold`` on one case: the full fold plus the
    library's own checks, with |W^Gamma| against its closed form."""

    def __init__(self, case):
        self.case = case
        self.kind = case[0]

    def call(self):
        name, spec, matrix, label, count, reduced, check_pos = self.case
        return selftest.check_fold(name, spec, lambda: matrix, label, count,
                                   reduced, check_pos)

    def check(self, result):
        failures, order = result
        if failures:
            return "; ".join(failures)
        expected = oracle.fixed_weyl_order(self.case[3])
        if order != expected:
            return f"|W^Gamma| = {order}, expected {expected}"
        return None


class FoldWorkload:
    name = "fold"
    in_process = True

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"fold-{seed}")
        self.cases = inputs.FOLD_CASES

    def next_order(self):
        return inputs.pass_order(self.rng, range(len(self.cases)))

    def build(self, order):
        return [FoldOp(self.cases[i]) for i in order]


class H1Op:
    """One H1 case: ``h1_with_image``, ``twist_datum`` on every cocycle,
    then ``equivariant_isomorphic`` inside each image class (must find an
    isomorphism) and between class representatives (must find none)."""

    def __init__(self, case, based, galois, gamma):
        self.kind = case[0]
        self.expected_counts = case[4]
        self.expected_z1 = case[5]
        self.based = based
        self.galois = galois
        self.gamma = gamma

    def call(self):
        based, galois, gamma = self.based, self.galois, self.gamma
        report = twist.h1_with_image(based, galois, gamma_action=gamma)
        star, _ = twist.star_action(galois, based.base)
        twisted = {c.sort_key(): twist.twist_datum(based, star, c,
                                                   gamma_action=gamma)
                   for c in report.module_classes.cocycles}
        extra = [gamma] if gamma is not None else []
        datum = based.datum

        def isomorphic(c1, c2):
            return twist.equivariant_isomorphic(
                datum, [twisted[c1.sort_key()].galois] + extra,
                datum, [twisted[c2.sort_key()].galois] + extra) is not None

        within = [isomorphic(cls[0], c)
                  for cls in report.image_classes.classes for c in cls[1:]]
        reps = report.image_classes.representatives
        across = [isomorphic(reps[i], reps[j])
                  for i in range(len(reps)) for j in range(i + 1, len(reps))]
        return report.counts, len(report.module_classes.cocycles), within, across

    def check(self, result):
        counts, z1, within, across = result
        module, image = self.expected_counts
        if counts[0] != module or (image is not None and counts[1] != image):
            return f"class counts {counts}, expected ({module}, {image})"
        if self.expected_z1 is not None and z1 != self.expected_z1:
            return f"{z1} cocycles, expected {self.expected_z1}"
        if not all(within):
            return "cohomologous twists are not isomorphic"
        if any(across):
            return "twists of distinct classes are isomorphic"
        return None


class H1Workload:
    name = "h1"
    in_process = True

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"h1-{seed}")
        self.cases = inputs.H1_CASES
        self.build(range(len(self.cases)))  # the set-up that setup_s times

    def next_order(self):
        return inputs.pass_order(self.rng, range(len(self.cases)))

    def build(self, order):
        """Fresh program objects for every pass, so nothing one pass
        caches on them carries over to the next."""
        ops = []
        for i in order:
            case = self.cases[i]
            _, spec, galois_matrix, gamma_matrix, _, _ = case
            based = rootdatum.from_cartan_type(spec)
            rank = based.datum.rank
            galois = action.make_action(
                based.datum, [(galois_matrix(rank), 1)],
                group=action.FiniteGroup.cyclic(2))
            gamma = None
            if gamma_matrix is not None:
                gamma = action.make_action(based, [(gamma_matrix, "s")])
            ops.append(H1Op(case, based, galois, gamma))
        return ops


class CliOp:
    """One CLI request.  ``call`` starts ``python -m rootfold.cli`` in
    the work directory; ``call_in_process`` replays it through
    ``rootfold.cli.main`` for the traced run."""

    def __init__(self, workload, request):
        self.workload = workload
        self.request = request
        self.kind = request.kind

    def call(self):
        w = self.workload
        argv = [sys.executable, "-m", "rootfold.cli"] + self.request.argv
        proc = subprocess.Popen(argv, cwd=w.workdir, env=w.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            # wait4 rather than wait: it gives this child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        w.peak_rss_kb = max(w.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode("utf-8", "replace")

    def call_in_process(self):
        from rootfold import cli
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workload.workdir)
        try:
            code = cli.main(list(self.request.argv), out=out)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # an escaped exception is what a child reports as exit 1
            code = 1
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def check(self, result):
        code, stdout = result
        reason = self.request.check(code, stdout)
        if reason is not None:
            return reason
        first = self.workload.first_stdout.setdefault(
            tuple(self.request.argv), stdout)
        if first != stdout:
            return "stdout differs from an earlier run of the same request"
        return None


class CliWorkload:
    name = "cli"
    in_process = False

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"cli-{seed}")
        self.workdir = Path(workdir)
        self.env = child_env()
        self.units = inputs.cli_inputs(rootdatum, seed, self.workdir,
                                       SRC.parent / "golden")
        self.first_stdout = {}
        self.peak_rss_kb = 0

    def next_order(self):
        return inputs.pass_order(self.rng, range(len(self.units)))

    def build(self, order):
        return [CliOp(self, r) for i in order for r in self.units[i]]


WORKLOADS = {w.name: w for w in (FoldWorkload, H1Workload, CliWorkload)}
