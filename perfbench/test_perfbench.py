"""Tests of the benchmark itself: oracles, generator, expectations and
the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE.parent / "golden"


# ---------------------------------------------------------------------------
# oracles against brute force, on groups built here as permutations


def _symmetric_group(n):
    """W(A_{n-1}) as permutations of n points."""
    return [tuple(p) for p in itertools.permutations(range(n))]


def _hyperoctahedral_group(n):
    """W(B_n) = W(C_n) as permutations of the 2n points +-1..+-n,
    encoded 0..2n-1 with i and i+n opposite."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((0, 1), repeat=n):
            img = [0] * (2 * n)
            for i in range(n):
                img[i] = perm[i] + n * signs[i]
                img[i + n] = perm[i] + n * (1 - signs[i])
            out.append(tuple(img))
    return out


def _compose(p, q):
    return tuple(p[i] for i in q)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _involution_counts(group):
    ident = tuple(range(len(group[0])))
    invs = [w for w in group if _compose(w, w) == ident]
    classes = {frozenset(_compose(_compose(g, w), _inverse(g)) for g in group)
               for w in invs}
    return len(invs), len(classes)


@pytest.mark.parametrize("letter,n,group", [
    ("A", 1, _symmetric_group(2)),
    ("A", 2, _symmetric_group(3)),
    ("A", 3, _symmetric_group(4)),
    ("B", 2, _hyperoctahedral_group(2)),
])
def test_oracle_formulas_match_brute_force(letter, n, group):
    assert oracle.weyl_order(letter, n) == len(set(group))
    squares, classes = _involution_counts(group)
    assert oracle.square_roots_of_one(letter, n) == squares
    assert oracle.involution_classes(letter, n) == classes


def _roots(letter, n):
    """Roots of A_n in R^{n+1} and of B_n, C_n, BC_n, D_n in R^n."""
    def e(i, dim):
        return tuple(int(j == i) for j in range(dim))

    def add(*vs):
        return tuple(map(sum, zip(*vs)))

    def scale(c, v):
        return tuple(c * x for x in v)

    if letter == "A":
        return {add(e(i, n + 1), scale(-1, e(j, n + 1)))
                for i in range(n + 1) for j in range(n + 1) if i != j}
    long_short = {add(scale(s, e(i, n)), scale(t, e(j, n)))
                  for i in range(n) for j in range(i + 1, n)
                  for s in (1, -1) for t in (1, -1)}
    if letter == "D":
        return long_short
    short = {scale(s, e(i, n)) for i in range(n) for s in (1, -1)}
    double = {scale(2 * s, e(i, n)) for i in range(n) for s in (1, -1)}
    return long_short | {"B": short, "C": double, "BC": short | double}[letter]


@pytest.mark.parametrize("letter,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                      ("B", 3), ("C", 3), ("BC", 1), ("BC", 3),
                                      ("D", 4), ("D", 5)])
def test_root_counts_match_construction(letter, n):
    assert oracle.root_count(letter, n) == len(_roots(letter, n))


def test_fold_cases_extend_the_library_table():
    from rootfold import selftest
    table = [(name, spec, build(), label, count, reduced, check)
             for name, spec, build, label, count, reduced, check
             in selftest.FOLD_TABLE]
    assert list(inputs.FOLD_CASES[:len(table)]) == table
    assert inputs.FOLD_CASES[-1][:2] == ("A6 flip", "A6:sc")


# ---------------------------------------------------------------------------
# generator


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _requests(units):
    return [(r.argv, r.kind, r.code, r.lines, r.counts) for u in units for r in u]


def test_generator_is_deterministic(tmp_path):
    from rootfold import rootdatum
    runs = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        d.mkdir()
        units = inputs.cli_inputs(rootdatum, seed, d, GOLDEN)
        runs.append((_files(d), _requests(units)))
    assert runs[0] == runs[1]
    assert runs[0][1] == runs[2][1]
    assert runs[0][0] != runs[2][0]
    for name in ("fold", "h1", "cli"):
        w = [workloads.WORKLOADS[name](seed, tmp_path / str(i))
             for i, seed in enumerate((7, 7, 8))]
        orders = [[w_.next_order() for _ in range(3)] for w_ in w]
        assert orders[0] == orders[1] != orders[2]


def test_change_of_basis_round_trips():
    import random
    rng = random.Random(3)
    for n in range(1, 6):
        g, ginv = inputs.random_unimodular(rng, n)
        assert inputs._mat_mul(g, ginv) == [list(r) for r in inputs.identity(n)]


# ---------------------------------------------------------------------------
# expectations: every document gets the expected outcome, except the
# five known defects


def _failing_kinds(workload, units):
    failing = set()
    for unit in units:
        for req in unit:
            op = workloads.CliOp(workload, req)
            if op.check(op.call_in_process()) is not None:
                failing.add(req.kind)
    return failing


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_documents_get_expected_exit_codes(tmp_path, seed):
    w = workloads.CliWorkload(seed, tmp_path)
    units = w.units
    if seed:
        # every document once, through verify; the full mix runs at seed 0
        units = [u for u in units if u[0].argv[0] in ("verify", "isoclass")]
    assert _failing_kinds(w, units) == set(inputs.KNOWN_DEFECTS)


# ---------------------------------------------------------------------------
# tracer


def _namespaces():
    import rootfold.cli  # noqa: F401
    from rootfold.rootdatum import DatumAutomorphism
    mods = {m: dict(vars(sys.modules[m])) for m in sorted(sys.modules)
            if m == "rootfold" or m.startswith("rootfold.")}
    mods["DatumAutomorphism"] = dict(DatumAutomorphism.__dict__)
    return mods


def test_uninstall_restores_every_patched_name():
    from rootfold import folding, rootdatum, selftest
    before = _namespaces()
    original = folding.weyl_group
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert folding.weyl_group is not original
        assert folding.weyl_group is rootdatum.weyl_group
        assert selftest.det is not before["rootfold.selftest"]["det"]
        assert tracer._patches
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, space in before.items():
        for key, value in space.items():
            assert after[name][key] is value, f"{name}.{key}"


def test_self_times_add_up_to_operation_time():
    tracer = tracing.Tracer()
    op = workloads.FoldOp(inputs.FOLD_CASES[2])
    tracer.install()
    try:
        result = tracer.operation(0, op.call)
    finally:
        tracer.uninstall()
    assert op.check(result) is None
    total_self, op_total = tracer.self_time_balance()
    assert total_self == pytest.approx(op_total, rel=1e-9)
    layer = tracer.per_layer(1)
    assert layer["folding.weyl_descent_iso.calls"][0] == 1
    assert layer["folding.weyl_descent_iso.table_checks"][0] == 64
    assert layer["lattice.mat_mul.calls"][0] > 0
    names = tracer.names
    spans = tracer.spans
    # every span but the operation has a parent that encloses it
    for name, start, end, parent, op_id in spans:
        assert op_id == 0
        if names[name] != "op":
            p = spans[parent]
            assert p[1] <= start <= end <= p[2]


def test_traced_replay_keeps_stdout(tmp_path):
    w = workloads.CliWorkload(0, tmp_path)
    ops = [workloads.CliOp(w, r) for u in w.units for r in u
           if "A2-flip.datum" in u[0].argv]
    plain = [op.call_in_process() for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [op.call_in_process() for op in ops]
    finally:
        tracer.uninstall()
    assert plain == traced
    documents = sum(2 if op.request.argv[0] == "isoclass" else 1 for op in ops)
    assert tracer.stats["cli.parse_datum"].calls == documents
    tracer.dump(tmp_path / "spans.json")
    assert (tmp_path / "spans.json").stat().st_size > 0


# ---------------------------------------------------------------------------
# the command against BENCHMARK.json


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    names = set(tracing.Tracer().per_layer(1))
    names |= {"cli.import_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in _benchmark()["per_layer"]}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_run_prints_every_end_to_end_metric():
    out = _run(HERE.parent, "--workload", "fold", "--seed", "0",
               "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(inputs.FOLD_CASES)
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "fold", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
