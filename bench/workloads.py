"""The four workloads: seeded inputs, the operations of one round, and checks.

Every workload builds a fixed-size input set from ``--seed`` and cycles
through it; round ``k`` always issues the same operations on the same
inputs, so a run is a whole number of identical-in-kind rounds.  Each
operation comes with a check that compares its output with values computed
in :mod:`oracles`, never with stored output of an earlier run.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


class WrongOutput(Exception):
    """An operation returned a result that disagrees with the oracle."""


class OpFailed(Exception):
    """The program failed to produce a result (exception or nonzero exit)."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongOutput(msg)


@dataclass
class Op:
    """One operation: ``run`` is the timed call, ``check`` validates its
    result and returns an accuracy gap in bits or None.  ``inproc`` is the
    in-process form a traced run wraps (the same call, except for cli
    commands), and ``key`` reduces a result to what traced and untraced
    runs must agree on."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], float | None]
    inproc: Callable[[], object]
    key: Callable[[object], object]


def _wishart(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / m.trace().real


def _isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _items(decomposition):
    return [(p, psi.vec) for p, psi in decomposition.items]


def _decomposition_key(d):
    return tuple((p, psi.vec.tobytes()) for p, psi in d.items)


def _eof_key(res):
    return res.value, _decomposition_key(res.decomposition)


def _check_decomposition(items, mat, dims) -> None:
    dist = oracles.trace_distance(oracles.ensemble_matrix(items), mat)
    require(dist <= 1e-8, f"decomposition misses the state by {dist:.2e} in trace distance")


def _check_eof(res, mat, dims, exact=None):
    """Reconstruction, value == average Schmidt entropy, then either the gap to
    an exact value or the [hashing floor, spectral ceiling] bracket."""
    items = _items(res.decomposition)
    _check_decomposition(items, mat, dims)
    avg = oracles.average_schmidt_entropy(items, dims)
    require(abs(avg - res.value) <= 1e-9, f"value {res.value} != ensemble entropy {avg}")
    if exact is not None:
        gap = res.value - exact
        require(-1e-9 <= gap <= 1e-3,
                f"gap {gap:.3e} to the exact value {exact} outside [-1e-9, 1e-3]")
        return gap
    floor = oracles.hashing_floor(mat, dims)
    ceil = min(math.log2(min(dims)), oracles.spectral_ensemble_entropy(mat, dims))
    require(floor - 1e-9 <= res.value <= ceil + 1e-9,
            f"value {res.value} outside [{floor}, {ceil}]")
    return None


class Workload:
    name = ""
    trace_round_s = 1.0  # rough seconds of one untraced plus one traced round

    def build(self, seed: int, ec, root: Path):
        raise NotImplementedError

    def round(self, inputs, k: int) -> list[Op]:
        raise NotImplementedError


class Eof2q(Workload):
    """Criterion-3 state set: 50 rank-2 and 25 rank-4 two-qubit Wishart
    states; a round is two rank-2 searches and one rank-4 search."""

    name = "eof-2q"
    trace_round_s = 4.5

    def build(self, seed, ec, root):
        r2 = [ec.DensityMatrix((2, 2), _wishart(np.random.default_rng((seed, 1000 + i)), 4, 2))
              for i in range(50)]
        r4 = [ec.DensityMatrix((2, 2), _wishart(np.random.default_rng((seed, 2000 + i)), 4, 4))
              for i in range(25)]
        return ec, r2, r4

    def round(self, inputs, k):
        ec, r2, r4 = inputs
        picks = [(r2, 2, (2 * k) % 50), (r2, 2, (2 * k + 1) % 50), (r4, 4, k % 25)]
        return [self._op(ec, states[i], rank, i) for states, rank, i in picks]

    @staticmethod
    def _op(ec, rho, rank, i):
        def run():
            return ec.eof_numeric(rho, restarts=20, seed=i)

        def check(res):
            return _check_eof(res, rho.mat, (2, 2), exact=oracles.wootters_eof(rho.mat))

        return Op(f"eof_numeric 2x2 rank {rank} #{i}",
                  run, check, run, _eof_key)


class EofQutrit(Workload):
    """The inner call of ec1_general on 3x3 rank-2 states: half are two-qubit
    states lifted by local isometries (exact value known), half are outputs
    of 2-Kraus 3->3 channels at pure inputs (bracketed)."""

    name = "eof-qutrit"
    trace_round_s = 3.5
    size = 16

    def build(self, seed, ec, root):
        lifted, outputs = [], []
        for i in range(self.size):
            rng = np.random.default_rng((seed, 3000 + i))
            small = _wishart(rng, 4, 2)
            v = np.kron(_isometry(rng, 3, 2), _isometry(rng, 3, 2))
            big = v @ small @ v.conj().T
            big = 0.5 * (big + big.conj().T)
            lifted.append((ec.DensityMatrix((3, 3), big / big.trace().real), small))
            rng = np.random.default_rng((seed, 4000 + i))
            stine = _isometry(rng, 6, 3)
            kraus = [np.kron(stine[3 * j:3 * j + 3], np.eye(3)) for j in range(2)]
            psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            psi /= np.linalg.norm(psi)
            pure = np.outer(psi, psi.conj())
            out = sum(kk @ pure @ kk.conj().T for kk in kraus)
            out = 0.5 * (out + out.conj().T)
            outputs.append(ec.DensityMatrix((3, 3), out / out.trace().real))
        return ec, lifted, outputs

    def round(self, inputs, k):
        ec, lifted, outputs = inputs
        i = k % self.size
        rho, small = lifted[i]
        return [self._op(ec, rho, i, "lifted", lambda: oracles.wootters_eof(small)),
                self._op(ec, outputs[i], i, "channel", None)]

    @staticmethod
    def _op(ec, rho, i, kind, exact):
        def run():
            return ec.eof_numeric(rho, restarts=8, seed=i, sweeps=3)

        def check(res):
            return _check_eof(res, rho.mat, (3, 3), exact=exact() if exact else None)

        return Op(f"eof_numeric 3x3 {kind} #{i}", run, check, run, _eof_key)


class OneShot(Workload):
    """Rank-3 states at three error levels: per round, three 2x3 states and
    six 3x3 states.  With equal shares the median operation fell between the
    2x3 and the 3x3 cluster and moved by 14 % from seed to seed; with a 1:2
    mix it lies inside the narrower 3x3 cluster."""

    name = "one-shot"
    trace_round_s = 30.0
    size = 12
    eps_levels = (0.01, 0.05, 0.1)

    def build(self, seed, ec, root):
        def states(dims, stream):
            n = dims[0] * dims[1]
            rngs = [np.random.default_rng((seed, stream + i)) for i in range(self.size)]
            return [ec.DensityMatrix(dims, _wishart(rng, n, 3)) for rng in rngs]
        return ec, states((2, 3), 5000), states((3, 3), 6000)

    def round(self, inputs, k):
        ec, small, big = inputs
        ops = []
        for states, passes in ((small, 1), (big, 2)):
            for p in range(passes):
                for j, eps in enumerate(self.eps_levels):
                    i = (3 * (passes * k + p) + j) % self.size
                    ops.append(self._op(ec, states[i], i, eps))
        return ops

    @staticmethod
    def _op(ec, rho, i, eps):
        dims = rho.dims

        def run():
            return ec.one_shot_cost_bounds(rho, eps, seed=i)

        def check(b):
            items = _items(b.witness)
            _check_decomposition(items, rho.mat, dims)
            cols = oracles.branch_columns(items, dims)
            # The search pushes the removed mass right up to the budget, so
            # allow float noise at the boundary on both sides.
            s_low = oracles.truncation_support(cols, 0.5 * eps + 1e-10)
            s_high = oracles.truncation_support(cols, 0.5 * eps - 1e-10)
            require(math.isfinite(b.upper), f"upper {b.upper} not finite")
            s = round(2.0 ** b.upper)
            require(abs(2.0 ** b.upper - s) <= 1e-9 and s_low <= s <= s_high,
                    f"upper {b.upper} is not log2 of the exact support in [{s_low}, {s_high}]")
            require(b.lower <= b.upper <= math.log2(min(dims)) + 1e-12,
                    f"bounds out of order: {b.lower}, {b.upper}")
            return None

        def key(b):
            return b.lower, b.upper, _decomposition_key(b.witness)

        return Op(f"one_shot_cost_bounds {dims[0]}x{dims[1]} eps={eps} #{i}",
                  run, check, run, key)


# -- cli --------------------------------------------------------------------

FAMILIES = ("dephasing", "depolarizing", "amplitude_damping")
FAMILY_PARAM = {"dephasing": "p", "depolarizing": "r", "amplitude_damping": "r"}


def _num(x) -> float:
    if isinstance(x, str) and x in ("inf", "-inf"):
        return float(x)
    require(isinstance(x, (int, float)) and not isinstance(x, bool), f"{x!r} is not a number")
    return float(x)


def _close(got, want: float, what: str, tol: float = 1e-9) -> None:
    got = _num(got)
    if math.isinf(want):
        require(got == want, f"{what}: {got} != {want}")
        return
    require(abs(got - want) <= tol * max(1.0, abs(want)), f"{what}: {got} != {want}")


def _state_json(mat: np.ndarray) -> str:
    return json.dumps({"dims": [2, 2], "re": mat.real.tolist(), "im": mat.imag.tolist()})


def _channel_json(family: str, x: float) -> str:
    return json.dumps({"type": family, FAMILY_PARAM[family]: x})


class Cli(Workload):
    """One fresh ``python -m entcost.cli`` process per command."""

    name = "cli"
    trace_round_s = 8.0
    size = 16
    points = 1001

    def build(self, seed, ec, root):
        from entcost import cli  # noqa: F401  (set-up pays for the cli import)

        table_dir = root / "bench" / "results" / "tables"
        table_dir.mkdir(parents=True, exist_ok=True)
        rounds = []
        for k in range(self.size):
            rng = np.random.default_rng((seed, 7000 + k))
            rounds.append(self._round_params(rng, k, table_dir / f"seed{seed}-{k}.csv"))
        return root, rounds

    def _round_params(self, rng, k, table_path):
        fam = FAMILIES[k % 3]
        p = {}
        p["ec1"] = (fam, float(rng.uniform(0.0, 1.0)))
        p["choi"] = (FAMILIES[(k + 1) % 3], float(rng.uniform(0.0, 1.0)))
        p["conc"] = _wishart(rng, 4, int(rng.integers(1, 5)))
        p["eof"] = _wishart(rng, 4, int(rng.integers(1, 5)))
        p["region"] = FAMILIES[(k + 2) % 3]
        p["identity"] = (float(rng.uniform(1.0, 3.0)), int(rng.integers(1, 60)))
        d1 = float(rng.uniform(0.05, 0.5))
        p["converse"] = (fam, float(rng.uniform(0.0, 1.0)), d1,
                         d1 + float(rng.uniform(0.05, 1.0)), int(rng.integers(10, 100_000)))
        p["entropy"] = (_wishart(rng, 4, int(rng.integers(1, 5))),
                        ("von-neumann", "conditional", "h0")[k % 3])
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        w = rng.random((nx, ny))
        w[rng.random((nx, ny)) < 0.2] = 0.0
        w[0, 0] += 0.1
        w /= w.sum()
        costs, _ = oracles.exhaustive_smoothing(w)
        while True:  # keep the budget clear of exact ties with an achievable cost
            eps = float(rng.uniform(0.0, 0.6))
            if np.abs(costs - eps).min() > 1e-9:
                break
        rows = [f"{x},{y},{float(w[x, y])!r}" for x in range(nx) for y in range(ny)]
        table_path.write_text("x,y,p\n" + "\n".join(rows) + "\n", encoding="utf-8")
        p["smooth"] = (str(table_path), w, eps)
        n = int(rng.integers(1, 1000))
        p["constants"] = (("postselection", "definetti", "epsnet")[k % 3], n,
                          int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                          int(rng.integers(1, 4)), float(rng.uniform(0.01, 0.5)))
        return p

    def round(self, inputs, k):
        root, rounds = inputs
        p = rounds[k % self.size]
        cmds = []

        fam, x = p["ec1"]
        cmds.append((["ec1", "--channel", _channel_json(fam, x)], self._check_ec1(fam, x)))
        fam, x = p["choi"]
        cmds.append((["choi", "--channel", _channel_json(fam, x)], self._check_choi(fam, x)))
        cmds.append((["concurrence", "--state", _state_json(p["conc"])],
                     self._check_concurrence(p["conc"])))
        cmds.append((["eof", "--state", _state_json(p["eof"])], self._check_eof(p["eof"])))
        cmds.append((["security-region", "--family", p["region"], "--points", str(self.points)],
                     self._check_region(p["region"])))
        rate, n = p["identity"]
        cmds.append((["strong-converse", "--identity", "--rate", repr(rate), "--n", str(n)],
                     self._check_identity(rate, n)))
        fam, x, d1, d2, n = p["converse"]
        cmds.append((["strong-converse", "--channel", _channel_json(fam, x), "--delta1", repr(d1),
                      "--delta2", repr(d2), "--n", str(n)],
                     self._check_converse(fam, x, d1, d2, n)))
        mat, kind = p["entropy"]
        cmds.append((["entropy", "--state", _state_json(mat), "--kind", kind],
                     self._check_entropy(mat, kind)))
        path, w, eps = p["smooth"]
        cmds.append((["smooth-h0", "--table", path, "--eps", repr(eps)],
                     self._check_smooth(w, eps)))
        mode, n, da, dr, chi, neps = p["constants"]
        argv = ["constants", f"--{mode}", "--n", str(n), "--dimA", str(da)]
        if mode == "definetti":
            argv += ["--dimR", str(dr)]
        if mode == "epsnet":
            argv += ["--chi", str(chi), "--eps", repr(neps), "--dimB", str(dr)]
        cmds.append((argv, self._check_constants(mode, n, da, dr, chi, neps)))
        cmds.append((["dephasing-curves", "--points", str(self.points)], self._check_curves()))
        return [self._op(root, argv, check) for argv, check in cmds]

    @staticmethod
    def _op(root, argv, check):
        cmd = [sys.executable, "-m", "entcost.cli", *argv]

        def run():
            # stderr goes to an unlinked file so stdout can be read to EOF
            # without a second reader; wait4 reports the child's own peak RSS.
            with tempfile.TemporaryFile(dir=root / "bench" / "results") as err, \
                    subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=root) as proc:
                out = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                if proc.returncode != 0:
                    err.seek(0)
                    last = err.read().decode().strip().splitlines()[-1:]
                    raise OpFailed(f"exit {proc.returncode}: {' '.join(last)}")
            return out, usage.ru_maxrss

        def inproc():
            from entcost import cli
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.run(list(argv))
            if code != 0:
                raise OpFailed(f"exit {code}")
            return buf.getvalue(), 0

        def checked(result):
            try:
                doc = json.loads(result[0])
            except json.JSONDecodeError as exc:
                raise WrongOutput(f"output is not JSON: {exc}") from exc
            try:
                check(doc)
            except (KeyError, IndexError, TypeError) as exc:
                raise WrongOutput(f"output lacks {exc!r}") from exc
            return None

        return Op(" ".join(argv[:1] + [a for a in argv[1:] if a.startswith("--")]),
                  run, checked, inproc, lambda result: result[0])

    # Each check below returns a function of the parsed JSON output.

    @staticmethod
    def _check_ec1(fam, x):
        def check(doc):
            _close(doc["ec1"], oracles.family_ec1(fam, x), "ec1")
            require(doc["certified"] is True, "qubit ec1 must be certified")
        return check

    @staticmethod
    def _check_choi(fam, x):
        def check(doc):
            require(doc["dims"] == [2, 2] and doc["dim_in"] == doc["dim_out"] == 2,
                    "choi dims")
            got = np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
            err = float(np.abs(got - oracles.family_choi(fam, x)).max())
            require(err <= 1e-9, f"choi matrix off by {err:.2e}")
        return check

    @staticmethod
    def _check_concurrence(mat):
        def check(doc):
            _close(doc["concurrence"], oracles.concurrence(mat), "concurrence")
        return check

    @staticmethod
    def _check_eof(mat):
        def check(doc):
            require(doc["method"] == "concurrence_closed_form", "eof method")
            _close(doc["eof"], oracles.wootters_eof(mat), "eof")
        return check

    def _check_region(self, fam):
        pname = FAMILY_PARAM[fam]

        def check(doc):
            rows = doc["rows"]
            require(doc["family"] == fam and len(rows) == self.points, "security-region shape")
            for i, row in enumerate(rows):
                x = i / (self.points - 1)
                _close(row[pname], x, f"{pname}[{i}]", 1e-12)
                e = _num(row["ec1"])
                _close(e, oracles.family_ec1(fam, x), f"ec1 at {pname}={x}")
                want = math.inf if e == 0.0 else 1.0 / (2.0 * e)
                _close(row["nu_max"], want, f"nu_max at {pname}={x}")
        return check

    @staticmethod
    def _check_identity(rate, n):
        def check(doc):
            require(doc["mode"] == "identity" and doc["n"] == n, "identity mode fields")
            _close(doc["error_lower_bound"], oracles.identity_error(rate, n), "identity bound")
        return check

    @staticmethod
    def _check_converse(fam, x, d1, d2, n):
        def check(doc):
            ec1 = oracles.family_ec1(fam, x)
            require(doc["mode"] == "channel" and doc["ec1_certified"] is True,
                    "converse mode fields")
            _close(doc["ec1"], ec1, "ec1")
            _close(doc["rate"], ec1 + d2, "rate")
            _close(doc["simulation_error"], oracles.simulation_error(n, d1, 2, 2),
                   "simulation error")
            raw = oracles.converse_raw(n, d1, d2, 2, 2, ec1)
            _close(doc["error_lower_bound_raw"], raw, "raw bound")
            _close(doc["error_lower_bound"], max(0.0, raw), "bound")
        return check

    @staticmethod
    def _check_entropy(mat, kind):
        def check(doc):
            if kind == "von-neumann":
                want = oracles.von_neumann(mat)
            elif kind == "conditional":
                want = oracles.cond_entropy(mat, (2, 2))
            else:
                want = oracles.log2_rank(mat)
            require(doc["kind"] == kind, "entropy kind")
            _close(doc["value"], want, f"{kind} entropy")
        return check

    @staticmethod
    def _check_smooth(w, eps):
        def check(doc):
            _close(doc["h0"], oracles.h0_cond_classical(w), "h0")
            _close(doc["smooth_h0"], oracles.smooth_h0_exhaustive(w, eps), "smooth h0")
        return check

    @staticmethod
    def _check_constants(mode, n, da, dr, chi, eps):
        def check(doc):
            if mode == "postselection":
                _close(doc["log2_factor"], oracles.postselection_log2(n, da), "postselection")
            elif mode == "definetti":
                _close(doc["log2_count"], oracles.definetti_log2(n, da, dr), "definetti")
            else:
                _close(doc["log2_size"], oracles.epsnet_log2(chi, eps, da, dr), "epsnet")
        return check

    def _check_curves(self):
        def check(doc):
            rows = doc["rows"]
            require(len(rows) == self.points, "dephasing-curves length")
            for i, row in enumerate(rows):
                p = 0.5 * i / (self.points - 1)
                _close(row["p"], p, f"p[{i}]", 1e-12)
                want = oracles.dephasing_row(p)
                for name in ("q_arrow", "ec1"):
                    _close(row[name], want[name], f"{name} at p={p}")
                qa, e, qe = _num(row["q_arrow"]), _num(row["ec1"]), _num(row["q_e"])
                require(qa <= min(e, qe) + 1e-12 and qe <= 1.0 + 1e-12,
                        f"q_arrow <= min(ec1, q_e) <= q_e <= 1 fails at p={p}")
        return check


WORKLOADS = {w.name: w for w in (Eof2q(), EofQutrit(), OneShot(), Cli())}
