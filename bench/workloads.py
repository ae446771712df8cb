"""The benchmark's three seeded workloads: op generators, op runners and output checks.

Each workload turns a seed into an endless, deterministic stream of op specs
(plain dicts).  ``run(spec)`` performs one op against the library and is the
only part that is timed and traced; ``check(spec, output)`` verifies the
output afterwards and raises ``CheckFailed`` when it is wrong.

Ops are drawn in blocks whose size parameters are stratified (one draw per
stratum, in shuffled order) and whose op kinds come in fixed proportions, so
the cost mix of a run barely depends on the seed.

The library is always reached through module attributes (``sq.coefficients``,
``cli.main``, ...) looked up at call time, so the traced run's wrappers see
every call the ops make.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

import sagnac_qfi as sq
from sagnac_qfi import cli, oracle

T0 = 2.0 * math.pi  # trap period at the default trap frequency of 1
CSV_HEADER = "# sagnac-qfi v1"
SCAN_RTOL = 1e-9  # re-derived closed forms vs printed values
ORACLE_RTOL = 1e-5  # acceptance tolerance of the dual oracle
SEGMENT_ATOL = 1e-6  # closed vs 10^4-step product, constant/piecewise drives
SAMPLED_STEP_CONSTANT = 0.1  # sampled drives: error <= 0.1 (tau/steps)^2


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class Workload:
    """Base of the three workloads: an endless op stream made of blocks."""

    name: str
    block: int
    trace_ops: int  # the traced run's fixed op count, a whole number of blocks

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def ops(self, seed: int):
        rng = random.Random(seed)
        for index in itertools.count():
            yield from self._block(rng, index)


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal strata of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _close(got: float, want: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(got - want) <= rtol * max(abs(want), floor) or got == want


def _expect(name: str, got, want: float, rtol: float = SCAN_RTOL, floor: float = 0.0):
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise CheckFailed(f"{name}: expected a number, got {got!r}")
    if not _close(float(got), want, rtol, floor):
        raise CheckFailed(f"{name}: printed {got!r}, re-derived {want!r}")


# ---------------------------------------------------------------------------
# closed-scan: in-process CLI calls
# ---------------------------------------------------------------------------

# Twelve ops per block.  Eight of them are 100-400 point tau/alpha scans, so
# the median and the 90th percentile both fall inside one continuous range of
# op costs instead of in the gap between small and large ops.
SCAN_BLOCK = ["scan-tau"] * 4 + ["scan-alpha"] * 4 + ["scan-n"] * 2 + ["qfi", "coeffs"]
STATE_KINDS = ("global", "partial", "product")


class ClosedScan(Workload):
    """One op is one ``cli.main(argv)`` call writing to a file in the output dir."""

    name = "closed-scan"
    block = len(SCAN_BLOCK)
    trace_ops = 48

    @property
    def out_path(self) -> Path:
        return self.out_dir / "closed-scan.out"

    def warmup(self, seed: int) -> dict:
        rng = random.Random(f"warmup-{seed}")
        return self._spec(rng, "scan-tau", 100, rng.choice(STATE_KINDS), "csv")

    def _block(self, rng: random.Random, index: int) -> list[dict]:
        big = [round(p) for p in _strata(rng, 8, 100, 401)]
        small = [round(p) for p in _strata(rng, 2, 20, 61)]
        sizes = {"scan-tau": big[:4], "scan-alpha": big[4:], "scan-n": small}
        kinds = list(STATE_KINDS) * (self.block // len(STATE_KINDS))
        formats = ["csv", "json"] * (self.block // 2)
        commands = list(SCAN_BLOCK)
        for items in (kinds, formats, commands):
            rng.shuffle(items)
        return [
            self._spec(rng, command, sizes[command].pop() if command in sizes else 0, kind, fmt)
            for command, kind, fmt in zip(commands, kinds, formats)
        ]

    def _spec(self, rng: random.Random, command: str, points: int, kind: str, fmt: str) -> dict:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        alpha = rng.uniform(0.1, 2.0) * complex(math.cos(theta), math.sin(theta))
        spec = {
            "command": command,
            "format": fmt,
            "kind": kind,
            "alpha": [alpha.real, alpha.imag],
            "n": rng.randrange(3),
            "radius": rng.uniform(0.5, 2.0),
            "n_particles": round(10 ** rng.uniform(0, 3)),
            "tau": rng.uniform(0.1, 6.0) * T0,
            "points": points,
        }
        if command == "scan-tau":
            spec["sweep"] = ["tau", 0.1 * T0, 6.0 * T0, "linear"]
        elif command == "scan-alpha":
            if rng.random() < 0.5:
                spec["sweep"] = ["theta_alpha", 0.0, 2.0 * math.pi, "linear"]
            else:
                spec["sweep"] = ["abs_alpha", 0.1, 2.5, "linear"]
        elif command == "scan-n":
            spec["sweep"] = ["N", 10.0, 1.0e4, "log"]
        return spec

    def argv(self, spec: dict) -> list[str]:
        sets = {
            "state.kind": spec["kind"],
            "state.alpha_re": repr(spec["alpha"][0]),
            "state.alpha_im": repr(spec["alpha"][1]),
            "state.n": str(spec["n"]),
            "physical.ring_radius": repr(spec["radius"]),
            "n_particles": str(spec["n_particles"]),
        }
        if spec["command"] != "scan-tau":
            sets["profile.tau"] = repr(spec["tau"])
        if "sweep" in spec:
            variable, start, stop, scale = spec["sweep"]
            sets.update({
                "sweep.variable": variable,
                "sweep.start": repr(start),
                "sweep.stop": repr(stop),
                "sweep.scale": scale,
                "sweep.points": str(spec["points"]),
            })
        argv = [spec["command"], "--format", spec["format"], "--out", str(self.out_path)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def run(self, spec: dict) -> int:
        return cli.main(self.argv(spec))

    def check(self, spec: dict, code: int) -> bytes:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        data = self.out_path.read_bytes()
        check_closed_scan(spec, data.decode("utf-8"))
        return data


def _sweep_grid(spec: dict) -> list[float]:
    _, start, stop, scale = spec["sweep"]
    if scale == "log":
        grid = np.logspace(math.log10(start), math.log10(stop), spec["points"])
    else:
        grid = np.linspace(start, stop, spec["points"])
    if spec["command"] == "scan-n":
        grid = np.unique(np.round(grid).astype(int))
        grid = grid[grid >= 1].astype(float)
    return [float(v) for v in grid]


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        raise CheckFailed("no column header")
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    for row in rows:
        if len(row) != len(header):
            raise CheckFailed(f"row has {len(row)} fields, header {len(header)}")
    return header, rows


def _csv_value(raw: str):
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _constant_drive_reference(tau: float, radius: float) -> dict:
    """Closed-form coefficients of a constant drive omega_p = pi/tau at
    m = hbar = omega = 1 and zero rotation rate, derived here independently
    of the library."""
    x = tau  # omega * tau
    amp_up = math.sqrt(0.5) * radius * math.pi / tau
    eta_unit = -(complex(math.cos(x), math.sin(x)) - 1.0) / 1j
    c1 = 1j * math.sin(x / 2.0) * complex(math.cos(x / 2.0), math.sin(x / 2.0))
    return {
        "c1_re": c1.real,
        "c1_im": c1.imag,
        "c2": 0.5 * (1.0 - math.sin(x) / x),
        "t_c": radius * math.sqrt(2.0),
        "t_s": 2.0 * math.pi * radius * radius,
        "eta_up": amp_up * eta_unit,
        "eta_down": -amp_up * eta_unit,
        "phi": amp_up * amp_up * (x - math.sin(x)),
    }


def _closed_qfis(c1: complex, c2: float, t_c: float, t_s: float, alpha: complex, n: int,
                 big_n: float):
    """The paper's closed forms: Re(C1 alpha*) and F for the partial, global
    and product families."""
    re = (c1 * alpha.conjugate()).real
    shot = 4.0 * big_n * t_c**2 * abs(c1) ** 2
    f_partial = (2.0 * n + 1.0) * shot + 4.0 * big_n**2 * t_s**2 * c2**2
    f_global = 4.0 * big_n**2 * (2.0 * t_c * re + t_s * c2) ** 2 + shot
    return re, f_partial, f_global, (2.0 * n + 1.0) * shot


def _check_qfi_row(row: dict, spec: dict, tau: float, alpha: complex, big_n: float, label: str):
    """Every numeric column of one scan row (or of the `qfi` pairs) against
    the closed forms, re-derived from the row's printed coefficients and from
    the drawn inputs."""
    ref = _constant_drive_reference(tau, spec["radius"])
    printed = {}
    for key in ("c1_re", "c1_im", "c2", "t_c", "t_s"):
        if key in row:  # scan rows print them; `qfi` pairs do not
            _expect(f"{label} {key}", row[key], ref[key], floor=1.0)
        printed[key] = row.get(key, ref[key])
    c1 = complex(printed["c1_re"], printed["c1_im"])
    c2, t_c, t_s = printed["c2"], printed["t_c"], printed["t_s"]
    re, f_partial, f_global, f_product = _closed_qfis(c1, c2, t_c, t_s, alpha, spec["n"], big_n)
    _expect(f"{label} f_partial", row["f_partial"], f_partial)
    _expect(f"{label} f_global", row["f_global"], f_global)
    reference = {"partial": f_partial, "global": f_global, "product": f_product}[spec["kind"]]
    f_general = row["f_general"]
    _expect(f"{label} f_general", f_general, reference, floor=1.0)
    beta, gamma = row["beta"], row["gamma"]
    split = 4.0 * ((beta - gamma) * big_n + gamma * big_n**2)
    _expect(f"{label} beta/gamma", split, f_general, floor=1.0)
    big_r = spec["radius"]
    if "reduced_radius" in row:
        _expect(f"{label} reduced_radius", row["reduced_radius"], big_r)
        _expect(f"{label} sagnac_phase", row["sagnac_phase"], 0.0, floor=1.0)
    poly = row["lambda1"] * big_r**2 + row["lambda2"] * big_r**3 + row["lambda3"] * big_r**4
    _expect(f"{label} lambda polynomial", poly, f_general, floor=1.0)
    return re


def check_closed_scan(spec: dict, text: str) -> None:
    """Verify one CLI output; raises CheckFailed."""
    fmt = spec["format"]
    if fmt == "csv" and not text.startswith(CSV_HEADER + "\n"):
        raise CheckFailed("csv output does not start with the version header")
    if fmt == "json":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise CheckFailed(f"invalid json: {exc}") from exc
        if payload.pop("version", None) != CSV_HEADER.lstrip("# "):
            raise CheckFailed("json output lacks the version tag")
    command = spec["command"]
    alpha0 = complex(*spec["alpha"])
    if command in ("qfi", "coeffs"):
        if fmt == "csv":
            header, rows = _parse_csv(text)
            if header != ["key", "value"]:
                raise CheckFailed(f"unexpected pair header {header}")
            pairs = {key: _csv_value(raw) for key, raw in rows}
            if len(pairs) != len(rows):
                raise CheckFailed("duplicate keys")
        else:
            pairs = payload
        if command == "qfi":
            _check_qfi_pairs(spec, pairs, alpha0)
        else:
            _check_coeff_pairs(spec, pairs)
        return

    grid = _sweep_grid(spec)
    if fmt == "csv":
        header, raw_rows = _parse_csv(text)
        rows = [{k: _csv_value(v) for k, v in zip(header, raw)} for raw in raw_rows]
    else:
        rows = payload["rows"]
        if payload["physical"]["ring_radius"] != spec["radius"]:
            raise CheckFailed("json echo of ring_radius differs from the request")
    if len(rows) != len(grid):
        raise CheckFailed(f"{len(rows)} rows for a {len(grid)}-point request")
    variable = spec["sweep"][0]
    for i, (row, value) in enumerate(zip(rows, grid)):
        label = f"row {i}"
        _expect(f"{label} value", row["value"], value, rtol=1e-12)
        tau, alpha, big_n = spec["tau"], alpha0, float(spec["n_particles"])
        if variable == "N":
            big_n = value
        elif variable == "tau":
            tau = value
        elif variable == "theta_alpha":
            alpha = complex(abs(alpha0) * np.exp(1j * value))
        else:
            alpha = complex(value * np.exp(1j * np.angle(alpha0)))
        _check_qfi_row(row, spec, tau, alpha, big_n, label)
        if variable == "tau":
            _expect(f"{label} omega_p", row["omega_p"], math.pi / tau)
            _expect(f"{label} tau_over_t0", row["tau_over_t0"], tau / T0)
            fp, fg = row["f_partial"] / big_n**2, row["f_global"] / big_n**2
            _expect(f"{label} f_partial_per_n2", row["f_partial_per_n2"], fp)
            _expect(f"{label} f_global_per_n2", row["f_global_per_n2"], fg)
            _expect(f"{label} difference_per_n2", row["difference_per_n2"], fg - fp,
                    floor=max(fg, fp))


def _check_pair_count(pairs: dict, want: int, command: str) -> None:
    if len(pairs) != want:
        raise CheckFailed(f"{command}: {len(pairs)} values, expected {want}")


def _check_qfi_pairs(spec: dict, pairs: dict, alpha: complex) -> None:
    tau = spec["tau"]
    cycles = tau / T0
    commensurate = abs(cycles - round(cycles)) < 1e-9 and round(cycles) >= 1
    _check_pair_count(pairs, 15 if commensurate else 14, "qfi")
    big_n = float(spec["n_particles"])
    if pairs["state_kind"] != spec["kind"] or pairs["n_particles"] != spec["n_particles"]:
        raise CheckFailed("qfi: state echo differs from the request")
    re = _check_qfi_row(pairs, spec, tau, alpha, big_n, "qfi")
    ref = _constant_drive_reference(tau, spec["radius"])
    t_c, t_s, c2 = ref["t_c"], ref["t_s"], ref["c2"]
    f_general = pairs["f_general"]
    diff = 16.0 * big_n**2 * (t_c * re + t_s * c2) * (t_c * re)
    _expect("qfi difference", pairs["difference_global_minus_partial"], diff,
            floor=pairs["f_global"])
    _expect("qfi qcrb", pairs["qcrb_bound_time2"], 1.0 / f_general)
    _expect("qfi heisenberg_fraction", pairs["heisenberg_fraction"],
            4.0 * pairs["gamma"] * big_n**2 / f_general, floor=1.0)
    in_regime = re >= 0.0 or re <= -t_s * c2 / t_c
    verdict = "wins" if in_regime else ("wins-numerically" if diff >= 0 else "loses-numerically")
    if pairs["global_verdict"] != verdict:
        raise CheckFailed(f"qfi verdict {pairs['global_verdict']!r}, expected {verdict!r}")


def _check_coeff_pairs(spec: dict, pairs: dict) -> None:
    _check_pair_count(pairs, 19, "coeffs")
    tau, radius = spec["tau"], spec["radius"]
    ref = _constant_drive_reference(tau, radius)
    want = {
        "tau": tau,
        "omega_p": math.pi / tau,
        "omega_tau": tau,
        "t_c": ref["t_c"],
        "t_s": ref["t_s"],
        "sagnac_phase": 0.0,
        "oscillator_length": 1.0,
        "characteristic_momentum": math.sqrt(0.5),
        "reduced_radius": radius,
        "c0": 0.0,
        "c1_re": ref["c1_re"],
        "c1_im": ref["c1_im"],
        "c2": ref["c2"],
        "eta_up_re": ref["eta_up"].real,
        "eta_up_im": ref["eta_up"].imag,
        "eta_down_re": ref["eta_down"].real,
        "eta_down_im": ref["eta_down"].imag,
        "phi_up": ref["phi"],
        "phi_down": ref["phi"],
    }
    scale = max(1.0, abs(ref["eta_up"]), ref["phi"])
    for key, value in want.items():
        _expect(f"coeffs {key}", pairs[key], value, floor=scale)


# ---------------------------------------------------------------------------
# oracle-dense: variance and fidelity oracles on explicit N-site vectors
# ---------------------------------------------------------------------------

ORACLE_CASES = [(1, "partial"), (1, "global"), (2, "partial"), (2, "global")]


class OracleDense(Workload):
    """One op builds the input state and calls one QFI oracle; routes alternate."""

    name = "oracle-dense"
    block = 2 * len(ORACLE_CASES)
    trace_ops = 64

    def warmup(self, seed: int) -> dict:
        rng = random.Random(f"warmup-{seed}")
        return self._spec(rng, "variance", 1, rng.choice(["partial", "global"]),
                          rng.uniform(0.2, 1.2) * T0, rng.uniform(0.1, 2.0))

    def _block(self, rng: random.Random, index: int) -> list[dict]:
        taus = _strata(rng, self.block, 0.2 * T0, 1.2 * T0)
        amps = _strata(rng, self.block, 0.1, 2.0)
        variance_cases = rng.sample(ORACLE_CASES, len(ORACLE_CASES))
        fidelity_cases = rng.sample(ORACLE_CASES, len(ORACLE_CASES))
        specs = []
        for var_case, fid_case in zip(variance_cases, fidelity_cases):
            specs.append(self._spec(rng, "variance", *var_case, taus.pop(), amps.pop()))
            specs.append(self._spec(rng, "fidelity", *fid_case, taus.pop(), amps.pop()))
        return specs

    @staticmethod
    def _spec(rng, route, n_particles, family, tau, amp) -> dict:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return {
            "route": route,
            "n_particles": n_particles,
            "family": family,
            "alpha": [amp * math.cos(theta), amp * math.sin(theta)],
            "n": rng.randrange(3),
            "tau": tau,
            "rotation_rate": rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5),
        }

    @staticmethod
    def _inputs(spec: dict):
        params = sq.PhysicalParams(rotation_rate=spec["rotation_rate"])
        profile = sq.DrivingProfile.constant_for(spec["tau"])
        return params, profile, complex(*spec["alpha"])

    def run(self, spec: dict) -> float:
        params, profile, alpha = self._inputs(spec)
        if spec["family"] == "partial":
            state = sq.make_partially_entangled(alpha, spec["n"], n_particles=spec["n_particles"])
        else:
            state = sq.make_globally_entangled(alpha, n_particles=spec["n_particles"])
        route = sq.qfi_variance_numeric if spec["route"] == "variance" else sq.qfi_fidelity_numeric
        return route(state, params, profile, spec["tau"])

    def check(self, spec: dict, qfi: float) -> bytes:
        params, profile, alpha = self._inputs(spec)
        constants = sq.derive_constants(params)
        coeffs = sq.coefficients(params, profile, spec["tau"])
        big_n = spec["n_particles"]
        if spec["family"] == "partial":
            closed = sq.qfi_partial_closed(spec["n"], big_n, constants, coeffs)
        else:
            closed = sq.qfi_global_closed(alpha, big_n, constants, coeffs)
        if not abs(qfi - closed) <= ORACLE_RTOL * abs(closed):
            raise CheckFailed(f"{spec['route']} oracle {qfi!r} vs closed form {closed!r}")
        return repr(qfi).encode()


# ---------------------------------------------------------------------------
# stepped-evolution: time-ordered products against the closed factorization
# ---------------------------------------------------------------------------

SAMPLES = 20001
SEGMENT_STEPS = 10_000


class SteppedEvolution(Workload):
    """One op: build a profile, evaluate its coefficients, size d, build the
    stepped and the closed evolution, and measure their distance on the
    trusted block."""

    name = "stepped-evolution"
    block = 5  # four sampled-profile ops and one constant or piecewise op
    trace_ops = 20

    def warmup(self, seed: int) -> dict:
        rng = random.Random(f"warmup-{seed}")
        return self._sampled(rng, rng.uniform(0.4, 0.8) * T0, 100, rng.uniform(0.0, 0.4))

    def _block(self, rng: random.Random, index: int) -> list[dict]:
        sampled = self.block - 1
        taus = _strata(rng, sampled, 0.4 * T0, 0.8 * T0)
        steps = [round(s) for s in _strata(rng, sampled, 100, 401)]
        amps = _strata(rng, sampled, 0.0, 0.4)
        specs = [self._sampled(rng, taus[i], steps[i], amps[i]) for i in range(sampled)]
        specs.insert(rng.randrange(self.block), self._segments(rng, index % 2 == 0))
        return specs

    @staticmethod
    def _sampled(rng, tau, steps, amp) -> dict:
        return {
            "profile": "sampled",
            "tau": tau,
            "amp": amp,
            "wavenumber": rng.uniform(1.0, 3.0),
            "steps": steps,
            "spin": rng.choice([1, -1]),
        }

    @staticmethod
    def _segments(rng, constant: bool) -> dict:
        tau = rng.uniform(0.3, 0.8) * T0
        spec = {"tau": tau, "steps": SEGMENT_STEPS, "spin": rng.choice([1, -1])}
        if constant:
            spec["profile"] = "constant"
        else:
            cut = rng.uniform(0.2, 0.8)
            spec["profile"] = "piecewise"
            first, second = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            spec["segments"] = [[cut * tau, first], [(1 - cut) * tau, second]]
        return spec

    @staticmethod
    def _profile(spec: dict):
        tau = spec["tau"]
        if spec["profile"] == "constant":
            return sq.DrivingProfile.constant_for(tau)
        if spec["profile"] == "piecewise":
            return sq.DrivingProfile.piecewise(spec["segments"], normalization="rescale")
        t = np.linspace(0.0, tau, SAMPLES)
        shape = 1.0 + spec["amp"] * np.sin(spec["wavenumber"] * t / tau)
        return sq.DrivingProfile.sampled(t, shape, normalization="rescale")

    def run(self, spec: dict) -> float:
        params = sq.PhysicalParams()
        tau, spin = spec["tau"], spec["spin"]
        profile = self._profile(spec)
        coeffs = sq.coefficients(params, profile, tau)
        eta = abs(coeffs.eta(spin))
        columns = 8 if spec["profile"] == "sampled" else 12
        d = oracle.required_truncation(columns, eta)
        stepped = sq.build_evolution_stepped(params, profile, tau, spin, d, spec["steps"])
        closed = sq.build_evolution_closed(params, profile, tau, spin, d)
        k = oracle.trusted_columns(d, eta)
        return float(np.max(np.abs((closed - stepped)[:, :k])))

    @staticmethod
    def tolerance(spec: dict) -> float:
        if spec["profile"] == "sampled":
            return SAMPLED_STEP_CONSTANT * (spec["tau"] / spec["steps"]) ** 2
        return SEGMENT_ATOL

    def check(self, spec: dict, error: float) -> bytes:
        if not error <= self.tolerance(spec):
            raise CheckFailed(
                f"{spec['profile']} profile: closed vs stepped {error!r} > {self.tolerance(spec)!r}"
            )
        return repr(error).encode()


WORKLOADS = {w.name: w for w in (ClosedScan, OracleDense, SteppedEvolution)}
