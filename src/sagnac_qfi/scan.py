"""The runs behind every CLI subcommand, their configuration and every output format.

Configs are flat `key = value` text; every key has a default so the CLI runs
bare.  `coeffs`, `qfi` and the three sweeps are built from one row evaluator:
each row carries the closed-form QFIs, the general-form QFI recomputed from
correlations, and the (beta, gamma) and radius-polynomial decompositions;
rows where the general form drifts from the matching closed form beyond 1e-10
relative abort the run.  `qfi` is a one-row run.  `oracle-check` runs
`oracle.identity_suite` on the configured parameters.  `format_result`
renders any of these results as CSV or JSON, byte-deterministically at a
fixed BLAS thread count: fixed column order, shortest round-trip floats, no
timestamps.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ConsistencyError
from .model import (
    CoefficientSet,
    DerivedConstants,
    DrivingProfile,
    PhysicalParams,
    coefficients,
    derive_constants,
)
from .oracle import identity_suite
from .qfi import (
    QfiBreakdown,
    generator_spec,
    qfi_commensurate,
    qfi_difference,
    qfi_general,
    qfi_global_closed,
    qfi_partial_closed,
)
from .states import (
    correlations_generic,
    correlations_single_branch,
    make_globally_entangled,
    make_partially_entangled,
)

CSV_HEADER = "# sagnac-qfi v1"
FORMAT_VERSION = CSV_HEADER.lstrip("# ")
ROW_CROSS_CHECK_RTOL = 1e-10

# Key -> (type, default).  Types: float, int, str.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "physical.mass": (float, 1.0),
    "physical.hbar": (float, 1.0),
    "physical.trap_frequency": (float, 1.0),
    "physical.ring_radius": (float, 1.0),
    "physical.rotation_rate": (float, 0.0),
    "profile.kind": (str, "constant"),
    "profile.omega_p": (float, 0.0),
    "profile.tau": (float, 0.0),
    "state.kind": (str, "global"),
    "state.alpha_re": (float, -1.0),
    "state.alpha_im": (float, 0.0),
    "state.n": (int, 0),
    "state.truncation": (int, 0),
    "n_particles": (int, 100),
    "sweep.variable": (str, "N"),
    "sweep.start": (float, 100.0),
    "sweep.stop": (float, 1000.0),
    "sweep.points": (int, 20),
    "sweep.scale": (str, "log"),
    "oracle.n_max": (int, 2),
    "oracle.inject_fault": (str, "none"),
}

STATE_KINDS = ("partial", "global", "product")
SWEEP_VARIABLES = ("N", "theta_alpha", "abs_alpha", "tau", "radius")


@dataclass(frozen=True)
class ScanConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def params(self) -> PhysicalParams:
        try:
            return PhysicalParams(
                mass=self["physical.mass"],
                hbar=self["physical.hbar"],
                trap_frequency=self["physical.trap_frequency"],
                ring_radius=self["physical.ring_radius"],
                rotation_rate=self["physical.rotation_rate"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def alpha(self) -> complex:
        return complex(self["state.alpha_re"], self["state.alpha_im"])

    def resolve_tau(self) -> tuple[float, float]:
        """(tau, omega_p) from the profile block; either may be derived from
        the other through omega_p * tau = pi."""
        if self["profile.kind"] != "constant":
            raise ConfigError(
                f"CLI supports profile.kind = constant only, got "
                f"{self['profile.kind']!r} (use the library API for other kinds)"
            )
        tau = self["profile.tau"]
        omega_p = self["profile.omega_p"]
        if tau <= 0.0 and omega_p <= 0.0:
            raise ConfigError("set profile.tau or profile.omega_p (positive)")
        if tau <= 0.0:
            tau = math.pi / omega_p
        elif omega_p <= 0.0:
            omega_p = math.pi / tau
        elif abs(omega_p * tau - math.pi) > 1e-8 * math.pi:
            raise ConfigError(
                f"profile.omega_p * profile.tau = {omega_p * tau!r} must equal pi; "
                f"set one of them to 0 to derive it"
            )
        return tau, omega_p


def _coerce(key: str, raw: str):
    typ, _ = CONFIG_SCHEMA[key]
    if typ is str:
        return raw
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    if typ is int and value != int(value):
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as int")
    return int(value) if typ is int else value


def load_config(path: str | None = None, overrides=()) -> ScanConfig:
    """Defaults, then the optional config file, then --set overrides."""
    values = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, raw.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    if values["state.kind"] not in STATE_KINDS:
        raise ConfigError(
            f"state.kind must be one of {STATE_KINDS}, got {values['state.kind']!r}"
        )
    if values["sweep.variable"] not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable must be one of {SWEEP_VARIABLES}, "
            f"got {values['sweep.variable']!r}"
        )
    if values["state.n"] < 0:
        raise ConfigError(f"state.n must be nonnegative, got {values['state.n']}")
    if values["n_particles"] < 1:
        raise ConfigError(f"n_particles must be positive, got {values['n_particles']}")
    return ScanConfig(values=values)


ROW_FIELDS = (
    "value",
    "f_partial",
    "f_global",
    "f_general",
    "beta",
    "gamma",
    "lambda1",
    "lambda2",
    "lambda3",
    "c1_re",
    "c1_im",
    "c2",
    "t_c",
    "t_s",
    "sagnac_phase",
    "reduced_radius",
)


def _coefficients_at(params: PhysicalParams, tau: float) -> CoefficientSet:
    """Coefficients of the constant profile normalized for duration tau."""
    return coefficients(params, DrivingProfile.constant_for(tau), tau)


def _evaluate_row(
    value: float,
    cfg: ScanConfig,
    constants: DerivedConstants,
    coeffs: CoefficientSet,
    n_particles: int,
    alpha: complex,
) -> tuple[dict, QfiBreakdown]:
    """One row: both closed forms and the general form of the configured state,
    checked against the closed form of that state (4 beta N for the product
    state, which has no spin correlations)."""
    kind = cfg["state.kind"]
    n = cfg["state.n"]
    d = cfg["state.truncation"]
    if kind == "partial":
        corr = correlations_generic(make_partially_entangled(alpha, n, d=d), coeffs.c1)
    elif kind == "global":
        corr = correlations_generic(make_globally_entangled(alpha, d=d), coeffs.c1)
    else:
        corr = correlations_single_branch(n, coeffs.c1)
    breakdown = qfi_general(corr, generator_spec(constants, coeffs, n_particles), constants)
    row = {
        "value": value,
        "f_partial": qfi_partial_closed(n, n_particles, constants, coeffs),
        "f_global": qfi_global_closed(alpha, n_particles, constants, coeffs),
        "f_general": breakdown.qfi,
        "beta": breakdown.beta,
        "gamma": breakdown.gamma,
        "lambda1": breakdown.lambda1,
        "lambda2": breakdown.lambda2,
        "lambda3": breakdown.lambda3,
        "c1_re": coeffs.c1.real,
        "c1_im": coeffs.c1.imag,
        "c2": coeffs.c2,
        "t_c": constants.t_c,
        "t_s": constants.t_s,
        "sagnac_phase": constants.sagnac_phase,
        "reduced_radius": constants.reduced_radius,
    }
    reference = row.get(f"f_{kind}", 4.0 * breakdown.beta * n_particles)
    if abs(breakdown.qfi - reference) > ROW_CROSS_CHECK_RTOL * max(1.0, abs(reference)):
        raise ConsistencyError(
            f"row value {value!r}: general-form QFI {breakdown.qfi!r} disagrees "
            f"with the {kind} closed form {reference!r}"
        )
    return row, breakdown


def _sweep_values(cfg: ScanConfig) -> np.ndarray:
    start, stop = cfg["sweep.start"], cfg["sweep.stop"]
    points = cfg["sweep.points"]
    if points < 2:
        raise ConfigError(f"sweep.points must be at least 2, got {points}")
    if start >= stop:
        raise ConfigError(
            f"sweep range [{start}, {stop}] must be nonempty and increasing"
        )
    if cfg["sweep.scale"] == "log":
        if start <= 0:
            raise ConfigError("log scale requires a positive sweep range")
        return np.logspace(math.log10(start), math.log10(stop), points)
    if cfg["sweep.scale"] != "linear":
        raise ConfigError(f"sweep.scale must be linear or log, got {cfg['sweep.scale']!r}")
    return np.linspace(start, stop, points)


def _local_maxima(values) -> list[int]:
    """Indices of the strict interior local maxima of a sequence."""
    return [
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    ]


def run_coeffs(cfg: ScanConfig) -> dict:
    """Derived constants and evolution coefficients at the configured tau."""
    params = cfg.params()
    tau, omega_p = cfg.resolve_tau()
    constants = derive_constants(params)
    coeffs = _coefficients_at(params, tau)
    return {
        "tau": tau,
        "omega_p": omega_p,
        "omega_tau": params.trap_frequency * tau,
        "t_c": constants.t_c,
        "t_s": constants.t_s,
        "sagnac_phase": constants.sagnac_phase,
        "oscillator_length": constants.oscillator_length,
        "characteristic_momentum": constants.characteristic_momentum,
        "reduced_radius": constants.reduced_radius,
        "c0": coeffs.c0,
        "c1_re": coeffs.c1.real,
        "c1_im": coeffs.c1.imag,
        "c2": coeffs.c2,
        "eta_up_re": coeffs.eta_up.real,
        "eta_up_im": coeffs.eta_up.imag,
        "eta_down_re": coeffs.eta_down.real,
        "eta_down_im": coeffs.eta_down.imag,
        "phi_up": coeffs.phi_up,
        "phi_down": coeffs.phi_down,
    }


def run_qfi(cfg: ScanConfig) -> dict:
    """The configured point as a one-row run, with the global-vs-partial
    comparison and, at whole trap periods, the commensurate law."""
    params = cfg.params()
    tau, _ = cfg.resolve_tau()
    n_particles = cfg["n_particles"]
    alpha = cfg.alpha()
    constants = derive_constants(params)
    coeffs = _coefficients_at(params, tau)
    row, breakdown = _evaluate_row(tau, cfg, constants, coeffs, n_particles, alpha)
    comparison = qfi_difference(alpha, n_particles, constants, coeffs)
    pairs = {
        "state_kind": cfg["state.kind"],
        "n_particles": n_particles,
        **{
            key: row[key]
            for key in ("f_partial", "f_global", "f_general", "beta", "gamma",
                        "lambda1", "lambda2", "lambda3")
        },
        "heisenberg_fraction": breakdown.heisenberg_fraction,
        "difference_global_minus_partial": comparison.difference,
        "global_verdict": comparison.verdict,
        "qcrb_bound_time2": 1.0 / row["f_general"] if row["f_general"] > 0 else math.inf,
    }
    cycles = params.trap_frequency * tau / (2.0 * math.pi)
    if abs(cycles - round(cycles)) < 1e-9 and round(cycles) >= 1:
        pairs["f_commensurate"] = qfi_commensurate(n_particles, params)
    return pairs


def run_scan_n(cfg: ScanConfig) -> dict:
    """Sweep particle number; fit the log-log slope of F_global (or of the
    configured state's general-form QFI for the product kind)."""
    if cfg["sweep.variable"] != "N":
        raise ConfigError("scan-n requires sweep.variable = N")
    params = cfg.params()
    tau, omega_p = cfg.resolve_tau()
    rounded = np.round(_sweep_values(cfg))
    rounded = rounded[rounded >= 1]
    if rounded.size and rounded.max() >= 2.0**63:  # the int64 cast would wrap
        raise ConfigError(
            f"sweep over N must stay below 2**63, got sweep.stop = {cfg['sweep.stop']!r}"
        )
    n_values = np.unique(rounded.astype(int))
    if n_values.size < 2:
        raise ConfigError("sweep over N collapsed to fewer than 2 distinct values")
    constants = derive_constants(params)
    coeffs = _coefficients_at(params, tau)
    alpha = cfg.alpha()
    rows = [
        _evaluate_row(float(n), cfg, constants, coeffs, int(n), alpha)[0]
        for n in n_values
    ]
    column = "f_general" if cfg["state.kind"] == "product" else "f_global"
    logs_n = np.log10([row["value"] for row in rows])
    logs_f = np.log10([row[column] for row in rows])
    slope, intercept = np.polyfit(logs_n, logs_f, 1)
    fitted = slope * logs_n + intercept
    residual = float(np.sqrt(np.mean((logs_f - fitted) ** 2)))
    return {
        "rows": rows,
        "summary": {
            "slope_log10": float(slope),
            "slope_residual_rms": residual,
            "slope_column": column,
            "omega_p": omega_p,
            "tau": tau,
        },
    }


def run_scan_alpha(cfg: ScanConfig) -> dict:
    """Sweep the coherent amplitude's phase (theta_alpha) or magnitude
    (abs_alpha), holding the other polar coordinate at the configured alpha."""
    variable = cfg["sweep.variable"]
    if variable not in ("theta_alpha", "abs_alpha"):
        raise ConfigError("scan-alpha requires sweep.variable = theta_alpha or abs_alpha")
    params = cfg.params()
    tau, omega_p = cfg.resolve_tau()
    n_particles = cfg["n_particles"]
    base = cfg.alpha()
    values = _sweep_values(cfg)
    constants = derive_constants(params)
    coeffs = _coefficients_at(params, tau)
    rows = []
    for value in values:
        if variable == "theta_alpha":
            alpha = abs(base) * np.exp(1j * value)
        else:
            alpha = value * np.exp(1j * np.angle(base))
        row, _ = _evaluate_row(float(value), cfg, constants, coeffs, n_particles, complex(alpha))
        rows.append(row)
    maxima = _local_maxima([row["f_global"] for row in rows])
    return {
        "rows": rows,
        "summary": {
            "maxima_at": [rows[i]["value"] for i in maxima],
            "omega_p": omega_p,
            "tau": tau,
        },
    }


def run_scan_tau(cfg: ScanConfig) -> dict:
    """Sweep tau with omega_p = pi/tau recomputed per row; emit per-N^2 QFIs,
    their difference, maxima and equality locations, and the onset of the
    steady regime of F_partial/N^2."""
    if cfg["sweep.variable"] != "tau":
        raise ConfigError("scan-tau requires sweep.variable = tau")
    params = cfg.params()
    n_particles = cfg["n_particles"]
    t0 = 2.0 * math.pi / params.trap_frequency
    taus = _sweep_values(cfg)
    if taus[0] <= 0:
        raise ConfigError(f"tau sweep values must be positive, got {float(taus[0])}")
    constants = derive_constants(params)
    alpha = cfg.alpha()
    rows = []
    for value in taus:
        tau = float(value)
        coeffs = _coefficients_at(params, tau)
        row, _ = _evaluate_row(tau, cfg, constants, coeffs, n_particles, alpha)
        row["omega_p"] = math.pi / tau
        row["tau_over_t0"] = tau / t0
        row["f_partial_per_n2"] = row["f_partial"] / n_particles**2
        row["f_global_per_n2"] = row["f_global"] / n_particles**2
        row["difference_per_n2"] = row["f_global_per_n2"] - row["f_partial_per_n2"]
        rows.append(row)

    diff = np.array([row["difference_per_n2"] for row in rows])
    maxima = _local_maxima([row["f_global_per_n2"] for row in rows])
    equality = [
        float(taus[i] / t0)
        for i in range(1, len(rows) - 1)
        if abs(diff[i]) <= abs(diff[i - 1]) and abs(diff[i]) < abs(diff[i + 1])
        and abs(diff[i]) < 1e-3 * max(1.0, float(np.max(np.abs(diff))))
    ]
    return {
        "rows": rows,
        "summary": {
            "maxima_tau_over_t0": [float(taus[i] / t0) for i in maxima],
            "equality_tau_over_t0": equality,
            "steady_onset_tau_over_t0": _steady_onset(taus, rows, t0),
            "t0": t0,
        },
    }


def _steady_onset(taus: np.ndarray, rows: list, t0: float) -> float | None:
    """First tau (in T0 units) from which F_partial/N^2 varies by less than 1%
    relative over one T0 window."""
    values = np.array([row["f_partial_per_n2"] for row in rows])
    for i in range(len(taus)):
        if taus[i] + t0 > taus[-1] + 1e-12:
            break  # window would run past the sweep; no verdict there
        window = values[(taus >= taus[i]) & (taus <= taus[i] + t0)]
        if window.size < 2:
            continue
        mean = float(np.mean(window))
        if mean > 0 and (np.max(window) - np.min(window)) / mean < 0.01:
            return float(taus[i] / t0)
    return None


def run_oracle_check(cfg: ScanConfig, seed: int = 0) -> dict:
    """The oracle identity suite (`oracle.identity_suite`) for this config."""
    report = identity_suite(cfg.params(), cfg["oracle.n_max"], cfg["oracle.inject_fault"], seed)
    return {"version": FORMAT_VERSION, **report}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _echo_lines(cfg: ScanConfig, extra: dict | None = None) -> list[str]:
    params = cfg.params()
    lines = [
        CSV_HEADER,
        f"# mass = {_fmt(params.mass)}",
        f"# hbar = {_fmt(params.hbar)}",
        f"# trap_frequency = {_fmt(params.trap_frequency)}",
        f"# ring_radius = {_fmt(params.ring_radius)}",
        f"# rotation_rate = {_fmt(params.rotation_rate)}",
        f"# profile = {cfg['profile.kind']}",
        f"# state = {cfg['state.kind']} alpha = {_fmt(cfg['state.alpha_re'])}{cfg['state.alpha_im']:+}j n = {cfg['state.n']}",
        "# qfi_unit = time^2 (QCRB: Var(Omega_hat) >= 1 / (F * repetitions))",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


def rows_to_csv(rows: list[dict], cfg: ScanConfig, extra: dict | None = None) -> str:
    out = io.StringIO()
    for line in _echo_lines(cfg, extra):
        out.write(line + "\n")
    if rows:
        fields = [f for f in ROW_FIELDS if f in rows[0]]
        fields += [f for f in rows[0] if f not in ROW_FIELDS]
        out.write(",".join(fields) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[f]) for f in fields) + "\n")
    return out.getvalue()


def result_to_json(result: dict, cfg: ScanConfig) -> str:
    params = cfg.params()
    payload = {
        "version": FORMAT_VERSION,
        "physical": {
            "mass": params.mass,
            "hbar": params.hbar,
            "trap_frequency": params.trap_frequency,
            "ring_radius": params.ring_radius,
            "rotation_rate": params.rotation_rate,
        },
        "state": {
            "kind": cfg["state.kind"],
            "alpha_re": cfg["state.alpha_re"],
            "alpha_im": cfg["state.alpha_im"],
            "n": cfg["state.n"],
        },
        "qfi_unit": "time^2",
        **result,
    }
    return _dumps(payload)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_result(command: str, result: dict, cfg: ScanConfig, fmt: str) -> str:
    """One subcommand's result as `fmt` ("csv" or "json") text: a scan result,
    an oracle report, or the key/value pairs of `coeffs` and `qfi`."""
    if command.startswith("scan-"):
        if fmt == "json":
            return result_to_json(result, cfg)
        return rows_to_csv(result["rows"], cfg, extra=result["summary"])
    if command == "oracle-check":
        if fmt == "json":
            return _dumps(result)
        extra = {"seed": result["seed"], "n_max": result["n_max"]}
        return (
            rows_to_csv(result["identities"], cfg, extra)
            + f"# all_passed = {_fmt(result['all_passed'])}\n"
        )
    if fmt == "json":
        return _dumps({"version": FORMAT_VERSION, **result})
    lines = _echo_lines(cfg) + ["key,value"]
    lines.extend(f"{key},{_fmt(value)}" for key, value in result.items())
    return "\n".join(lines) + "\n"
