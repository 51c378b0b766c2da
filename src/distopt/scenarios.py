"""Scenario configuration, presets, and experiment orchestration.

A scenario is a JSON-compatible dict (see README for the schema) that
fully determines one run: topology, per-agent costs, gains, communication
scheme, horizon, step, sampling stride, seed, and initial conditions.
Parsing materializes the initial state immediately, so a scenario plus its
seed reproduces bit-identical outputs.  A :class:`Scenario` is frozen and
validated when built, so the modules that run it check nothing again.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _rng, certificates, diagnostics, dynamics, schedulers
from .certificates import AnalysisOptions
from .costs import CostModel, NetworkCost, catalog, network_cost, quadratic_cost
from .errors import NumericalBlowup, ValidationError
from .graph import WeightedDigraph, load_graph, build_digraph, preset_graph

DEFAULT_H = 1e-3
DEFAULT_STRIDE = 10
DEFAULT_SEED = 42
DEFAULT_BOX = (-5.0, 5.0)

FIELDS = ("name", "graph", "switching", "costs", "alpha", "beta", "scheme", "t_final", "h",
          "stride", "seed", "x0", "v0", "analysis", "out")  # a scenario's top-level fields
PRESET_NAMES = ("fig1a", "fig1b", "fig1c", "fig3a", "fig3b", "fig4a", "fig4b", "fig5")
SWITCHING_SET = ("fig2", "fig2r3", "fig2r7")


def grid_steps(span: float, h: float, name: str) -> int:
    """Number of steps of size ``h`` in ``span``; raises ValidationError
    naming ``name`` unless ``span`` is a positive multiple of ``h``."""
    steps = round(span / h) if math.isfinite(span / h) else 0
    if steps < 1 or abs(steps * h - span) > 1e-9:
        raise ValidationError(f"{name} {span} must be a positive multiple of the step {h}")
    return steps


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully materialized run description (see module docstring), validated when built;
    ``graphs``, ``step``, ``n_steps`` and ``network`` resolve the run it describes."""

    name: str
    costs: tuple[CostModel, ...]
    alpha: float
    beta: float
    scheme: schedulers.CommScheme
    t_final: float
    h: float
    stride: int
    seed: int
    x0: np.ndarray
    v0: np.ndarray
    graph: WeightedDigraph | None = None
    schedule: dynamics.SwitchingSchedule | None = None
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    out_dir: str | None = None
    network: NetworkCost = field(init=False, repr=False)
    n_steps: int = field(init=False, repr=False)  # steps of size step to t_final

    def __post_init__(self):
        if not isinstance(self.scheme, schedulers.CommScheme):
            raise ValidationError(f"scheme {self.scheme!r} is not a schedulers.CommScheme")
        if (self.graph is None) == (self.schedule is None):
            raise ValidationError("exactly one of graph/schedule must be set")
        if not self.t_final > 0:
            raise ValidationError(f"t_final must be positive, got {self.t_final}")
        if not self.h > 0:
            raise ValidationError(f"h must be positive, got {self.h}")
        dynamics.AlgorithmParams(self.alpha, self.beta)  # raises unless both are positive
        object.__setattr__(self, "n_steps", grid_steps(self.t_final, self.step, "t_final"))
        if self.schedule is not None:
            grid_steps(self.schedule.dwell, self.step, "switching.dwell")
        if self.scheme.kind == "periodic":
            schedulers.period_steps(self.scheme.delta, self.h)
        if self.stride < 1:
            raise ValidationError(f"stride must be at least 1, got {self.stride}")
        try:
            object.__setattr__(self, "network", network_cost(self.costs))
        except ValidationError as exc:
            raise ValidationError(f"costs: {exc}") from None
        n, d = self.network.n_agents, self.network.dim
        for g in self.graphs:
            if g.n != n:
                raise ValidationError(f"graph has {g.n} nodes but {n} costs given")
        for name, eps in (("scheme.eps", getattr(self.scheme, "eps", None)),
                          ("analysis.eps_vec", self.analysis.eps_vec)):
            if eps is not None and len(eps) != n:
                raise ValidationError(f"{name} has {len(eps)} entries but there are {n} agents")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(n, d))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float).reshape(n, d))
        vsum = np.abs(self.v0.sum(axis=0)).max()
        if vsum > 1e-12 * max(1.0, float(np.abs(self.v0).max())):
            raise ValidationError(f"v0 must sum to zero per coordinate, |sum| = {vsum:.3e}")

    @property
    def graphs(self) -> tuple[WeightedDigraph, ...]:
        """The fixed graph as a 1-tuple, or the switching schedule's graphs."""
        return (self.graph,) if self.schedule is None else self.schedule.graphs

    @property
    def step(self) -> float:
        """The integration step: ``h``, or ``delta`` for an Euler scheme."""
        return float(self.scheme.delta if self.scheme.kind == "euler" else self.h)


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """``value`` if it is a ``kind``, or a ValidationError naming the field ``where``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{where} must be {_KINDS[kind]}, got {value!r}")
    return value


def _required(spec: dict, key: str, where: str):
    """``spec[key]``, or a ValidationError naming the field ``where``."""
    if key not in spec:
        raise ValidationError(f"{where} is missing")
    return spec[key]


def _known(spec: dict, keys, where: str) -> dict:
    """``spec``, or a ValidationError naming its first field outside ``keys``, prefixed ``where``."""
    if unknown := [key for key in spec if key not in keys]:
        raise ValidationError(f"{where}{unknown[0]} is not a known field; known: {', '.join(keys)}")
    return spec


def _one_of(spec: dict, keys, where: str) -> str | None:
    """The one of ``keys`` in ``spec`` (None if none), or a ValidationError naming two in it."""
    given = [key for key in keys if key in spec]
    if len(given) > 1:
        raise ValidationError(f"{where}{given[0]} and {where}{given[1]} exclude each other")
    return given[0] if given else None


def _real(value) -> bool:
    """Whether ``value`` is a number: a JSON string or boolean is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _number(value, where: str, cast=float):
    """``cast(value)``, or a ValidationError naming the field ``where``; with
    ``cast=int`` a fractional value is refused, not rounded, and inf and NaN always."""
    try:
        if not _real(value) or cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        if math.isfinite(out := cast(value)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{where} must be a finite number ({cast.__name__}), got {value!r}")


def _floats(spec, where: str) -> np.ndarray:
    """``spec`` as a finite float array, or a ValidationError naming the field ``where``."""
    try:
        arr = np.asarray(spec, dtype=float)
        if np.isfinite(arr).all() and all(map(_real, np.asarray(spec, dtype=object).flat)):
            return arr
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{where} must be a list of finite numbers, got {spec!r}")


def _cost_from_dict(spec: dict, where: str) -> CostModel:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "catalog":
        _known(spec, ("kind", "name"), f"{where}.")
        return catalog(_typed(_required(spec, "name", f"{where}.name"), str, f"{where}.name"))
    if kind == "quadratic":
        _known(spec, ("kind", "a", "b"), f"{where}.")
        a = _floats(_required(spec, "a", f"{where}.a"), f"{where}.a")
        if a.ndim > 1 or not a.size:
            raise ValidationError(f"{where}.a must be a flat, non-empty list, got {spec['a']!r}")
        return quadratic_cost(a, _number(spec.get("b", 0.0), f"{where}.b"))
    raise ValidationError(f"unknown cost kind {kind!r} in {where} = {spec!r}")


def _graph_from_dict(spec: dict, where: str) -> WeightedDigraph:
    source = _one_of(_typed(spec, dict, where), ("preset", "file", "edges"), f"{where}.")
    if source is None:
        raise ValidationError(f"graph spec needs 'preset', 'file' or 'edges': {spec}")
    _known(spec, ("n", "edges") if source == "edges" else (source,), f"{where}.")
    if source == "preset":
        return preset_graph(_typed(spec["preset"], str, f"{where}.preset"))
    if source == "file":
        return load_graph(_typed(spec["file"], str, f"{where}.file"))
    n = _number(_required(spec, "n", f"{where}.n"), f"{where}.n", int)
    edges = _typed(spec["edges"], list, f"{where}.edges")
    if n > max(1, len(edges)):  # checked before build_digraph allocates n x n weights
        raise ValidationError(f"{where}.n = {n} needs at least n edges to be strongly "
                              f"connected, got {len(edges)}")
    return build_digraph(n, [_edge(e, f"{where}.edges[{k}]") for k, e in enumerate(edges)])


def _edge(spec, where: str) -> tuple[int, int, float]:
    """A 1-based (receiver, sender, weight) triple, or a ValidationError naming ``where``."""
    if not (isinstance(spec, list) and len(spec) == 3):
        raise ValidationError(f"{where} must be a [receiver, sender, weight] triple, got {spec!r}")
    return _number(spec[0], where, int), _number(spec[1], where, int), _number(spec[2], where)


def _box(spec, where: str) -> tuple[float, float]:
    """``(lo, hi)`` with ``lo < hi`` from a two-number list, or a ValidationError naming ``where``."""
    box = _floats(spec, where)
    if not (box.shape == (2,) and box[0] < box[1]):
        raise ValidationError(f"{where} {spec!r} is not a [lo, hi] pair with lo < hi")
    return float(box[0]), float(box[1])


def _draw_initial(spec, n: int, d: int, seed: int) -> np.ndarray:
    """``spec``'s states, or ``np.random.default_rng(seed).uniform(lo, hi, (n, d))`` over its box."""
    if spec is None or isinstance(spec, dict):
        lo, hi = DEFAULT_BOX if spec is None else _box(
            _required(_known(spec, ("box",), "x0."), "box", "x0.box"), "x0.box")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"x0.box [{lo}, {hi}] is wider than the largest float")
        return np.reshape(_rng.uniform(seed, lo, hi, n * d), (n, d))
    return _state(spec, n, d, "x0")


def _state(spec, n: int, d: int, where: str) -> np.ndarray:
    """An (n, d) array from ``n d`` numbers, or a ValidationError naming ``where``."""
    arr = _floats(spec, where)
    if arr.size != n * d:
        raise ValidationError(f"{where} has {arr.size} entries, expected {n * d}")
    return arr.reshape(n, d)


def _scheme_from_dict(spec, n: int) -> schedulers.CommScheme:
    """The scheme of a ``{"kind": ..., <fields>}`` spec, or a ValidationError naming
    ``scheme.<field>``; a scalar eps broadcasts to all ``n`` agents."""
    kind = _required(_typed(spec, dict, "scheme"), "kind", "scheme.kind")
    if not (isinstance(kind, str) and kind in schedulers.SCHEMES):
        raise ValidationError(f"scheme.kind {kind!r} is unknown; known: "
                              f"{', '.join(schedulers.SCHEMES)}")
    cls = schedulers.SCHEMES[kind]
    names = [f.name for f in fields(cls)]
    _known(spec, ("kind", *names), "scheme.")
    args = {}
    for name in names:
        value, where = _required(spec, name, f"scheme.{name}"), f"{kind} {name} (scheme.{name})"
        if name == "eps":
            eps = _floats(value, where)
            args[name] = np.full(n, eps) if eps.ndim == 0 else eps
        else:
            args[name] = _number(value, where)
    return cls(**args)


def scenario_from_dict(cfg: dict, seed: int | None = None) -> Scenario:
    """Validate and materialize a scenario dict.

    ``seed`` overrides the seed in the dict (used by the CLI's --seed).
    Raises ValidationError naming the offending field, also for a field the schema
    does not know and for two that exclude each other.
    """
    _known(cfg, FIELDS, "")
    if not (isinstance(cfg.get("costs"), list) and cfg["costs"]):
        raise ValidationError(f"scenario needs a non-empty 'costs' list, got {cfg.get('costs')!r}")
    costs = tuple(_cost_from_dict(c, f"costs[{i}]") for i, c in enumerate(cfg["costs"]))
    n = len(costs)
    d = costs[0].dim
    graph = schedule = None
    if _one_of(cfg, ("graph", "switching"), "") == "switching":
        sw = _known(_typed(cfg["switching"], dict, "switching"), ("presets", "graphs", "dwell"),
                    "switching.")
        key = _one_of(sw, ("presets", "graphs"), "switching.") or "graphs"
        specs = enumerate(_typed(_required(sw, key, f"switching.{key}"), list, f"switching.{key}"))
        graphs = tuple(preset_graph(_typed(g, str, f"switching.presets[{i}]")) if key == "presets"
                       else _graph_from_dict(g, f"switching.graphs[{i}]") for i, g in specs)
        schedule = dynamics.SwitchingSchedule(
            graphs=graphs,
            dwell=_number(_required(sw, "dwell", "switching.dwell"), "switching.dwell"),
        )
    elif "graph" in cfg:
        graph = _graph_from_dict(cfg["graph"], "graph")
    else:
        raise ValidationError("scenario needs 'graph' or 'switching'")

    scheme = _scheme_from_dict(cfg.get("scheme", {"kind": "continuous"}), n)
    use_seed = _number(cfg.get("seed", DEFAULT_SEED), "seed", int) if seed is None else int(seed)
    if use_seed < 0:
        raise ValidationError(f"seed must be non-negative, got {use_seed}")
    x0 = _draw_initial(cfg.get("x0"), n, d, use_seed)
    v0 = np.zeros((n, d)) if cfg.get("v0") is None else _state(cfg["v0"], n, d, "v0")
    ana = _known(_typed(cfg.get("analysis", {}), dict, "analysis"),
                 [f.name for f in fields(AnalysisOptions)], "analysis.")
    analysis = AnalysisOptions(
        eps=_number(ana.get("eps", 0.5), "analysis.eps"),
        delta=_number(ana.get("delta", 1.0), "analysis.delta"),
        phi=None if ana.get("phi") is None else _number(ana["phi"], "analysis.phi"),
        box=None if ana.get("box") is None else _box(ana["box"], "analysis.box"),
        eps_vec=(None if ana.get("eps_vec") is None
                 else tuple(_floats(ana["eps_vec"], "analysis.eps_vec").ravel().tolist())),
    )
    return Scenario(
        name=str(cfg.get("name", "scenario")),
        costs=costs,
        alpha=_number(cfg.get("alpha", 1.0), "alpha"),
        beta=_number(cfg.get("beta", 1.0), "beta"),
        scheme=scheme,
        t_final=_number(cfg.get("t_final", 40.0), "t_final"),
        h=_number(cfg.get("h", DEFAULT_H), "h"),
        stride=_number(cfg.get("stride", DEFAULT_STRIDE), "stride", int),
        seed=use_seed,
        x0=x0,
        v0=v0,
        graph=graph,
        schedule=schedule,
        analysis=analysis,
        out_dir=None if cfg.get("out") is None else _typed(cfg["out"], str, "out"),
    )


def parse_scenario(path, seed: int | None = None) -> Scenario:
    """Load a scenario JSON file; malformed files raise ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return scenario_from_dict(cfg, seed=seed)


def preset_dict(name: str) -> dict:
    """JSON-compatible configuration of a named experiment preset.

    All presets run the ten catalog costs on the 10-node digraph (or the
    three-graph switching set) with seeded initial conditions; the Euler
    comparison pair starts inside [-0.5, 0.5] where the explicit update is
    stable for the quartic cost.
    """
    base = {
        "name": name,
        "costs": [{"kind": "catalog", "name": f"f{i}"} for i in range(1, 11)],
        "alpha": 1.0,
        "h": DEFAULT_H,
        "stride": DEFAULT_STRIDE,
        "seed": DEFAULT_SEED,
        "x0": {"box": list(DEFAULT_BOX)},
        "t_final": 60.0,
    }
    if name in ("fig1a", "fig1b", "fig1c"):
        return base | {
            "switching": {"presets": list(SWITCHING_SET), "dwell": 2.0},
            "beta": {"fig1a": 0.5, "fig1b": 1.0, "fig1c": 5.0}[name],
            "scheme": {"kind": "continuous"},
        }
    fixed = base | {"graph": {"preset": "fig2"}, "beta": 1.0}
    euler_box = {"x0": {"box": [-0.5, 0.5]}}
    if name == "fig3a":
        return fixed | {"scheme": {"kind": "periodic", "delta": 0.5}}
    if name == "fig3b":
        return fixed | {"beta": 0.5, "scheme": {"kind": "periodic", "delta": 1.0}}
    if name == "fig4a":
        return fixed | euler_box | {"beta": 2.0, "scheme": {"kind": "periodic", "delta": 0.2}}
    if name == "fig4b":
        return fixed | euler_box | {"scheme": {"kind": "euler", "delta": 0.2}, "stride": 1}
    if name == "fig5":
        return fixed | {"scheme": {"kind": "distributed_event", "eps": 0.002},
                        "t_final": 40.0, "h": 2e-4, "stride": 50}
    raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def presets(name: str) -> Scenario:
    """Materialize a named preset (see :func:`preset_dict`)."""
    return scenario_from_dict(preset_dict(name))


def run(scenario: Scenario, out_dir=None, with_certificate: bool = False) -> dict:
    """Execute a scenario and write trace.csv, events.csv and summary.json.

    Returns the summary dict.  With ``with_certificate`` the certificate is
    evaluated first, and the output directory is created only once there
    is a trace to write, so a certificate or validation error leaves no
    output directory behind.  On numerical blowup the partial outputs, with
    the certificate, are still written and the exception re-raised for the
    caller to map to an exit status.
    """
    certificate = vars(certificates.certify(scenario)) if with_certificate else None
    out = Path(out_dir if out_dir is not None else (scenario.out_dir or "out"))
    t0 = time.perf_counter()
    try:
        trace = dynamics.simulate(scenario)
    except NumericalBlowup as exc:
        if exc.trace is not None:
            _write_outputs(exc.trace, scenario, out, time.perf_counter() - t0, "blowup",
                           certificate)
        raise
    return _write_outputs(trace, scenario, out, time.perf_counter() - t0, "ok", certificate)


def _write_outputs(trace, scenario, out: Path, wall: float, status: str,
                   certificate: dict | None) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    trace.events_to_csv(out / "events.csv")
    stats = schedulers.event_stats(trace)
    summary = {
        "name": scenario.name,
        "status": status,
        "scheme": {"kind": scenario.scheme.kind} | vars(scenario.scheme),
        "alpha": scenario.alpha,
        "beta": scenario.beta,
        "h": trace.h,
        "realized_period": (schedulers.period_steps(scenario.scheme.delta, trace.h) * trace.h
                            if scenario.scheme.kind == "periodic" else None),
        "t_final": scenario.t_final,
        "seed": scenario.seed,
        "x_star": trace.x_star,
        "final_errors": trace.err[-1] if trace.t.size else [],
        "event_counts": stats.counts,
        "min_inter_event": stats.min_gaps,
        "global_min_gap": stats.global_min_gap,
        "zeno_flag": stats.zeno_flag,
        "conservation_max": diagnostics.conservation_violation(trace) if trace.t.size else None,
        "wall_time_s": wall,
    }
    if certificate is not None:
        summary["certificate"] = certificate
    summary = jsonable(summary)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return summary


def jsonable(value):
    """``value`` as JSON data for ``summary.json`` and ``sim certify``: dicts, lists,
    tuples and arrays recursed into, a numpy scalar as the Python number (``.item()``)
    and each non-finite float as None (null), so the JSON is strict."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value
