"""Per-layer spans around dimred's public functions, installed from outside.

The tracer replaces module attributes of the imported ``dimred`` package with
timing wrappers.  dimred calls its own layers through module globals
(``manybody.evolve`` calls ``hamiltonian``, ``run_sweep`` calls ``run_point``),
so nested calls are caught too.  Nothing under ``src/`` is modified on disk.

A span's inclusive time is counted once per outermost call of that name (a
recursive ``lanczos_expm`` is not double counted); its self time is its
inclusive time minus the inclusive time of the wrapped calls inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# metric prefix -> (module, attribute path).  A missing attribute (a layer a
# later change deleted) is skipped and reports zero calls.
LAYERS = {
    "manybody.hamiltonian": ("manybody", "hamiltonian"),
    "manybody.one_body_operator": ("manybody", "one_body_operator"),
    "manybody.lanczos_expm": ("manybody", "lanczos_expm"),
    "manybody.pair_blocks": ("manybody", "pair_blocks"),
    "manybody.FockBasis": ("manybody", "FockBasis"),
    "manybody.build_basis": ("manybody", "build_basis"),
    "manybody.build_grid_matched_basis": ("manybody", "build_grid_matched_basis"),
    "manybody.evolve": ("manybody", "evolve"),
    "manybody.reduced_density": ("manybody", "reduced_density"),
    "manybody.GridOracle.evolve": ("manybody", "GridOracle.evolve"),
    "projectors.alpha": ("projectors", "alpha"),
    "projectors.alpha_n2_expectation": ("projectors", "alpha_n2_expectation"),
    "projectors.trace_distance": ("projectors", "trace_distance"),
    "nls.evolve": ("nls", "evolve"),
    "auxiliary.discrepancy_gamma": ("auxiliary", "discrepancy_gamma"),
    "transverse.solve_modes": ("transverse", "solve_modes"),
    "harness.run_point": ("harness", "run_point"),
    "harness.write_csv": ("harness", "write_csv"),
}


class _Frame:
    __slots__ = ("name", "start", "child_s", "matvecs", "recursed")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.matvecs = 0
        self.recursed = False


class Tracer:
    """Aggregated spans plus the counters the benchmark reports per layer.

    ``points`` holds one record per ``harness.run_point`` call with the inputs
    and outputs the oracle checks need (initial and final N-body amplitudes,
    the t = 0 Hamiltonian, the final NLS state).
    """

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.incl_s = {name: 0.0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.matvecs_useful = 0
        self.matvecs_wasted = 0
        self.h_nnz_max = 0
        self.fock_dim_max = 0
        self.csv_bytes = 0
        self.points = []
        self.work_start = self.work_start_monotonic = self.setup_self_s = None
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        if name == "manybody.lanczos_expm" and self._stack and self._stack[-1].name == name:
            self._stack[-1].recursed = True
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        self._stack.pop()
        self.self_s[frame.name] += elapsed - frame.child_s
        if self._stack:
            self._stack[-1].child_s += elapsed
        if not any(f.name == frame.name for f in self._stack):
            self.calls[frame.name] += 1
            self.incl_s[frame.name] += elapsed
        if frame.name == "manybody.lanczos_expm":
            # an attempt that had to halve its step threw its Krylov basis away
            if frame.recursed:
                self.matvecs_wasted += frame.matvecs
            else:
                self.matvecs_useful += frame.matvecs

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- points ----------------------------------------------------------------

    def open_point(self, n_particles: int) -> None:
        """Start a point record; the first one ends set-up."""
        now = time.perf_counter()
        if not self.points:
            self.work_start = now
            self.work_start_monotonic = time.monotonic()
            self.setup_self_s = self.total_self_s()
        self.points.append({"n": int(n_particles), "open": True, "start": now})

    def close_point(self) -> None:
        point = self.points[-1]
        point["open"] = False
        point["traced_s"] = time.perf_counter() - point["start"]

    @property
    def point(self):
        """The record of the sweep point being run, if any."""
        return self.points[-1] if self.points and self.points[-1]["open"] else None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer of the imported dimred package."""
        from dimred import auxiliary, harness, manybody, nls, projectors, transverse  # noqa: F401

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dimred" or name.startswith("dimred.")}
        for name, (mod_name, path) in LAYERS.items():
            owner = modules["dimred." + mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrapper(name, orig)
            if outer:
                self._set(owner, attr, wrapped)
                continue
            # rebind every module-level alias (`from .manybody import ...`)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, name: str, orig):
        if isinstance(orig, type):
            return self._wrap_class(name, orig)
        tracer = self
        key = name.replace(".", "_")
        before, after, always = (getattr(self, f"_{kind}_{key}", None)
                                 for kind in ("before", "after", "finally"))

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = tracer._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if always is not None:
                    always()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_class(self, name: str, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                frame = tracer._enter(name)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                tracer.fock_dim_max = max(tracer.fock_dim_max, self.dim)

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    # -- per-layer hooks -------------------------------------------------------

    def _before_manybody_lanczos_expm(self, args, kwargs):
        apply_h = args[0] if args else kwargs["apply_h"]
        if getattr(apply_h, "_counted", False):
            return args, kwargs
        tracer = self

        def counted(x):
            tracer._stack[-1].matvecs += 1
            return apply_h(x)

        counted._counted = True
        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, apply_h=counted)

    # _before_* may replace the arguments, _after_* sees the result of a call
    # that returned, _finally_* runs after every call.

    def _after_manybody_hamiltonian(self, args, kwargs, h):
        self.h_nnz_max = max(self.h_nnz_max, int(h.nnz))
        point = self.point
        t = args[2] if len(args) > 2 else kwargs.get("t", 0.0)
        if point is not None and t == 0.0 and "h0" not in point:
            point["h0"] = h
            point["nnz"] = int(h.nnz)

    def _before_harness_run_point(self, args, kwargs):
        self.open_point(args[1].n_particles)
        return args, kwargs

    def _finally_harness_run_point(self):
        self.close_point()

    def _before_manybody_evolve(self, args, kwargs):
        point = self.point
        if point is not None:
            state, basis = args[0], args[1]
            point.update(psi0=state.amplitudes.copy(), fock=state.fock, basis=basis,
                         modes=int(basis.n_modes), fock_dim=int(state.fock.dim))
        return args, kwargs

    def _after_manybody_evolve(self, args, kwargs, traj):
        point = self.point
        if point is not None:
            point["psi_t"] = traj.final.amplitudes.copy()
            point["t_final"] = float(traj.final.time)

    def _after_nls_evolve(self, args, kwargs, traj):
        point = self.point
        if point is not None:
            point.update(phi_t=traj.final, external=args[1], b_eff=args[2])

    def _after_harness_write_csv(self, args, kwargs, result):
        self.csv_bytes = os.path.getsize(args[1])

    # -- report ----------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics, name -> [value, unit], for a traced run whose
        measured region (after set-up) took ``wall_s``."""
        m = {}
        for name in LAYERS:
            if name in ("manybody.evolve", "harness.run_point"):
                m[name + ".self_s"] = [self.self_s[name], "s"]
            else:
                m[name + ".s"] = [self.incl_s[name], "s"]
        n_points = max(len(self.points), 1)
        matvecs = self.matvecs_useful + self.matvecs_wasted
        m.update({
            "manybody.assembly.s": [self.incl_s["manybody.hamiltonian"]
                                    + self.incl_s["manybody.pair_blocks"], "s"],
            "manybody.basis.s": [self.incl_s["manybody.build_basis"]
                                 + self.incl_s["manybody.build_grid_matched_basis"], "s"],
            "manybody.hamiltonian.calls": [self.calls["manybody.hamiltonian"], "count"],
            "manybody.hamiltonian.nnz": [self.h_nnz_max, "count"],
            "manybody.hamiltonian.calls_per_point": [
                self.calls["manybody.hamiltonian"] / n_points, "calls/point"],
            "manybody.one_body_operator.calls": [self.calls["manybody.one_body_operator"],
                                                 "count"],
            "manybody.lanczos_expm.matvecs": [matvecs, "count"],
            "manybody.lanczos_expm.useful_frac": [
                self.matvecs_useful / matvecs if matvecs else 0.0, "ratio"],
            "manybody.fock_dim.max": [self.fock_dim_max, "count"],
            "harness.csv_bytes": [self.csv_bytes, "B"],
            "trace.wall_s": [wall_s, "s"],
            "trace.unaccounted_s": [wall_s - (self.total_self_s() - self.setup_self_s), "s"],
        })
        return m
