"""Workloads, measurement loop, correctness checks and metric derivation.

Import this module only after the BLAS thread variables are pinned (see
run.py); it imports NumPy and the pcup package from the checkout's src/.
Every pcup function is called through its module attribute at call time,
so the span wrappers in spans.py see the benchmark's own calls as well
as the package's internal ones.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pcup  # noqa: E402
import pcup.checkpoint  # noqa: E402
import pcup.experiments  # noqa: E402
import pcup.mesh  # noqa: E402
import pcup.meshio  # noqa: E402
import pcup.metrics  # noqa: E402
import pcup.network  # noqa: E402
import pcup.sampling  # noqa: E402
import pcup.synthetic  # noqa: E402
import pcup.training  # noqa: E402
from pcup.rng import STREAM_REFERENCE, derive_seed  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402

if Path(pcup.__file__).resolve().parent != SRC / "pcup":
    raise ImportError(f"pcup imported from {pcup.__file__}, not from {SRC}")

RADIUS = 0.03
# Initialization and batch order use one fixed seed; --seed picks the
# shapes, surface samples, inputs and split.  With the init seed varying
# too, held-out Chamfer after a few desk epochs spread 1.6e-2..3.5e-2
# over four seeds, against 1.7e-2..2.0e-2 with it fixed.
MODEL_SEED = 0
# Set up at least MIN_SETUPS times and until SETUP_BUDGET_S has passed
# (at most MAX_SETUPS); setup_s is the median.
MIN_SETUPS = 3
MAX_SETUPS = 10
SETUP_BUDGET_S = 3.0
MIN_REPEATS = 2
ORACLE_CAPTURES = 8
# Measured times are CPU time of this single-threaded process (wall time
# less the time other processes held its core) minus the time spent in
# the host speed kernel.  Run budgets (--seconds, SETUP_BUDGET_S) stay in
# wall time.  The metronome runs only in untraced runs, so that spans
# hold no kernel time.
METRONOME = hostspeed.Metronome(enabled=False)
clock = METRONOME.program_time


@dataclass
class Workload:
    name: str
    kind: str                  # "train": timed training; "eval": timed evaluation
    family: str
    count: int
    n_gt: int
    af: int
    sampling: str
    normals: bool
    paper: bool                # paper_config instead of desk_config
    epochs: int                # per repeat ("train"), of the setup fit ("eval")
    dense_points: int = 16384
    overrides: dict = field(default_factory=dict)  # extra config fields

    def condition(self) -> pcup.experiments.ExperimentCondition:
        return pcup.experiments.ExperimentCondition(self.af, self.sampling,
                                                    self.normals)

    def config(self) -> pcup.training.TrainingConfig:
        make = pcup.training.paper_config if self.paper else pcup.training.desk_config
        return make(seed=MODEL_SEED, epochs=self.epochs,
                    input_dim=6 if self.normals else 3, **self.overrides)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "desk-train", kind="train", family="ellipsoid", count=200, n_gt=512, af=8,
        sampling="uniform", normals=False, paper=False, epochs=3),
    Workload(
        "paper-train", kind="train", family="lathe", count=24, n_gt=2048, af=2,
        sampling="curvature", normals=True, paper=True, epochs=3,
        overrides={"batch_size": 4}),
    Workload(
        "eval-dense", kind="eval", family="ellipsoid", count=200, n_gt=512, af=8,
        sampling="uniform", normals=False, paper=False, epochs=2),
)}

TRAIN_WORKLOADS = ("desk-train", "paper-train")
ALL_WORKLOADS = tuple(WORKLOADS)

# name -> (unit, better, workloads that report it).  setup_s and
# clouds_per_s are scaled to the reference host speed (hostspeed.py);
# clouds_per_s is the one throughput every workload has.  The other
# times are as measured on this host.
END_TO_END = {
    "setup_s": ("s", "lower", ALL_WORKLOADS),
    "setup_host_s": ("s", "lower", ALL_WORKLOADS),
    "host_speed": ("x-reference", "higher", ALL_WORKLOADS),
    "train_clouds_per_s": ("cloud-steps/s", "higher", TRAIN_WORKLOADS),
    "eval_clouds_per_s": ("clouds/s", "higher", ("eval-dense",)),
    "clouds_per_s": ("clouds/s", "higher", ALL_WORKLOADS),
    "heldout_chamfer": ("normalized", "lower", ALL_WORKLOADS),
    "dense_accuracy": ("fraction", "higher", ("eval-dense",)),
    "peak_rss_mb": ("MB", "lower", ALL_WORKLOADS),
    "error_rate": ("fraction", "lower", ALL_WORKLOADS),
}

# name -> unit.  Times are self time in one setup plus one repeat unless
# the name says per cloud; shares and counts are defined in README.md.
PER_LAYER = {
    "kdtree.build_ms": "ms", "kdtree.query_ms": "ms",
    "kdtree.build_points": "count", "kdtree.query_points": "count",
    "kdtree.train_share": "fraction", "kdtree.build_share": "fraction",
    "metrics.chamfer_grad_ms": "ms", "metrics.chamfer_ms": "ms",
    "metrics.accuracy_ms": "ms", "metrics.coverage_ms": "ms",
    "network.enc_fwd_ms": "ms", "network.dec_fwd_ms": "ms",
    "network.bwd_ms": "ms", "network.upsample_ms": "ms",
    "network.params": "count", "network.adam_train_share": "fraction",
    "training.adam_ms": "ms", "training.adam_steps": "count",
    "training.adam_bytes_per_step": "bytes-computed",
    "training.loop_self_ms": "ms", "training.val_ms": "ms",
    "sampling.sample_ms": "ms/cloud", "sampling.subsample_ms": "ms/cloud",
    "sampling.subsample_setup_share": "fraction",
    "mesh.normalize_ms": "ms", "synthetic.generate_ms": "ms",
    "meshio.save_obj_ms": "ms", "meshio.load_obj_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
    "trace_overhead_frac": "fraction",
}

# ROADMAP aim-1 baseline rows: (label, workload, source, value).  The
# source is a per-layer share, or a span whose median duration per call
# inside `train` is compared, in ms.
BASELINE = (
    ("desk enc fwd per call", "desk-train", "network.enc_fwd", 0.33),
    ("Chamfer+grad 512<->512 per call", "desk-train", "metrics.chamfer_grad", 9.4),
    ("NN share of desk training", "desk-train", "kdtree.train_share", 0.80),
    ("paper Adam step", "paper-train", "training.adam", 10.5),
)


# ---------------------------------------------------------------- environment

def _blas_libraries() -> List[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            found = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        found = set()
    if not found:
        site = Path(np.__file__).resolve().parent.parent
        found = set(glob.glob(str(site / "*.libs" / "*openblas*.so*")))
    return sorted(found)


def blas_threads() -> Dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file."""
    out = {}
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "blas_name": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------- checks

def _positions(x) -> np.ndarray:
    if isinstance(x, pcup.sampling.PointCloud):
        x = x.positions
    return np.asarray(x, dtype=np.float64)[:, :3]


def brute_nn(points: np.ndarray, queries: np.ndarray):
    """Exact nearest point by full distance rows, lowest index on ties."""
    d2_out = np.empty(len(queries))
    idx_out = np.empty(len(queries), dtype=np.int64)
    step = max(1, 1_000_000 // len(points))
    for lo in range(0, len(queries), step):
        d = queries[lo:lo + step, None, :] - points[None, :, :]
        d2 = np.einsum("bnj,bnj->bn", d, d)
        idx = d2.argmin(axis=1)
        idx_out[lo:lo + step] = idx
        d2_out[lo:lo + step] = d2[np.arange(len(idx)), idx]
    return d2_out, idx_out


def oracle_chamfer_with_gradient(a: np.ndarray, b: np.ndarray):
    d2_ab, nn_ab = brute_nn(b, a)
    d2_ba, nn_ba = brute_nn(a, b)
    grad = 2.0 * (a - b[nn_ab])
    np.add.at(grad, nn_ba, 2.0 * (a[nn_ba] - b))
    return float(d2_ab.sum() + d2_ba.sum()), grad


def oracle_accuracy(pred: np.ndarray, gt: np.ndarray, radius: float) -> float:
    d2, _ = brute_nn(gt, pred)
    return float(np.count_nonzero(d2 <= radius * radius)) / len(pred)


class Capture:
    """Keeps the arguments and results of calls 1, 2, 4, 8, ... of
    chamfer_with_gradient and accuracy for the brute-force oracle."""

    def __init__(self, patches: spans.Patches):
        self.calls = {"chamfer_with_gradient": 0, "accuracy": 0}
        self.kept = {"chamfer_with_gradient": [], "accuracy": []}
        for module, attr in (("pcup.training", "chamfer_with_gradient"),
                             ("pcup.training", "accuracy"),
                             ("pcup.metrics", "accuracy")):
            patches.set(module, attr, self._wrap(attr, patches.get(module, attr)))

    def _wrap(self, key: str, fn):
        def captured(*args):
            out = fn(*args)
            self.calls[key] += 1
            n = self.calls[key]
            if n & (n - 1) == 0 and len(self.kept[key]) < ORACLE_CAPTURES:
                self.kept[key].append(
                    (_positions(args[0]).copy(), _positions(args[1]).copy(),
                     args[2:], out))
            return out
        return captured

    def verify(self, checks: "Checks") -> None:
        for a, b, _, (value, grad) in self.kept["chamfer_with_gradient"]:
            ref_value, ref_grad = oracle_chamfer_with_gradient(a, b)
            checks.add("oracle chamfer_with_gradient value",
                       abs(value - ref_value) <= 1e-9 * max(1.0, abs(ref_value)),
                       f"{len(a)}<->{len(b)}: {value!r} vs {ref_value!r}")
            checks.add("oracle chamfer_with_gradient gradient",
                       np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-12),
                       f"{len(a)}<->{len(b)}")
        for pred, gt, (radius,), value in self.kept["accuracy"]:
            ref = oracle_accuracy(pred, gt, radius)
            checks.add("oracle accuracy", value == ref,
                       f"{len(pred)} vs {len(gt)}: {value!r} vs {ref!r}")


@dataclass
class Checks:
    results: List[Tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def _ticking(fn):
    """fn, followed by a metronome tick."""
    def ticking(*args, **kwargs):
        out = fn(*args, **kwargs)
        METRONOME.tick()
        return out
    ticking.__wrapped__ = fn
    return ticking


# ---------------------------------------------------------------- workload steps

@dataclass
class EvalPass:
    model: str
    chamfer: float
    accuracy: float
    coverage: float
    dense_accuracy: Optional[float]
    clouds: int
    seconds: float


@dataclass
class Prepared:
    split: pcup.training.DatasetSplit
    refs: List[np.ndarray]          # dense references ("eval" workloads)
    cfg: pcup.training.TrainingConfig
    models: dict = field(default_factory=dict)   # name -> (encoder, decoder)
    fit_losses: List[float] = field(default_factory=list)


@dataclass
class Repeat:
    epoch_s: List[float]
    losses: List[float]
    passes: List[EvalPass]
    digest: str
    params: int


def param_digest(enc, dec) -> Tuple[str, int]:
    """SHA-256 over every parameter array and running statistic, and the
    number of trainable parameters."""
    arrays = pcup.network.trainable_arrays(enc, dec)
    h = hashlib.sha256()
    for a in arrays + [s for L in enc.layers for s in (L.running_mean, L.running_var)]:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest(), sum(a.size for a in arrays)


def timed_train(cfg, split):
    """Train and return (result, seconds of every epoch).  Validation
    after the last epoch falls outside the epoch times."""
    stamps = [clock()]
    result = pcup.training.train(
        cfg, split, progress=lambda epoch, loss: stamps.append(clock()))
    return result, list(np.diff(stamps))


def setup(w: Workload, seed: int, workdir: Path) -> Prepared:
    cfg = w.config()
    cond = w.condition()
    meshes = pcup.synthetic.generate_category(w.family, w.count, seed)
    if w.kind == "eval":
        # `pcup eval` reads its meshes from OBJ files.
        for i, mesh in enumerate(meshes):
            pcup.meshio.save_obj(workdir / f"{i:03d}.obj", mesh)
        meshes = [pcup.meshio.load_obj(workdir / f"{i:03d}.obj")
                  for i in range(len(meshes))]
    bank = pcup.experiments.build_bank(meshes, w.n_gt, seed)
    pairs = pcup.experiments.build_pairs(bank, cond, w.n_gt, seed)
    split = pcup.training.split_dataset(pairs, seed)
    prep = Prepared(split=split, refs=[], cfg=cfg)
    if w.kind == "eval":
        prep.refs = [pcup.sampling.sample_surface_uniform(
                         pcup.mesh.normalize_model(meshes[i]), w.dense_points,
                         derive_seed(seed, STREAM_REFERENCE, int(i))).positions
                     for i in split.test_indices]
        prep.models["untrained"] = pcup.network.init_params(
            input_dim=cfg.input_dim, n_out=cfg.n_out, seed=cfg.seed,
            encoder_dims=cfg.encoder_dims, decoder_hidden=cfg.decoder_hidden)
        result = pcup.training.train(cfg, split)
        prep.fit_losses = result.train_losses
        path = workdir / "model.ckpt"
        pcup.checkpoint.save_checkpoint(path, pcup.checkpoint.Checkpoint(
            encoder=result.encoder, decoder=result.decoder, seed=cfg.seed,
            config={"training": cfg.to_dict(), "condition": cond.to_dict()}))
        ckpt = pcup.checkpoint.load_checkpoint(path)
        prep.models["fitted"] = (ckpt.encoder, ckpt.decoder)
    return prep


def evaluate_model(name: str, enc, dec, prep: Prepared) -> EvalPass:
    """evaluate() on the test split, then, where the workload has dense
    references, accuracy against each test shape's reference, as
    criterion 09 does."""
    start = clock()
    report = pcup.training.evaluate(enc, dec, prep.split.test, RADIUS)
    dense = [pcup.metrics.accuracy(pcup.network.upsample(enc, dec, inp).positions,
                                   ref, RADIUS)
             for (inp, _), ref in zip(prep.split.test, prep.refs)]
    seconds = clock() - start
    return EvalPass(name, report.chamfer_loss, report.accuracy, report.coverage,
                    float(np.mean(dense)) if dense else None,
                    len(prep.split.test), seconds)


def repeat(w: Workload, prep: Prepared) -> Repeat:
    if w.kind == "train":
        result, epoch_s = timed_train(prep.cfg, prep.split)
        enc, dec = result.encoder, result.decoder
        passes = [evaluate_model("trained", enc, dec, prep)]
        losses = result.train_losses
    else:
        epoch_s, losses = [], []
        passes = [evaluate_model(name, *prep.models[name], prep)
                  for name in ("untrained", "fitted")]
        enc, dec = prep.models["fitted"]
    digest, n_params = param_digest(enc, dec)
    return Repeat(epoch_s, losses, passes, digest, n_params)


def repeat_ops(w: Workload, prep: Prepared) -> int:
    """Cloud steps plus evaluated clouds that one repeat attempts."""
    n_test = len(prep.split.test)
    if w.kind == "train":
        return len(prep.split.train) * prep.cfg.epochs + n_test
    return 2 * n_test


# ---------------------------------------------------------------- run

def _median(values) -> Optional[float]:
    return float(statistics.median(values)) if values else None


class Runner:
    """One workload process: set up, repeat, check, derive metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.checks = Checks()
        self.recorder = spans.SpanRecorder()
        self.errors: List[str] = []
        self.attempted = 0
        self.failed_ops = 0
        self.setup_s: List[float] = []
        self.preps: List[Prepared] = []
        self.repeats: List[Repeat] = []
        self.peak_rss_mb = 0.0
        self.untraced_s: List[float] = []   # trace mode: setup + repeats, untraced
        self.traced_s: List[float] = []     # trace mode: the traced twins
        self.setup_speed: List[Optional[float]] = []   # hostspeed, per setup
        self.repeat_speed: List[Optional[float]] = []  # and per repeat

    def _timed(self, fn, run_id: Optional[str]):
        """Run fn; return its result, its time and the host speed then."""
        mark = METRONOME.mark()
        start = clock()
        if run_id is None:
            out = fn()
        else:
            with spans.Patches() as patches:
                spans.install(patches, self.recorder)
                out = self.recorder.run(run_id, fn)
        return out, clock() - start, METRONOME.speed_since(mark)

    def _fail(self, what: str) -> None:
        self.errors.append(f"{what}: {traceback.format_exc()}")
        print(f"perfbench: {what} raised:\n{traceback.format_exc()}",
              file=sys.stderr)

    def run(self, workdir: Path) -> dict:
        with spans.Patches() as patches:
            capture = Capture(patches)
            for module, attr, _ in spans.FUNCTION_SPANS:
                patches.set(module, attr, _ticking(patches.get(module, attr)))
            METRONOME.enabled = not self.trace
            try:
                self._setups(workdir)
                if self.preps:
                    self._repeats(self.preps[-1])
            finally:
                METRONOME.enabled = False
            # The high-water mark before the checks, which allocate too.
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.repeats:
                capture.verify(self.checks)
                self._check_outputs()
        return self.report()

    def _setups(self, workdir: Path) -> None:
        start = time.perf_counter()
        plan = [None, "setup-1"] if self.trace else [None] * MAX_SETUPS
        for k, run_id in enumerate(plan):
            if not self.trace and k >= MIN_SETUPS and (
                    time.perf_counter() - start >= SETUP_BUDGET_S):
                break
            try:
                prep, secs, speed = self._timed(
                    lambda: setup(self.w, self.seed, workdir), run_id)
            except Exception:
                self._fail("setup")
                self.attempted += 1
                self.failed_ops += 1
                return
            self.preps.append(prep)
            self.setup_s.append(secs)
            self.setup_speed.append(speed)
            (self.traced_s if run_id else self.untraced_s).append(secs)

    def _repeats(self, prep: Prepared) -> None:
        ops = repeat_ops(self.w, prep)
        start = time.perf_counter()
        last = 0.0
        n = 0
        while n < (1 if self.trace else MIN_REPEATS) or (
                time.perf_counter() - start + last <= self.seconds):
            plan = [None, f"repeat-{n + 1}"] if self.trace else [None]
            t0 = time.perf_counter()
            for run_id in plan:
                self.attempted += ops
                try:
                    rep, secs, speed = self._timed(lambda: repeat(self.w, prep),
                                                   run_id)
                except Exception:
                    self._fail("repeat")
                    self.failed_ops += ops
                    return
                self.repeats.append(rep)
                self.repeat_speed.append(speed)
                (self.traced_s if run_id else self.untraced_s).append(secs)
            last = time.perf_counter() - t0
            n += 1

    def _check_outputs(self) -> None:
        losses = [x for r in self.repeats for x in r.losses]
        losses += [x for p in self.preps for x in p.fit_losses]
        self.checks.add("training losses finite", all(np.isfinite(losses)),
                        f"{len(losses)} epoch losses")
        for r in self.repeats:
            for p in r.passes:
                in_unit = all(0.0 <= v <= 1.0 for v in
                              (p.accuracy, p.coverage, p.dense_accuracy)
                              if v is not None)
                self.checks.add("accuracy and coverage in [0, 1]", in_unit,
                                f"{p.model}: {p.accuracy} {p.coverage} "
                                f"{p.dense_accuracy}")
        first = self.repeats[0]
        for r in self.repeats[1:]:
            same = [(a.chamfer, a.dense_accuracy) == (b.chamfer, b.dense_accuracy)
                    for a, b in zip(first.passes, r.passes)]
            self.checks.add("repeat gives bit-identical heldout_chamfer",
                            all(same), str([p.chamfer for p in r.passes]))
            self.checks.add("repeat gives the same parameter digest",
                            r.digest == first.digest, r.digest[:16])
        if self.w.kind == "eval":
            fitted = {param_digest(*p.models["fitted"])[0] for p in self.preps}
            self.checks.add("setup fits give the same parameter digest",
                            len(fitted) == 1, f"{len(fitted)} distinct")

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> Dict[str, float]:
        """setup_s and clouds_per_s scale each setup and repeat by the host
        speed measured while it ran (a unit too short for a kernel call
        takes the run's speed), then take the median; untraced runs only."""
        out: Dict[str, float] = {}
        speeds = self.setup_speed + self.repeat_speed
        run_speed = _median([v for v in speeds if v is not None])
        if run_speed is not None:
            out["host_speed"] = run_speed
        if self.setup_s:
            out["setup_host_s"] = _median(self.setup_s)
            if run_speed is not None:
                out["setup_s"] = _median(
                    [s * (v or run_speed)
                     for s, v in zip(self.setup_s, self.setup_speed)])
        if self.repeats and self.w.kind == "train":
            n_train = len(self.preps[-1].split.train)
            out["train_clouds_per_s"] = _median(
                [n_train / s for r in self.repeats for s in r.epoch_s])
            per_repeat = [n_train * len(r.epoch_s) / sum(r.epoch_s)
                          for r in self.repeats]
        elif self.repeats:
            per_repeat = [
                sum(p.clouds for p in r.passes) / sum(p.seconds for p in r.passes)
                for r in self.repeats]
            out["eval_clouds_per_s"] = _median(per_repeat)
        if self.repeats and run_speed is not None:
            out["clouds_per_s"] = _median(
                [c / (v or run_speed) for c, v in zip(per_repeat, self.repeat_speed)])
        if self.repeats:
            final = self.repeats[-1].passes[-1]   # trained / fitted model
            out["heldout_chamfer"] = final.chamfer
            if final.dense_accuracy is not None:
                out["dense_accuracy"] = final.dense_accuracy
        out["peak_rss_mb"] = self.peak_rss_mb
        failed = self.failed_ops + self.checks.failed
        out["error_rate"] = failed / max(1, self.attempted)
        return out

    def per_layer(self) -> Dict[str, float]:
        rows = self.recorder.spans
        own = spans.self_times(rows)
        n_rep = sum(1 for s in rows if s.parent is None and s.name == "repeat")
        n_setup = sum(1 for s in rows if s.parent is None and s.name == "setup")
        weight = {"setup": 1.0 / max(1, n_setup), "repeat": 1.0 / max(1, n_rep)}
        self_ns: Dict[str, float] = {}
        calls: Dict[str, float] = {}
        work: Dict[str, float] = {}
        in_train: Dict[str, float] = {}
        train_ns = 0
        for i, s in enumerate(rows):
            k = weight[s.run_id.split("-")[0]]
            self_ns[s.name] = self_ns.get(s.name, 0.0) + own[i] * k
            calls[s.name] = calls.get(s.name, 0.0) + k
            work[s.name] = work.get(s.name, 0.0) + s.count * k
            if s.name == "train":
                train_ns += s.end - s.start
            elif spans.has_ancestor(rows, i, "train"):
                in_train[s.name] = in_train.get(s.name, 0.0) + own[i]

        def ms(name):
            return self_ns.get(name, 0.0) / 1e6

        def per_call(name):
            return ms(name) / calls[name] if calls.get(name) else 0.0

        def train_share(*names):
            return sum(in_train.get(n, 0.0) for n in names) / train_ns if train_ns else 0.0

        setup_total = sum(s.end - s.start for s in rows
                          if s.parent is None and s.name == "setup")
        subsample_setup = sum(own[i] for i, s in enumerate(rows)
                              if s.name == "sampling.subsample"
                              and s.run_id.startswith("setup"))
        build, query = ms("kdtree.build"), ms("kdtree.query")
        repeat_total = sum(s.end - s.start for s in rows
                           if s.parent is None and s.name == "repeat")
        repeat_build = sum(own[i] for i, s in enumerate(rows)
                           if s.name == "kdtree.build" and s.run_id.startswith("repeat"))
        out = {
            "kdtree.build_ms": build, "kdtree.query_ms": query,
            "kdtree.build_points": work.get("kdtree.build", 0.0),
            "kdtree.query_points": work.get("kdtree.query", 0.0),
            "kdtree.train_share": train_share("kdtree.build", "kdtree.query"),
            "kdtree.build_share": repeat_build / repeat_total if repeat_total else 0.0,
            "metrics.chamfer_grad_ms": ms("metrics.chamfer_grad"),
            "metrics.chamfer_ms": ms("metrics.chamfer"),
            "metrics.accuracy_ms": ms("metrics.accuracy"),
            "metrics.coverage_ms": ms("metrics.coverage"),
            "network.enc_fwd_ms": ms("network.enc_fwd"),
            "network.dec_fwd_ms": ms("network.dec_fwd"),
            "network.bwd_ms": ms("network.bwd"),
            "network.upsample_ms": ms("network.upsample"),
            "network.params": float(self.repeats[-1].params) if self.repeats else 0.0,
            "network.adam_train_share": train_share(
                "network.enc_fwd", "network.dec_fwd", "network.bwd",
                "training.adam"),
            "training.adam_ms": ms("training.adam"),
            "training.adam_steps": calls.get("training.adam", 0.0),
            "training.adam_bytes_per_step": (
                work["training.adam"] / calls["training.adam"]
                if calls.get("training.adam") else 0.0),
            "training.loop_self_ms": ms("train"),
            "training.val_ms": ms("training.val"),
            "sampling.sample_ms": per_call("sampling.sample"),
            "sampling.subsample_ms": per_call("sampling.subsample"),
            "sampling.subsample_setup_share": (
                subsample_setup / setup_total if setup_total else 0.0),
            "mesh.normalize_ms": ms("mesh.normalize"),
            "synthetic.generate_ms": ms("synthetic.generate"),
            "meshio.save_obj_ms": ms("meshio.save_obj"),
            "meshio.load_obj_ms": ms("meshio.load_obj"),
            "checkpoint.save_ms": ms("checkpoint.save"),
            "checkpoint.load_ms": ms("checkpoint.load"),
        }
        if self.untraced_s and len(self.traced_s) == len(self.untraced_s):
            out["trace_overhead_frac"] = sum(self.traced_s) / sum(self.untraced_s) - 1.0
        return out

    def baseline_rows(self, layers: Dict[str, float]) -> List[dict]:
        """Cross-check against the ROADMAP aim-1 baseline: a time agrees
        within 0.75x..1.33x, a share within 0.10."""
        rows = self.recorder.spans
        per_call: Dict[str, List[int]] = {}
        for i, s in enumerate(rows):
            if spans.has_ancestor(rows, i, "train"):
                per_call.setdefault(s.name, []).append(s.end - s.start)
        out = []
        for label, workload, source, base in BASELINE:
            if workload != self.w.name:
                continue
            if source in layers:
                value, unit = layers[source], "fraction"
                agrees = abs(value - base) <= 0.10
            elif per_call.get(source):
                value, unit = statistics.median(per_call[source]) / 1e6, "ms"
                agrees = 0.75 <= value / base <= 1.0 / 0.75
            else:
                continue
            out.append({"row": label, "baseline": base, "measured": value,
                        "unit": unit, "agrees": agrees})
        return out

    def report(self) -> dict:
        failed = self.failed_ops + self.checks.failed
        e2e = self.end_to_end()
        out = {
            "workload": self.w.name, "seed": self.seed, "trace": self.trace,
            "correct": failed == 0 and not self.errors,
            "attempted": max(1, self.attempted), "failed": failed,
            "setups": len(self.setup_s), "repeats": len(self.repeats),
            "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0],
                               "better": END_TO_END[k][1]}
                           for k, v in e2e.items()},
            "setup_s": self.setup_s,
            "setup_speed": self.setup_speed,
            "repeat_speed": self.repeat_speed,
            "kernel_calls": METRONOME.calls,
            "epoch_s": [s for r in self.repeats for s in r.epoch_s],
            "eval_s": [sum(p.seconds for p in r.passes) for r in self.repeats],
            "checks_passed": len(self.checks.results) - self.checks.failed,
            "checks_failed": [{"name": n, "detail": d}
                              for n, ok, d in self.checks.results if not ok],
            "errors": self.errors,
        }
        if self.w.kind == "eval" and self.repeats:
            untrained = self.repeats[-1].passes[0]
            out["untrained_pass"] = dataclasses.asdict(untrained)
        if self.trace:
            layers = self.per_layer()
            out["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]}
                                for k, v in layers.items()}
            out["baseline"] = self.baseline_rows(layers)
        return out


def declared_metrics() -> Tuple[List[str], List[str]]:
    """End-to-end and per-layer metric names BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def result_line(report: dict, names: List[str]) -> str:
    """The final JSON line: the declared metrics that were measured."""
    section = report.get("per_layer" if report["trace"] else "end_to_end", {})
    metrics = {n: {"value": section[n]["value"], "unit": section[n]["unit"]}
               for n in names if n in section}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 span_file: Optional[Path] = None) -> dict:
    """Run one workload in this process and return its report."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    runner = Runner(w, seed, seconds, trace)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        report = runner.run(Path(tmp))
    if trace and span_file is not None:
        runner.recorder.write(span_file)
    return report
