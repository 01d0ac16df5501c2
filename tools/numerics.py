"""Numerics snapshot of the forecaster, for comparing two checkouts.

    python3 tools/numerics.py dump OUT.npz
    python3 tools/numerics.py compare A.npz B.npz

``dump`` loads ``perfbench/eval-k20.ckpt`` into the default model, in f64
and in f32, and records the loss and every parameter gradient of one packed
training batch: the first 8 windows of the seed-7 corpus, with fixed latent
draws.  It also records ``sample_futures`` at K=20 (f64) on the same
windows, drawn as ``train.evaluate`` draws them, with the hyperedges each
of those calls forms (kept by ``attention.capture``), and, by
``tracemalloc``, the bytes each precision's forward tape holds, the peak
while its backward runs, and the op kind, output shape and temporaries of
the node whose backward reaches that peak, and how many tape nodes of each
op kind the packed ``training_loss`` records.  That batch has 6 agents per
window and no absent slot, so ``dump`` records a second, uneven packed batch
under ``uneven/``: the first window of each of the first 8 scenes of the
seed-7 corpus (3 to 6 agents), with a fixed, seeded 15% of the observed
slots blanked (never an agent's last present one, its anchor, and never
below 2 per agent).  For it ``dump`` records the loss and gradients in both
precisions, and ``sample_futures`` at K=20 (f64) on the packed window with
the hyperedges and attention maps it captures.  crowdcast is imported from
the ``src`` beside this script, so running the script of each checkout
snapshots that checkout.

``compare`` prints the worst differences of B against A: the loss relative
to A's loss, the gradients relative to A's largest gradient entry over all
parameters (the global max|grad|), and the samples and attention maps in
absolute terms.  Gradients are not compared parameter by parameter: a few
are zero in exact arithmetic (the key bias of an attention, the mask
biases; softmax is shift-invariant), so a per-parameter relative error on
them is rounding noise.  The hyperedges and the corpus digests either match
or differ.  The hyperedges are ranked from whitened distances, whose
rounding can differ between two formulas that agree in exact arithmetic, so
a flipped near-tie shows here as the cause of any sample difference.  The
memory figures, the peak node and the node counts are printed for both
sides; a snapshot from before they, or the uneven batch, were recorded
reads "not recorded".  ``compare`` exits with status 1 when the loss, any
gradient entry, any K=20 sample, any attention map, any window's hyperedges
or any corpus digest of a batch that both snapshots hold differs at all, so
a claim that a change is bit-identical rests on its exit status; the memory
figures and the node counts never fail it.
"""

import hashlib
import json
import os
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace

# One BLAS thread, as the benchmark runs: results then do not depend on
# how the BLAS splits its sums.  Must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from crowdcast import autodiff as ad  # noqa: E402
from crowdcast.attention import capture  # noqa: E402
from crowdcast.config import TrainConfig  # noqa: E402
from crowdcast.data import (  # noqa: E402
    last_present, normalize_window, pack_windows, parse_scene, synth_generate, window_scene, write_scene,
)
from crowdcast.model import CrowdForecaster  # noqa: E402

CHECKPOINT = os.path.join(ROOT, "perfbench", "eval-k20.ckpt")
CORPUS_SEED = 7
N_WINDOWS = 8
K = 20
UNEVEN = "uneven/"  # key prefix of the uneven batch
HOLE_RATE, HOLES_SEED = 0.15, 0
# The corpora the benchmark and the acceptance run cut windows from (the
# dense ones are those grad-dense draws at --seed 0):
# name -> (seed, scenes, agents_range, kinds, stride).
CORPORA = {
    "seed7": (7, 12, (3, 6), ("cv", "avoid", "group"), 1),
    "seed70": (70, 3, (3, 6), ("avoid", "group"), 4),
    "seed11": (11, 4, (12, 16), ("cv", "avoid", "group"), 1),
    **{f"dense{n}": ([0, n], 6, (n, n), ("cv", "avoid", "group"), 1) for n in range(12, 17)},
}


def corpus_windows():
    """The first windows of the seed-7 training corpus, normalized."""
    windows = [w for scene in synth_generate(CORPUS_SEED, 12, agents_range=(3, 6)) for w in window_scene(scene)]
    return [normalize_window(w)[0] for w in windows[:N_WINDOWS]]


def uneven_windows():
    """The first window of each of the first scenes of the seed-7 corpus,
    with a seeded share of observed slots blanked, normalized."""
    rng = np.random.default_rng(HOLES_SEED)
    out = []
    for scene in synth_generate(CORPUS_SEED, 12, agents_range=(3, 6))[:N_WINDOWS]:
        w = window_scene(scene)[0]
        observed = w.presence[:, : w.t_in]
        blank = observed & (rng.random(observed.shape) < HOLE_RATE)
        blank[np.arange(w.n_agents), last_present(observed)] = False  # keep each agent's anchor
        blank[(observed & ~blank).sum(axis=1) < 2] = False
        presence = w.presence.copy()
        presence[:, : w.t_in] &= ~blank
        out.append(normalize_window(replace(w, positions=w.positions * presence[:, :, None], presence=presence))[0])
    return out


def record_loss_and_grads(out, key, total, model):
    out[f"{key}/loss"] = np.float64(total.data)
    for name, p in model.params.items():
        out[f"{key}/grad/{name}"] = np.zeros(p.shape) if p.grad is None else p.grad.astype(np.float64)


def corpus_digests(workdir):
    """sha256 of each corpus's written files and of the windows cut from them."""
    out = {}
    for name, (seed, n_scenes, agents_range, kinds, stride) in CORPORA.items():
        files, windows = hashlib.sha256(), hashlib.sha256()
        for i, scene in enumerate(synth_generate(seed, n_scenes, agents_range=agents_range, kinds=kinds)):
            path = os.path.join(workdir, f"{name}-{i:03d}.txt")
            write_scene(scene, path)
            with open(path, "rb") as fh:
                files.update(fh.read())
            for w in window_scene(parse_scene(path), stride=stride):
                windows.update(w.positions.tobytes())
                windows.update(w.presence.tobytes())
                windows.update(repr((w.agent_ids, w.origin_frame)).encode())
        out[f"data/{name}/files"] = np.array(files.hexdigest())
        out[f"data/{name}/windows"] = np.array(windows.hexdigest())
    return out


def backward_peak_node(model, packed, eps):
    """The node whose backward reaches the highest traced memory, as "<op
    kind> <output shape>", its temporaries (that peak less the traced
    memory as the node's backward starts), and the count of tape nodes by
    op kind.

    A second forward and backward, with each node's backward wrapped to
    measure it, so the wrappers stay out of the figures ``dump`` records
    from the first.
    """
    peaks = []  # (traced peak, temporaries, label) per node backward
    kinds = Counter()
    make = ad._make

    def measuring_make(data, op, *rest, **kwargs):
        out = make(data, op, *rest, **kwargs)
        inner = out._backward
        if inner is not None:
            kinds[op] += 1
            label = f"{op} {list(data.shape)}"

            def measured(g):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                inner(g)
                peak = tracemalloc.get_traced_memory()[1]
                peaks.append((peak, peak - start, label))

            out._backward = measured
        return out

    for p in model.params.values():
        p.zero_grad()
    tracemalloc.start()
    ad._make = measuring_make
    try:
        total, _ = model.training_loss(packed, latent_eps=eps)
    finally:
        ad._make = make
    ad.backward(total)
    tracemalloc.stop()
    _, temporaries, label = max(peaks)
    return label, temporaries, kinds


def dump(path):
    windows = corpus_windows()
    packed, uneven = pack_windows(windows), pack_windows(uneven_windows())
    out = {}
    for precision in ("f64", "f32"):
        cfg = TrainConfig(precision=precision)
        model = CrowdForecaster(cfg).load(CHECKPOINT)
        eps = np.random.default_rng(0).standard_normal((packed.n_agents, cfg.d_z))
        tracemalloc.start()
        total, _ = model.training_loss(packed, latent_eps=eps)
        tape, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.backward(total)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[f"mem/{precision}/forward_tape"], out[f"mem/{precision}/backward_peak"] = np.int64(tape), np.int64(peak)
        record_loss_and_grads(out, precision, total, model)
        out[f"mem/{precision}/peak_node"], temporaries, kinds = backward_peak_node(model, packed, eps)
        out[f"mem/{precision}/peak_node_temporaries"] = np.int64(temporaries)
        out[f"mem/{precision}/tape_nodes"] = np.array(json.dumps(dict(sorted(kinds.items()))))
        if precision == "f64":
            for wi, window in enumerate(windows):
                with capture() as kept:
                    out[f"samples/{wi}"] = model.sample_futures(window, K, np.random.default_rng([0, wi]))
                out[f"hyperedges/{wi}"] = np.array(json.dumps(kept.get("hyper/edges", [])))
        for p in model.params.values():
            p.zero_grad()
        total, _ = model.training_loss(uneven, latent_eps=np.random.default_rng(1).standard_normal(
            (uneven.n_agents, cfg.d_z)))
        ad.backward(total)
        record_loss_and_grads(out, UNEVEN + precision, total, model)
        if precision == "f64":
            with capture() as kept:
                out[UNEVEN + "samples/packed"] = model.sample_futures(uneven, K, np.random.default_rng(1))
            out[UNEVEN + "hyperedges/packed"] = np.array(json.dumps(kept.pop("hyper/edges", [])))
            out.update({f"{UNEVEN}attn/{name}": weights for name, weights in kept.items()})
    with tempfile.TemporaryDirectory() as workdir:
        out.update(corpus_digests(workdir))
    np.savez(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def compare_batch(a, b, prefix):
    """Print the differences of one batch's loss, gradients, samples,
    hyperedges and attention maps; True when all are identical."""
    label, identical = prefix.replace("/", " "), True
    for precision in ("f64", "f32"):
        key = prefix + precision
        la, lb = float(a[f"{key}/loss"]), float(b[f"{key}/loss"])
        print(f"{label}{precision} loss: {la!r} against {lb!r}, relative difference {abs(lb - la) / abs(la):.3g}")
        identical &= la == lb
        names = [k for k in a.files if k.startswith(f"{key}/grad/")]
        scale = max(float(np.abs(a[k]).max()) for k in names)
        worst = max(names, key=lambda k: float(np.abs(a[k] - b[k]).max()))
        diff = float(np.abs(a[worst] - b[worst]).max())
        where = f", in {worst[len(key) + 6:]}" if diff else ""
        print(f"{label}{precision} gradients: worst difference {diff / scale:.3g} x max|grad| ({scale:.4g}){where}")
        identical &= diff == 0
    for kind, what in (("samples", f"K={K} samples"), ("attn", "attention maps")):
        keys = [k for k in a.files if k.startswith(f"{prefix}{kind}/")]
        if keys:
            diff = max(float(np.abs(a[k] - b[k]).max()) for k in keys)
            print(f"{label}{what}: worst absolute difference {diff:.3g} over {len(keys)} arrays")
            identical &= diff == 0
    hyper = [k for k in a.files if k.startswith(prefix + "hyperedges/")]
    differ = [k.split("/")[-1] for k in hyper if a[k] != b[k]]
    print(f"{label}hyperedges: {len(differ)} of {len(hyper)} windows differ{': ' + ', '.join(differ) if differ else ''}")
    return identical and not differ


def compare(path_a, path_b):
    """Print the differences of B against A; True when the loss, the
    gradients, the samples, the attention maps, the hyperedges and the
    corpus digests are all identical."""
    a, b = np.load(path_a), np.load(path_b)
    recorded = [f"{UNEVEN}f64/loss" in s.files for s in (a, b)]
    skipped = ("mem/",) if all(recorded) else ("mem/", UNEVEN)
    differ = sorted(k for k in set(a.files) ^ set(b.files) if not k.startswith(skipped))
    if differ:
        sys.exit(f"the two snapshots hold different arrays: {differ}")
    identical = compare_batch(a, b, "")
    if all(recorded):
        identical &= compare_batch(a, b, UNEVEN)
    else:
        sides = ["recorded" if r else "not recorded" for r in recorded]
        print(f"uneven batch: {sides[0]} against {sides[1]}")
    for kind in ("files", "windows"):
        keys = [k for k in a.files if k.startswith("data/") and k.endswith(f"/{kind}")]
        differ = [k.split("/")[1] for k in keys if a[k] != b[k]]
        print(f"corpus {kind}: {len(differ)} of {len(keys)} digests differ{': ' + ', '.join(differ) if differ else ''}")
        identical &= not differ
    for precision in ("f64", "f32"):
        for field in ("forward_tape", "backward_peak"):
            key = f"mem/{precision}/{field}"
            sides = [f"{int(s[key]) / 2**20:.2f} MiB" if key in s.files else "not recorded" for s in (a, b)]
            print(f"{precision} {field.replace('_', ' ')} (tracemalloc): {sides[0]} against {sides[1]}")
        key = f"mem/{precision}/peak_node"
        sides = [f"{s[key]} (+{int(s[key + '_temporaries']) / 2**20:.2f} MiB)" if key in s.files else "not recorded"
                 for s in (a, b)]
        print(f"{precision} backward peak node: {sides[0]} against {sides[1]}")
        key = f"mem/{precision}/tape_nodes"
        counts = [json.loads(str(s[key])) if key in s.files else None for s in (a, b)]
        sides = [f"{sum(c.values())} nodes" if c is not None else "not recorded" for c in counts]
        moved = ""
        if None not in counts:
            moved = ", ".join(f"{op} {counts[0].get(op, 0)} -> {counts[1].get(op, 0)}"
                              for op in sorted(set(counts[0]) | set(counts[1]))
                              if counts[0].get(op, 0) != counts[1].get(op, 0))
        print(f"{precision} packed training_loss: {sides[0]} against {sides[1]}{'; ' + moved if moved else ''}")
    return identical


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
    elif len(argv) == 3 and argv[0] == "compare":
        if not compare(argv[1], argv[2]):
            sys.exit("the snapshots differ in the loss, a gradient, a sample, an attention map, the hyperedges "
                     "or a corpus digest")
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
