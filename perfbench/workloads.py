"""The three benchmark workloads: seeded inputs, one task each, and checks.

All three are closed loops with one client: the next task starts when
the previous one returns.  The benchmark seed only chooses inputs; the
program sees nothing but those inputs.  A task returns None when its
output passes the checks and a one-line failure message otherwise.

* ``prop-sweep``: verify_proposition (plus is_algebraic when d > 0) on
  seeded random lattices with a multiplication by sqrt(d), all six
  d in {2, 3, 5, -1, -2, -5} in every block.  The same six fields come
  back in every block, so field caches stay warm.
* ``structure``: endomorphism ring, classification, NS lattice and the
  corollaries on example1(m), example2(m, n) and scalar_cm_product(m)
  with seeded parameters.  Nearly every input has a new field, so the
  caches are mostly cold, and the lambda map is never called.
* ``cli-cold``: one CLI command per fresh interpreter, on the bundled
  documents and on documents written during set-up by
  ``gen-example random``.  The only workload where start-up counts.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFS = HERE / "refs"

#: a task that runs longer than this is stopped and counted as failed
TASK_LIMIT_S = 60


def _squarefree(n):
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


SQUAREFREE = tuple(m for m in range(1, 31) if _squarefree(m))


class Deck:
    """Seeded draws without replacement: each value once per pass.

    A run of a few dozen draws then covers nearly the same values on
    every seed, so its cost mix, and with it the timing quantiles, does
    not hinge on which values one seed happens to repeat.
    """

    def __init__(self, values, rng):
        self.values, self.rng, self.left = values, rng, []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


class InProcess:
    """A workload whose tasks call the library in this process.

    Inputs come in blocks.  Set-up imports the library and builds the
    first block; later blocks are built between tasks, outside every
    task's timer.
    """

    name = ""
    trace_tasks = 0
    #: host-speed probes also run inside tasks, see calibrate.InTaskProbes
    PROBE_IN_TASKS = True

    def __init__(self, seed, trace_dir=None):
        self.seed = seed
        self._block = 0
        self._pending = []

    def setup(self, after_import=None):
        self.import_library()
        if after_import is not None:
            after_import()
        self._refill()

    def _refill(self):
        rng = random.Random(f"{self.name}/{self.seed}/{self._block}")
        self._block += 1
        self._pending = [(spec, self.build(spec)) for spec in self.block(rng)]

    def next_task(self):
        if not self._pending:
            self._refill()
        spec, built = self._pending.pop(0)
        return self.label(spec), lambda: self.run(spec, built)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _claims_not_verified(report):
    return [f"{c.claim_id}={c.status}" for c in report.claims
            if c.status != "verified"]


class PropSweep(InProcess):
    name = "prop-sweep"
    #: exponent of the host-speed scaling, see calibrate.py
    HOST_SENSITIVITY = 0.8
    trace_tasks = 6
    #: signs alternate so that every prefix of a block mixes both; d = -1,
    #: whose tasks take a third of the others', comes last, so that every
    #: run of 12 to 17 tasks holds exactly two of them
    D_VALUES = (2, -2, 3, -5, 5, -1)

    def import_library(self):
        from toruslab import neronseveri, papercheck
        self.lib = (papercheck, neronseveri)

    def block(self, rng):
        return [(d, rng.randint(1, 10 ** 6)) for d in self.D_VALUES]

    def build(self, spec):
        papercheck, _ = self.lib
        return papercheck.random_torus_with_sqrt_d(*spec)

    def label(self, spec):
        return f"d={spec[0]} seed={spec[1]}"

    def run(self, spec, built):
        papercheck, neronseveri = self.lib
        d, seed = spec
        torus, mult = built
        report = papercheck.verify_proposition(torus, mult, seed=seed)
        bad = _claims_not_verified(report)
        if d > 0:
            verdict = neronseveri.is_algebraic(torus, mults=[mult], seed=seed)
            if verdict.status != "algebraic":
                bad.append(f"is_algebraic={verdict.status}")
        return "; ".join(bad) or None


class Structure(InProcess):
    name = "structure"
    #: exponent of the host-speed scaling, see calibrate.py
    HOST_SENSITIVITY = 0.9
    trace_tasks = 12

    def import_library(self):
        from toruslab import endo, exactfield, linalg, neronseveri, papercheck, torus
        self.lib = (endo, exactfield, linalg, neronseveri, papercheck, torus)

    def __init__(self, seed, trace_dir=None):
        super().__init__(seed, trace_dir)
        decks = random.Random(f"{self.name}/{seed}/decks")
        self.decks = {kind: Deck(SQUAREFREE, decks)
                      for kind in ("example1", "example2", "scalar")}

    def block(self, rng):
        specs = []
        for _ in range(4):
            specs.append(("example1", self.decks["example1"].draw()))
            m = self.decks["example2"].draw()
            n = rng.choice([n for n in SQUAREFREE if n != m])
            specs.append(("example2", m, n))
            specs.append(("scalar", self.decks["scalar"].draw()))
        return specs

    def build(self, spec):
        _, exactfield, linalg, _, papercheck, torus_mod = self.lib
        kind, m = spec[0], spec[1]
        if kind == "example1":
            return papercheck.example1(m)
        if kind == "example2":
            return papercheck.example2(m, spec[2])
        torus = papercheck.scalar_cm_product(m)
        _, mu = exactfield.sqrt_element(torus.field, -m)
        mult = torus_mod.attach_multiplication(
            torus, linalg.Mat.diagonal([mu, -mu]), -m)
        return torus, mult

    def label(self, spec):
        return spec[0] + "(" + ", ".join(map(str, spec[1:])) + ")"

    def run(self, spec, built):
        endo, _, _, neronseveri, papercheck, _ = self.lib
        torus, mult = built
        ring = endo.compute_endo_ring(torus)
        cls = endo.classify_algebra(ring)
        ns = neronseveri.compute_ns(torus)
        report = papercheck.verify_corollaries(torus, [mult])
        kind, m = spec[0], spec[1]
        bad = [f"{c.claim_id}=refuted" for c in report.refuted()]
        if kind == "example1":
            want = (2, "ImaginaryQuadratic")
            if cls.discriminant_data != (-m,):
                bad.append(f"discriminant_data={cls.discriminant_data}")
        elif kind == "example2":
            want = (4, "DefiniteQuaternion")
        else:
            want = (8, "MatrixAlgebraOverQuadratic")
            if ns.rank != 4:
                bad.append(f"ns_rank={ns.rank}")
            bad += [f"{c.claim_id}={c.status}" for c in report.claims
                    if c.claim_id.startswith(("corollary2", "corollary3"))
                    and c.status != "verified"]
        if (ring.rank, cls.tag) != want:
            bad.append(f"rank={ring.rank} tag={cls.tag}")
        return "; ".join(bad) or None


class CliCold:
    """Each task is one CLI command in a fresh interpreter."""

    name = "cli-cold"
    #: exponent of the host-speed scaling, see calibrate.py
    HOST_SENSITIVITY = 0.6
    #: the command runs in a child while this process waits
    PROBE_IN_TASKS = False
    trace_tasks = 14
    #: expensive and cheap commands alternate within a round
    COMMANDS = ("verify-prop", "classify", "polarize", "endo", "nd",
                "verify-cor", "ns")
    #: bundled documents by stem, None for a generated one; the kinds
    #: interleave so that any run of consecutive documents mixes them.
    #: Every run walks the list in the same order, so that its cost mix,
    #: and with it the timing quantiles, depends on the seed only
    #: through the generated documents.  A run holds three to four rounds
    #: and the dearest pairs (verify-prop on a random lattice) are a few
    #: of them, so a seeded start would move the 90th percentile by about
    #: 30% between seeds.
    DOCS = ("random_d2_seed1", "scalar_m1", "example1_m1", None,
            "example2_m1_n2", "random_d3_seed1", "scalar_m2",
            "example1_m2", None, "example2_m2_n3")
    #: skips that follow from the document's structure, not from a cap
    STRUCTURAL_SKIPS = {"no-positive-multiplication",
                        "no-negative-multiplication", "NotAlgebraic"}

    def __init__(self, seed, trace_dir=None):
        self.seed = seed
        self.trace_dir = trace_dir
        rng = random.Random(f"{self.name}/{seed}")
        # d = -1 is left out: its lattices take under half the time of
        # the other five d, and one such document among ten would swing
        # the run's timing quantiles with the seed
        self.generated = [(rng.choice((2, 3, 5)), rng.randint(1, 10 ** 6)),
                          (rng.choice((-2, -5)), rng.randint(1, 10 ** 6))]
        self.doc_dir = OUT / "docs" / f"seed{seed}"
        self.gen_paths = [(self.doc_dir / f"random_d{d}_seed{s}.json", d, s)
                          for d, s in self.generated]
        gen = iter(self.gen_paths)
        self.docs = []
        for stem in self.DOCS:
            if stem is None:
                path, d, _ = next(gen)
                self.docs.append((path, d))
            else:
                self.docs.append((ROOT / "tori" / f"{stem}.json", None))
        self.count = 0
        self.max_rss_kb = 0
        self.traces = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def setup(self, after_import=None):
        self.doc_dir.mkdir(parents=True, exist_ok=True)
        for path, d, seed in self.gen_paths:
            proc = subprocess.run(
                [sys.executable, "-m", "toruslab.cli", "gen-example", "random",
                 "--d", str(d), "--seed", str(seed), "-o", os.path.relpath(path, ROOT)],
                cwd=ROOT, env=self.env, capture_output=True, timeout=TASK_LIMIT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"gen-example random --d {d} --seed {seed} "
                                   f"exited {proc.returncode}: {proc.stderr[-500:]!r}")

    def next_task(self):
        rnd, k = divmod(self.count, len(self.COMMANDS))
        self.count += 1
        cmd = self.COMMANDS[k]
        path, d = self.docs[(rnd + k) % len(self.docs)]
        label = f"{cmd} {path.name}"
        return label, lambda: self.run(cmd, path, d, label)

    def run(self, cmd, path, d, label):
        rel = os.path.relpath(path, ROOT)
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "toruslab.cli", "--json", cmd, rel]
            trace_file = None
        else:
            trace_file = self.trace_dir / f"child-{self.count}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file),
                    label, "--json", cmd, rel]
        out_path = OUT / "child.stdout"
        err_path = OUT / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # the task time limit fired: end the child first
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if trace_file is not None and trace_file.exists():
            self.traces.append(json.loads(trace_file.read_text()))
        stdout = out_path.read_bytes()
        if proc.returncode != 0:
            tail = err_path.read_bytes()[-300:].decode("utf-8", "replace").strip()
            return f"exit code {proc.returncode}: {tail}"
        if d is None:
            ref = REFS / f"{path.stem}.{cmd}.json"
            if stdout != ref.read_bytes():
                return f"--json output differs from {ref.name}"
            return None
        return self.check_generated(cmd, d, json.loads(stdout))

    def check_generated(self, cmd, d, report):
        claims = {c["id"]: c for c in report["claims"]}
        bad = [f"{cid}=refuted" for cid, c in claims.items() if c["status"] == "refuted"]
        if cmd == "verify-prop":
            bad += [f"{cid}=skipped" for cid, c in claims.items() if c["status"] == "skipped"]
        elif cmd == "verify-cor":
            bad += [f"{cid} skipped ({c.get('reason')})" for cid, c in claims.items()
                    if c["status"] == "skipped" and c.get("reason") not in self.STRUCTURAL_SKIPS]
            if d > 0 and claims["corollary1.algebraic"]["status"] != "verified":
                bad.append(f"corollary1.algebraic={claims['corollary1.algebraic']['status']}")
        elif cmd == "polarize":
            want = "algebraic" if d > 0 else "not-algebraic"
            if report["witnesses"]["verdict"] != want:
                bad.append(f"verdict={report['witnesses']['verdict']}")
        elif cmd == "nd" and report["witnesses"]["rank"] != 2:
            bad.append(f"nd rank={report['witnesses']['rank']}")
        return "; ".join(bad) or None

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024


WORKLOADS = {w.name: w for w in (PropSweep, Structure, CliCold)}
