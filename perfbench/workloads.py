"""The benchmark's workloads: which preset each runs, at what size, and why.

Every workload is a named experiment preset plus overrides, resolved through
``runner.preset_config``.  The benchmark seed sets both ``problem.seed`` and
``run.seed``, so one seed fixes the problem geometry and every random stream
of the solve.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    T: int  # iterations of one timed solve
    smoke_T: int  # iterations in smoke mode: enough to reach every layer it uses
    why: str

    def config_overrides(self, seed, T=None, d=None):
        """Nested overrides for ``runner.preset_config``."""
        out = {sec: dict(kv) for sec, kv in self.overrides.items()}
        out.setdefault("problem", {})["seed"] = str(seed)
        run = out.setdefault("run", {})
        run["seed"] = str(seed)
        run["T"] = str(self.T if T is None else T)
        if d is not None:
            out["problem"]["d"] = str(d)
        return out

    @property
    def broadcasts_per_iter(self):
        """One broadcast per node per iteration; extragradient makes two."""
        return 2 if self.overrides.get("run", {}).get("algorithm") == "extragradient" else 1


WORKLOADS = {
    "hotloop-d20": Workload(
        preset="bilinear-abs",
        overrides={
            "problem": {"d": "20", "K": "4"},
            "quantization": {"M": "2", "grid": "256", "update_period": "1000"},
        },
        T=6000,
        smoke_T=1001,
        why="Acceptance 08's configuration. Per-call overhead in quantize, "
            "encode and decode dominates; adapt and set-up are negligible.",
    ),
    "refresh-d200": Workload(
        preset="cocoercive-rel",
        overrides={
            "problem": {"d": "200"},
            "quantization": {"M": "4", "grid": "2048", "update_period": "500"},
        },
        T=1500,
        smoke_T=501,
        why="The dense-DP level refresh dominates time and memory; the only "
            "workload with the iterative non-skew gap and relative noise.",
    ),
    "eg-d1000": Workload(
        preset="bilinear-abs",
        overrides={
            "problem": {"d": "1000", "K": "4"},
            "quantization": {
                "M": "4", "budgets": "2,3,5,7", "protocol": "alternating",
                "scheme": "elias", "update_period": "0",
            },
            "run": {"algorithm": "extragradient"},
        },
        T=200,
        smoke_T=2,
        why="Extragradient on the skew node split: make_problem is a large "
            "share of the wall time, the codec runs its alternating protocol "
            "and Elias scheme twice per iteration, and adapt is idle.",
    ),
}
